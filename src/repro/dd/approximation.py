"""State approximation by pruning negligible branches.

The DD simulators this work builds on support *approximate* simulation:
edges whose sub-tree carries almost no probability mass are cut (replaced
by 0-stubs) and the state is renormalised.  This trades a controlled
fidelity loss for (sometimes dramatically) smaller diagrams -- useful when
a simulation's DD grows towards the exponential worst case but the
interesting amplitudes are concentrated.

``prune_small_contributions`` implements the standard scheme: compute each
edge's *contribution* (the total squared magnitude flowing through it) in
one downward pass, cut every edge below the budget, renormalise, and report
the fidelity retained.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

from .edge import Edge
from .measurement import _norm2
from .package import Package

__all__ = ["ApproximationResult", "prune_small_contributions",
           "prune_to_node_budget"]


@dataclass(frozen=True)
class ApproximationResult:
    """Outcome of one approximation pass."""

    state: Edge
    #: squared overlap between the original and the approximated state
    fidelity: float
    nodes_before: int
    nodes_after: int
    edges_cut: int


# The recursive helpers below live at module level and take their memo as
# an argument: a nested function that calls itself holds its own closure
# cell, and that function<->cell cycle would keep the memo (and for the
# rebuild the whole package) alive until the cyclic collector runs.

def _collect(node, seen: set[int], order: list) -> None:
    """Append every node under ``node`` to ``order``, depth-first."""
    if node.level == -1 or id(node) in seen:
        return
    seen.add(id(node))
    order.append(node)
    for child in node.edges:
        if child.weight != 0:
            _collect(child.node, seen, order)


def _rebuild(package: Package, node, to_cut: set[tuple[int, int]],
             cache: dict[int, Edge]) -> Edge:
    """The sub-vector under ``node`` with the edges in ``to_cut`` zeroed."""
    if node.level == -1:
        return package.one
    found = cache.get(id(node))
    if found is not None:
        return found
    children = []
    for index, child in enumerate(node.edges):
        if child.weight == 0 or (id(node), index) in to_cut:
            children.append(package.zero)
        else:
            children.append(package._scaled(
                _rebuild(package, child.node, to_cut, cache), child.weight))
    result = package.make_vector_node(node.level, tuple(children))
    cache[id(node)] = result
    return result


def _contributions(package: Package, state: Edge) -> dict[tuple[int, int], float]:
    """Probability mass flowing through each (node-id, child-index) edge."""
    # squared norm below each node
    norms: dict[int, float] = {}
    # A(node): sum over root-to-node paths of the squared weight product
    # (excluding anything below the node).  Then the probability carried by
    # edge e = (node, child) is A(node) * |w_e|^2 * norm2(child).
    incoming: dict[int, float] = {id(state.node): abs(state.weight) ** 2}
    order: list = []
    _collect(state.node, set(), order)
    contributions: dict[tuple[int, int], float] = {}
    # process by descending level so every parent is settled before its
    # children accumulate incoming mass
    for node in sorted(order, key=lambda n: -n.level):
        mass = incoming.get(id(node), 0.0)
        for index, child in enumerate(node.edges):
            if child.weight == 0:
                continue
            through = mass * abs(child.weight) ** 2
            contributions[(id(node), index)] = \
                contributions.get((id(node), index), 0.0) \
                + through * _norm2(child.node, norms)
            if child.node.level != -1:
                incoming[id(child.node)] = \
                    incoming.get(id(child.node), 0.0) + through
    return contributions


def prune_small_contributions(package: Package, state: Edge,
                              budget: float) -> ApproximationResult:
    """Cut edges contributing less than ``budget`` total probability.

    Greedily removes the smallest-contribution edges while their cumulative
    mass stays below ``budget``; the result is renormalised.  A ``budget``
    of 0 returns the state unchanged.
    """
    if not 0.0 <= budget < 1.0:
        raise ValueError(f"budget must be in [0, 1), got {budget}")
    if state.weight == 0:
        raise ValueError("cannot approximate the zero state")
    nodes_before = package.count_nodes(state)
    if budget == 0.0:
        return ApproximationResult(state, 1.0, nodes_before, nodes_before, 0)

    contributions = _contributions(package, state)
    candidates = sorted(contributions.items(), key=lambda item: item[1])
    to_cut: set[tuple[int, int]] = set()
    spent = 0.0
    for key, mass in candidates:
        if spent + mass > budget:
            break
        spent += mass
        to_cut.add(key)

    pruned = package._scaled(_rebuild(package, state.node, to_cut, {}),
                             state.weight)
    if pruned.weight == 0:
        # budget ate everything that was reachable -- refuse the cut
        return ApproximationResult(state, 1.0, nodes_before, nodes_before, 0)
    norm = sqrt(package.squared_norm(pruned))
    normalised = package._scaled(pruned, 1.0 / norm)
    fidelity = package.fidelity(state, normalised) \
        / max(package.squared_norm(state), 1e-300)
    return ApproximationResult(
        state=normalised,
        fidelity=fidelity,
        nodes_before=nodes_before,
        nodes_after=package.count_nodes(normalised),
        edges_cut=len(to_cut),
    )


def prune_to_node_budget(package: Package, state: Edge, max_nodes: int,
                         min_fidelity: float = 0.9,
                         initial_budget: float = 1e-6,
                         growth: float = 8.0) -> ApproximationResult:
    """Prune ``state`` until it fits ``max_nodes``, bounded by a fidelity floor.

    Runs :func:`prune_small_contributions` passes with a geometrically
    growing mass budget, never letting the *cumulative* fidelity (product
    of the per-pass fidelities) fall below ``min_fidelity``.  This is what
    the simulation engine's degradation policy does when a run's working
    set exceeds its hard memory budget: a controlled, accounted fidelity
    loss instead of losing the whole run.

    The returned :class:`ApproximationResult` carries the cumulative
    fidelity and total edges cut over all passes.  The result may still
    exceed ``max_nodes`` when the floor stops further pruning -- callers
    must check ``nodes_after``.
    """
    if max_nodes < 1:
        raise ValueError(f"max_nodes must be positive, got {max_nodes}")
    if not 0.0 < min_fidelity <= 1.0:
        raise ValueError(f"min_fidelity must be in (0, 1], "
                         f"got {min_fidelity}")
    if initial_budget <= 0 or growth <= 1.0:
        raise ValueError("need initial_budget > 0 and growth > 1")
    nodes_before = package.count_nodes(state)
    current = state
    current_nodes = nodes_before
    cumulative = 1.0
    total_cut = 0
    budget = initial_budget
    while current_nodes > max_nodes:
        # Mass we may still drop without the cumulative fidelity (a
        # product of per-pass retained masses) crossing the floor.
        headroom = 1.0 - min_fidelity / cumulative
        if headroom <= 0:
            break
        step = min(budget, headroom, 0.999999)
        result = prune_small_contributions(package, current, step)
        if result.edges_cut == 0:
            if step >= headroom or step >= 0.999999:
                break  # the floor (or the scheme itself) forbids any cut
            budget *= growth
            continue
        current = result.state
        current_nodes = result.nodes_after
        cumulative *= result.fidelity
        total_cut += result.edges_cut
        budget *= growth
    return ApproximationResult(
        state=current,
        fidelity=cumulative,
        nodes_before=nodes_before,
        nodes_after=current_nodes,
        edges_cut=total_cut,
    )
