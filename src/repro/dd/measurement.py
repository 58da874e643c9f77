"""Measurement on state-vector DDs.

Provides the probabilistic operations a simulator needs on top of the pure
linear algebra: single-qubit measurement with state collapse (required by
the semiclassical order-finding circuit of Shor's algorithm), full-register
sampling, and probability queries.  All randomness is injected through a
``random.Random`` (or numpy generator-like) object so runs are reproducible.

Measurement and collapse keep a state in the store it lives in: an
object-node edge is walked node by node below, a flat state of the
iterative kernel (a :class:`~repro.dd.kernel.DenseState` after
``to_flat()``) is measured and projected in the flat store and comes back
as a :class:`~repro.dd.kernel.FlatEdge`, so the simulation after a
mid-circuit measurement stays on the flat kernel.
"""

from __future__ import annotations

import math
from random import Random

from .edge import Edge
from .kernel import DenseState, FlatEdge
from .node import VectorNode
from .package import Package

__all__ = [
    "qubit_probability",
    "measure_qubit",
    "project_qubit",
    "sample_bitstring",
    "sample_counts",
    "all_probabilities",
]


# The recursive helpers below live at module level and take their memo as
# an argument: a nested function that calls itself holds its own closure
# cell, and that function<->cell cycle would keep the memo (and for the
# projection the whole package) alive until the cyclic collector runs --
# which the engine and Shor's order finder pause on purpose.

def _norm2(node, cache: dict[int, float]) -> float:
    """Squared norm of the (weight-1) sub-vector under ``node``, memoised."""
    if node.level == -1:
        return 1.0
    ident = id(node)
    found = cache.get(ident)
    if found is not None:
        return found
    total = 0.0
    for child in node.edges:
        if child.weight != 0:
            total += abs(child.weight) ** 2 * _norm2(child.node, cache)
    cache[ident] = total
    return total


def _norm2_map(state: Edge) -> dict[int, float]:
    """Squared norm of the (weight-1) sub-vector under each node."""
    cache: dict[int, float] = {}
    if state.weight != 0:
        _norm2(state.node, cache)
    return cache


def _one_mass(node, qubit: int, norms: dict[int, float],
              cache: dict[int, float]) -> float:
    """Unnormalised probability mass with ``qubit = 1`` under ``node``."""
    if node.level == qubit:
        child = node.edges[1]
        if child.weight == 0:
            return 0.0
        return abs(child.weight) ** 2 * _norm2(child.node, norms)
    ident = id(node)
    found = cache.get(ident)
    if found is not None:
        return found
    total = 0.0
    for child in node.edges:
        if child.weight != 0:
            total += abs(child.weight) ** 2 * _one_mass(child.node, qubit,
                                                        norms, cache)
    cache[ident] = total
    return total


def _project(package: Package, node, qubit: int, value: int,
             cache: dict[int, Edge]) -> Edge:
    """The sub-vector under ``node`` with ``qubit`` fixed to ``value``."""
    if node.level < qubit:
        # Only reachable through zero stubs; cannot happen for the
        # quasi-reduced non-zero paths this walks.
        return package.one
    ident = id(node)
    found = cache.get(ident)
    if found is not None:
        return found
    if node.level == qubit:
        kept = node.edges[value]
        children = (kept, package.zero) if value == 0 \
            else (package.zero, kept)
        result = package.make_vector_node(node.level, children)
    else:
        projected = []
        for child in node.edges:
            if child.weight == 0:
                projected.append(package.zero)
            else:
                sub = _project(package, child.node, qubit, value, cache)
                projected.append(package._scaled(sub, child.weight))
        result = package.make_vector_node(node.level, tuple(projected))
    cache[ident] = result
    return result


def qubit_probability(package: Package, state: Edge, qubit: int) -> float:
    """Probability that measuring ``qubit`` of ``state`` yields ``1``.

    ``state`` need not be normalised; the result is normalised by
    ``<state|state>``.  A flat state is summed in one ascending pass over
    the flat store (:meth:`~repro.dd.kernel.FlatKernel.norm_and_one_mass`),
    without materialising object nodes.
    """
    if type(state) is DenseState:
        state = state.to_flat()
    if state.weight == 0:
        raise ValueError("cannot measure the zero vector")
    if not 0 <= qubit <= state.level:
        raise ValueError(f"qubit {qubit} out of range")
    if type(state) is FlatEdge:
        norm, one = package.flat.norm_and_one_mass(state.index, qubit)
    else:
        norms = _norm2_map(state)
        norm = _norm2(state.node, norms)
        one = _one_mass(state.node, qubit, norms, {})
    total_norm = abs(state.weight) ** 2 * norm
    if total_norm <= 0:
        raise ValueError("state has zero norm")
    return min(1.0, max(0.0, abs(state.weight) ** 2 * one / total_norm))


def _project_flat(package: Package, state: FlatEdge, qubit: int, value: int,
                  renormalise: bool) -> FlatEdge:
    """``project_qubit`` in the flat store.

    The projection is the one ``apply_gate`` memoises for a control below
    its target (same spec, so the two share memo entries); the result is
    rescaled through its root weight only.
    """
    kernel = package.flat
    if state.weight == 0:
        return FlatEdge(kernel, 0, 0j)
    proj_id = kernel._kernel_id(package._spec_id(("proj", ((qubit, value),))))
    index, weight = kernel._project_root(state.index, proj_id,
                                         {qubit: value}, qubit)
    weight *= state.weight
    if weight != 0 and renormalise:
        norm, _ = kernel.norm_and_one_mass(index, qubit)
        weight /= math.sqrt(abs(weight) ** 2 * norm)
    return FlatEdge(kernel, index, weight)


def project_qubit(package: Package, state: Edge, qubit: int, value: int,
                  renormalise: bool = True) -> Edge:
    """Project ``state`` onto ``qubit = value`` (collapse after measurement).

    Returns the zero edge if the outcome has no support.  With
    ``renormalise`` (the default) the result is scaled back to unit norm.
    A flat state stays flat: the result is a
    :class:`~repro.dd.kernel.FlatEdge` of the same kernel.
    """
    if value not in (0, 1):
        raise ValueError("measurement value must be 0 or 1")
    if type(state) is DenseState:
        state = state.to_flat()
    if type(state) is FlatEdge:
        return _project_flat(package, state, qubit, value, renormalise)
    if state.weight == 0:
        return package.zero
    projected = package._scaled(
        _project(package, state.node, qubit, value, {}), state.weight)
    if projected.weight == 0 or not renormalise:
        return projected
    norm = math.sqrt(package.squared_norm(projected))
    return package._scaled(projected, 1.0 / norm)


def measure_qubit(package: Package, state: Edge, qubit: int,
                  rng: Random) -> tuple[int, Edge, float]:
    """Measure one qubit: returns ``(outcome, collapsed_state, p_of_outcome)``.

    A flat or dense state collapses to a
    :class:`~repro.dd.kernel.FlatEdge`; an object-node edge to an edge.
    """
    p_one = qubit_probability(package, state, qubit)
    outcome = 1 if rng.random() < p_one else 0
    probability = p_one if outcome == 1 else 1.0 - p_one
    collapsed = project_qubit(package, state, qubit, outcome)
    if collapsed.weight == 0:
        # Numerical corner: the sampled branch had (within tolerance) zero
        # support.  Fall back to the other branch.
        outcome = 1 - outcome
        probability = 1.0 - probability
        collapsed = project_qubit(package, state, qubit, outcome)
    return outcome, collapsed, probability


def sample_bitstring(package: Package, state: Edge, rng: Random) -> int:
    """Draw one basis-state index from ``|amplitude|^2`` without collapsing."""
    if state.weight == 0:
        raise ValueError("cannot sample from the zero vector")
    norms = _norm2_map(state)
    index = 0
    node = state.node
    while node.level != -1:
        masses = []
        for child in node.edges:
            if child.weight == 0:
                masses.append(0.0)
            else:
                masses.append(abs(child.weight) ** 2
                              * _norm2(child.node, norms))
        total = masses[0] + masses[1]
        bit = 1 if rng.random() * total >= masses[0] else 0
        if masses[bit] == 0.0:
            bit = 1 - bit
        if bit:
            index |= 1 << node.level
        node = node.edges[bit].node
    return index


def sample_counts(package: Package, state: Edge, shots: int,
                  rng: Random) -> dict[int, int]:
    """Histogram of ``shots`` independent basis-state samples."""
    counts: dict[int, int] = {}
    for _ in range(shots):
        outcome = sample_bitstring(package, state, rng)
        counts[outcome] = counts.get(outcome, 0) + 1
    return counts


def all_probabilities(package: Package, state: Edge,
                      num_qubits: int) -> list[float]:
    """Dense list of all ``2^n`` outcome probabilities (small systems only)."""
    return [abs(package.amplitude(state, i)) ** 2
            for i in range(1 << num_qubits)]
