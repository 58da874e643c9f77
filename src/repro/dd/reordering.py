"""Variable (qubit) reordering on decision diagrams.

DD sizes depend heavily on the variable order: a state that pairs qubit
``i`` with qubit ``i + n/2`` is exponential under the natural order but
linear once the paired qubits are adjacent.  This module provides the
standard reordering toolkit, adapted to quasi-reduced edge-weighted DDs:

* :func:`swap_adjacent_levels` -- exchange two neighbouring variables in
  time proportional to the number of nodes at or above the swapped levels;
* :func:`permute_qubits` -- realise an arbitrary qubit permutation as a
  bubble-sorted sequence of adjacent swaps;
* :func:`sift` -- Rudell-style sifting: greedily move each variable to its
  locally best position, returning the (possibly much smaller) reordered
  diagram together with the permutation that maps old qubit positions to
  new ones.

Reordering *relabels* which qubit lives on which DD level: the amplitude of
basis state ``x`` in the original diagram equals the amplitude of the
bit-permuted index in the reordered one.  Callers that keep simulating
afterwards must apply the same permutation to their circuits (see
:func:`repro.circuit.mapping.permute_operation`).

Level gaps
----------

Vector and matrix DDs are quasi-reduced without exceptions: every
non-zero edge of a level-``z`` node points to a node at level ``z - 1``.
An edge that skips a level is corrupt, and every function here raises a
clear :class:`ValueError` instead of silently building a wrong diagram.
"""

from __future__ import annotations

from collections.abc import Sequence

from .edge import Edge
from .node import MatrixNode
from .package import Package

__all__ = ["swap_adjacent_levels", "permute_qubits", "sift",
           "apply_index_permutation"]


def _is_matrix(edge: Edge) -> bool:
    return isinstance(edge.node, MatrixNode)


def _gap_error(at_level: int, node_level: int) -> ValueError:
    return ValueError(
        f"DD skips level {at_level}: expected a node at level "
        f"{at_level}, found one at level {node_level}; quasi-reduced "
        f"DDs must not have level gaps")


def _virtual_children(package: Package, edge: Edge, arity: int,
                      at_level: int) -> list[Edge]:
    """Children of ``edge`` viewed as a node at ``at_level``.

    0-stubs read as all-zero nodes; an edge whose node sits below
    ``at_level`` is corrupt and raises.
    """
    if edge.weight == 0:
        return [package.zero] * arity
    node_level = edge.node.level
    if node_level == at_level:
        return [child.scaled(edge.weight) for child in edge.node.edges]
    if node_level > at_level:
        raise ValueError(
            f"malformed DD: node at level {node_level} reached while "
            f"expecting level <= {at_level}")
    raise _gap_error(at_level, node_level)


def _swap_vector_block(package: Package, edge: Edge, level: int) -> Edge:
    """Swap levels ``level+1`` / ``level`` under a level-``level+1`` edge."""
    grandchildren = [
        _virtual_children(package, child, 2, level)
        for child in _virtual_children(package, edge, 2, level + 1)
    ]
    new_children = []
    for j in (0, 1):
        new_children.append(package.make_vector_node(
            level, (grandchildren[0][j], grandchildren[1][j])))
    return package.make_vector_node(level + 1,
                                    (new_children[0], new_children[1]))


def _swap_matrix_block(package: Package, edge: Edge, level: int) -> Edge:
    grandchildren = [
        _virtual_children(package, child, 4, level)
        for child in _virtual_children(package, edge, 4, level + 1)
    ]
    new_children = []
    for outer in range(4):  # (row, col) bits of the variable moving up
        inner_children = tuple(grandchildren[inner][outer]
                               for inner in range(4))
        new_children.append(package.make_matrix_node(level, inner_children))
    return package.make_matrix_node(level + 1, tuple(new_children))


def swap_adjacent_levels(package: Package, edge: Edge, level: int,
                         size: int | None = None) -> Edge:
    """Exchange the variables at ``level`` and ``level + 1``.

    Works for vector and matrix DDs.  The result represents the same
    object re-indexed: bit ``level`` and bit ``level + 1`` of every basis
    index trade places.

    ``size`` is the nominal qubit count; it defaults to the root level
    plus one.  A DD with any level gap -- including a root below
    ``size - 1`` -- raises :class:`ValueError`: DDs are quasi-reduced
    without gaps, so a gap means corruption, and silently treating it as
    identity would build a wrong diagram.
    """
    if edge.weight == 0:
        return edge
    root_level = edge.node.level
    top = root_level if size is None else size - 1
    if level < 0 or level + 1 > top:
        raise ValueError(f"cannot swap levels {level}/{level + 1} in a DD "
                         f"of height {top + 1} (root at level {root_level})")
    if root_level < top:
        raise _gap_error(top, root_level)
    matrix = _is_matrix(edge)
    if root_level > level + 1:
        return package._scaled(
            _swap_above(package, edge.node, level, matrix, {}), edge.weight)
    return package._scaled(_swap_under(package, edge.node, level, matrix),
                           edge.weight)


def _swap_under(package: Package, node, level: int, matrix: bool) -> Edge:
    """Swap the window under a node at ``level + 1``."""
    swap_block = _swap_matrix_block if matrix else _swap_vector_block
    return swap_block(package, Edge(node, 1 + 0j), level)


def _swap_above(package: Package, node, level: int, matrix: bool,
                cache: dict[int, Edge]) -> Edge:
    """Rebuild a node above the swap window with the window swapped.

    Module level, with the memo as an argument: a self-calling closure
    would keep the package alive in a reference cycle.
    """
    found = cache.get(id(node))
    if found is not None:
        return found
    children = []
    for child in node.edges:
        if child.weight == 0:
            children.append(package.zero)
            continue
        child_level = child.node.level
        if child_level > level + 1:
            children.append(package._scaled(
                _swap_above(package, child.node, level, matrix, cache),
                child.weight))
        elif child_level == level + 1:
            children.append(package._scaled(
                _swap_under(package, child.node, level, matrix),
                child.weight))
        else:
            raise _gap_error(node.level - 1, child_level)
    make_node = package.make_matrix_node if matrix \
        else package.make_vector_node
    result = make_node(node.level, tuple(children))
    cache[id(node)] = result
    return result


def apply_index_permutation(index: int, permutation: Sequence[int]) -> int:
    """Move bit ``q`` of ``index`` to position ``permutation[q]``.

    This is the measurement-remap direction: when a DD was reordered with
    ``permutation`` (original qubit ``q`` now lives on level
    ``permutation[q]``), the amplitude of logical basis state ``x`` is the
    reordered DD's amplitude at ``apply_index_permutation(x, permutation)``.
    """
    result = 0
    for source, target in enumerate(permutation):
        if (index >> source) & 1:
            result |= 1 << target
    return result


def permute_qubits(package: Package, edge: Edge,
                   permutation: Sequence[int],
                   size: int | None = None) -> Edge:
    """Reorder a DD so the variable at level ``q`` moves to level
    ``permutation[q]``.

    ``permutation`` must be a permutation of ``0 .. size - 1`` (``size``
    defaults to the root level plus one).  The returned DD satisfies
    ``amplitude(new, apply_index_permutation(x, p)) == amplitude(old, x)``
    (and the matrix analogue for both indices).  The DD must be exactly
    ``size`` levels tall (see :func:`swap_adjacent_levels`).
    """
    if edge.weight == 0:
        return edge
    root_level = edge.node.level
    if size is None:
        size = root_level + 1
    permutation = list(permutation)
    if sorted(permutation) != list(range(size)):
        raise ValueError(f"not a permutation of 0..{size - 1}: "
                         f"{permutation}")
    if root_level + 1 > size:
        raise ValueError(f"DD rooted at level {root_level} is taller than "
                         f"the declared size {size}")
    if root_level + 1 != size:
        raise _gap_error(size - 1, root_level)
    # positions[level] = original variable currently living at `level`
    positions = list(range(size))
    target_of = dict(enumerate(permutation))
    current = edge
    # Selection-sort by adjacent swaps: bubble each variable to its target,
    # processing targets from the top level downward.
    for target in range(size - 1, -1, -1):
        wanted = next(source for source, destination in target_of.items()
                      if destination == target)
        where = positions.index(wanted)
        while where < target:
            current = swap_adjacent_levels(package, current, where,
                                           size=size)
            positions[where], positions[where + 1] = \
                positions[where + 1], positions[where]
            where += 1
    return current


def sift(package: Package, edge: Edge, max_growth: float = 2.0,
         num_qubits: int | None = None) -> tuple[Edge, list[int]]:
    """Rudell sifting: greedily search a better variable order.

    Each variable is bubbled through every position; it stays at the
    position minimising the total node count.  A move is abandoned early if
    the diagram grows beyond ``max_growth`` times its best size.

    Returns ``(reordered_edge, permutation)`` where ``permutation[q]`` is
    the new level of original qubit ``q``
    (see :func:`apply_index_permutation`).  The returned diagram is never
    larger than the input (the best diagram seen is the input itself when
    no move improves on it), and the permutation always has one entry per
    qubit -- ``num_qubits`` pins that length for zero/terminal edges,
    whose own height is ambiguous (it defaults to the root level plus
    one).
    """
    if num_qubits is not None and num_qubits < 0:
        raise ValueError(f"num_qubits must be >= 0, got {num_qubits}")
    size = num_qubits if num_qubits is not None \
        else max(edge.node.level + 1, 0)
    if edge.weight == 0 or edge.node.level < 1 or size < 2:
        return edge, list(range(size))
    if edge.node.level + 1 > size:
        raise ValueError(f"DD rooted at level {edge.node.level} is taller "
                         f"than the declared num_qubits {size}")
    if edge.node.level + 1 != size:
        raise _gap_error(size - 1, edge.node.level)
    current = edge
    positions = list(range(size))  # positions[level] = original variable

    def swap_at(diagram: Edge, level: int) -> Edge:
        positions[level], positions[level + 1] = \
            positions[level + 1], positions[level]
        return swap_adjacent_levels(package, diagram, level, size=size)

    for variable in range(size):
        best_nodes = package.count_nodes(current)
        level = positions.index(variable)
        best_diagram = current
        best_positions = list(positions)
        # sweep down to the bottom
        working = current
        for down in range(level, 0, -1):
            working = swap_at(working, down - 1)
            nodes = package.count_nodes(working)
            if nodes < best_nodes:
                best_nodes = nodes
                best_diagram = working
                best_positions = list(positions)
            if nodes > max_growth * best_nodes:
                break
        # back up and sweep to the top
        bottom = positions.index(variable)
        for up in range(bottom, size - 1):
            working = swap_at(working, up)
            nodes = package.count_nodes(working)
            if nodes < best_nodes:
                best_nodes = nodes
                best_diagram = working
                best_positions = list(positions)
            if nodes > max_growth * best_nodes:
                break
        current = best_diagram
        positions = best_positions
    permutation = [0] * size
    for level, variable in enumerate(positions):
        permutation[variable] = level
    return current, permutation
