"""Linear-size construction of gate DDs.

An elementary quantum operation acts on one target qubit, possibly guarded by
control qubits; every other qubit realises the identity.  The corresponding
``2^n x 2^n`` matrix therefore has a DD of *linear* size -- one node per
qubit (paper Sec. III and ref. [25]).  This module builds those DDs directly,
without ever materialising the exponential matrix:

* below the target, each of the four entry sub-DDs of the 2x2 gate matrix is
  expanded with identity nodes (or control nodes);
* the target level combines the four entry sub-DDs into one node;
* above the target, identity / control nodes are stacked up to the root.

Controls may sit above or below the target and may be *positive* (active on
``|1>``) or *negative* (active on ``|0>``).
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from .edge import Edge
from .package import Package

__all__ = ["build_gate_dd", "build_diagonal_dd", "build_two_level_dd"]


def build_gate_dd(package: Package, matrix, num_qubits: int, target: int,
                  controls: Mapping[int, int] | Sequence | None = None) -> Edge:
    """Build the DD of a (multi-)controlled single-qubit gate.

    Parameters
    ----------
    matrix:
        The 2x2 unitary acting on ``target``, as any nested sequence or
        numpy array indexable as ``matrix[row][col]``.
    num_qubits:
        Total qubit count of the resulting DD.
    target:
        Qubit the gate acts on.
    controls:
        Either a mapping ``{qubit: active_value}`` (1 = positive control,
        0 = negative control) or a sequence of qubits / ``(qubit, value)``
        pairs.  Positive is assumed for bare qubit entries.
    """
    control_map = package._normalise_control_spec(controls)
    if not 0 <= target < num_qubits:
        raise ValueError(f"target {target} out of range for {num_qubits} qubits")
    if target in control_map:
        raise ValueError(f"qubit {target} cannot be both target and control")
    for qubit in control_map:
        if not 0 <= qubit < num_qubits:
            raise ValueError(f"control {qubit} out of range for "
                             f"{num_qubits} qubits")

    zero = package.zero
    # The four entry sub-DDs of the 2x2 gate, indexed 2*row + col.
    entries = [package.terminal_edge(complex(matrix[r][c]))
               for r in (0, 1) for c in (0, 1)]

    # Levels below the target: expand with identity, or insert controls.
    for level in range(target):
        active = control_map.get(level)
        if active is None:
            entries = [
                e if e.weight == 0
                else package.make_matrix_node(level, (e, zero, zero, e))
                for e in entries
            ]
        else:
            identity_below = package.identity(level)
            new_entries = []
            for index, e in enumerate(entries):
                inactive = identity_below if index in (0, 3) else zero
                if active == 1:
                    children = (inactive, zero, zero, e)
                else:
                    children = (e, zero, zero, inactive)
                new_entries.append(package.make_matrix_node(level, children))
            entries = new_entries

    edge = package.make_matrix_node(
        target, (entries[0], entries[1], entries[2], entries[3]))

    # Levels above the target: identity or control nodes up to the root.
    for level in range(target + 1, num_qubits):
        active = control_map.get(level)
        if active is None:
            edge = package.make_matrix_node(level, (edge, zero, zero, edge))
        else:
            identity_below = package.identity(level)
            if active == 1:
                children = (identity_below, zero, zero, edge)
            else:
                children = (edge, zero, zero, identity_below)
            edge = package.make_matrix_node(level, children)
    return edge


def build_diagonal_dd(package: Package, phases, num_qubits: int) -> Edge:
    """Build the DD of a diagonal matrix from a callable or sequence.

    ``phases`` maps a basis index (``0 .. 2^n - 1``) to the diagonal entry.
    Shared suffix structure is merged automatically by the unique table, so
    e.g. a Grover phase oracle (all entries 1 except one -1) has a DD of
    linear size.
    """
    if callable(phases):
        entry = phases
    else:
        values = list(phases)
        if len(values) != 1 << num_qubits:
            raise ValueError(
                f"need {1 << num_qubits} diagonal entries, got {len(values)}")
        entry = values.__getitem__
    return _build_diagonal(package, entry, num_qubits - 1, 0)


def build_two_level_dd(package: Package, num_qubits: int, index_a: int,
                       index_b: int, matrix) -> Edge:
    """Build the DD of a two-level unitary mixing basis states ``a`` and ``b``.

    The result acts as ``matrix`` on ``span{|a>, |b>}`` and as identity
    elsewhere -- the textbook building block for arbitrary unitaries and a
    useful test generator.
    """
    if index_a == index_b:
        raise ValueError("two-level unitary needs two distinct basis states")
    if not (0 <= index_a < 1 << num_qubits and 0 <= index_b < 1 << num_qubits):
        raise ValueError("basis indices out of range")
    a, b = sorted((index_a, index_b))
    u = [[complex(matrix[r][c]) for c in (0, 1)] for r in (0, 1)]
    if index_a != a:  # caller listed them in the other order
        u = [[u[1][1], u[1][0]], [u[0][1], u[0][0]]]
    return _build_two_level(package, a, b, u, num_qubits - 1, 0, 0)


# Module-level builders: a self-calling closure would keep the package
# alive in a reference cycle until the cyclic collector runs.

def _build_diagonal(package: Package, entry, level: int,
                    prefix: int) -> Edge:
    if level < 0:
        return package.terminal_edge(complex(entry(prefix)))
    low = _build_diagonal(package, entry, level - 1, prefix)
    high = _build_diagonal(package, entry, level - 1, prefix | (1 << level))
    return package.make_matrix_node(
        level, (low, package.zero, package.zero, high))


def _two_level_entry(a: int, b: int, u, row: int, col: int) -> complex:
    if row == a and col == a:
        return u[0][0]
    if row == a and col == b:
        return u[0][1]
    if row == b and col == a:
        return u[1][0]
    if row == b and col == b:
        return u[1][1]
    return 1 + 0j if row == col else 0j


def _contains(prefix: int, level: int, index: int) -> bool:
    """Whether basis ``index`` lies in the block selected by ``prefix``."""
    span = 1 << (level + 1)
    return prefix <= index < prefix + span


def _build_two_level(package: Package, a: int, b: int, u, level: int,
                     row_prefix: int, col_prefix: int) -> Edge:
    diagonal_block = row_prefix == col_prefix
    touched = (_contains(row_prefix, level, a)
               or _contains(row_prefix, level, b)
               or _contains(col_prefix, level, a)
               or _contains(col_prefix, level, b))
    if diagonal_block and not touched:
        return package.identity(level + 1)
    if not diagonal_block:
        crosses = ((_contains(row_prefix, level, a)
                    and _contains(col_prefix, level, b))
                   or (_contains(row_prefix, level, b)
                       and _contains(col_prefix, level, a)))
        if not crosses:
            # Off-diagonal block that cannot hold any of the four special
            # entries: it is all zeros.
            return package.zero
    if level < 0:
        return package.terminal_edge(
            _two_level_entry(a, b, u, row_prefix, col_prefix))
    children = []
    for row_bit in (0, 1):
        for col_bit in (0, 1):
            children.append(_build_two_level(
                package, a, b, u, level - 1,
                row_prefix | (row_bit << level),
                col_prefix | (col_bit << level)))
    return package.make_matrix_node(level, tuple(children))
