"""Direct DD construction from functional specifications.

This module is the backbone of the paper's *DD-construct* strategy
(Sec. IV-B): instead of composing a Boolean oracle from hundreds of
elementary gate DDs (each requiring a matrix-matrix or matrix-vector
multiplication), the unitary of the oracle is built *directly* from its
functional specification.  For reversible Boolean blocks -- such as the
modular-multiplication components ``U_{a^{2^i}}`` of Shor's algorithm -- the
unitary is a permutation matrix, and its DD can be constructed in
``O(n * 2^n)`` steps with full sub-structure sharing, with **no**
multiplications at all and **no** working/ancilla qubits.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from .edge import Edge
from .package import Package

__all__ = [
    "build_permutation_dd",
    "build_controlled_permutation_dd",
    "controlled_unitary_dd",
    "modular_multiplication_permutation",
]


def _as_permutation(perm, size: int) -> list[int]:
    if callable(perm):
        table = [perm(i) for i in range(size)]
    else:
        table = list(perm)
    if len(table) != size:
        raise ValueError(f"permutation must have {size} entries, "
                         f"got {len(table)}")
    if sorted(table) != list(range(size)):
        raise ValueError("mapping is not a permutation (not a bijection on "
                         f"0..{size - 1}); a non-reversible function has no "
                         "unitary permutation matrix")
    return table


def build_permutation_dd(package: Package,
                         perm: Callable[[int], int] | Sequence[int],
                         num_qubits: int) -> Edge:
    """Build the matrix DD of the permutation unitary ``|perm(x)> <x|``.

    ``perm`` maps each input basis index (column) to its output basis index
    (row) and must be a bijection on ``0 .. 2^num_qubits - 1``.

    The construction recurses over column ranges, keeping one partial block
    per distinct output-row prefix, so the work is proportional to the number
    of *distinct* blocks rather than to the full ``4^n`` entry count, and all
    structure sharing happens automatically through the unique table.
    """
    size = 1 << num_qubits
    table = _as_permutation(perm, size)
    blocks = _permutation_blocks(package, table, num_qubits - 1, 0)
    if list(blocks.keys()) != [0]:
        raise AssertionError("permutation DD construction must yield exactly "
                             "the root block")  # pragma: no cover
    return blocks[0]


def _permutation_blocks(package: Package, table: list[int], level: int,
                        col_base: int) -> dict[int, Edge]:
    """Blocks for columns ``[col_base, col_base + 2^(level+1))``.

    Returns ``{row_prefix: block_edge}`` where ``row_prefix`` is aligned to
    the block span and only non-zero blocks are present.  A module-level
    function rather than a nested one: a self-calling closure forms a
    reference cycle that keeps ``package`` alive until the cyclic
    collector runs.
    """
    if level < 0:
        return {table[col_base]: package.one}
    span = 1 << level
    left = _permutation_blocks(package, table, level - 1, col_base)
    right = _permutation_blocks(package, table, level - 1, col_base + span)
    blocks: dict[int, Edge] = {}
    prefixes = {p & ~(2 * span - 1) for p in left} \
        | {p & ~(2 * span - 1) for p in right}
    for prefix in prefixes:
        children = []
        for row_bit in (0, 1):
            sub_prefix = prefix | (row_bit * span)
            children.append(left.get(sub_prefix, package.zero))
            children.append(right.get(sub_prefix, package.zero))
        blocks[prefix] = package.make_matrix_node(level, tuple(children))
    return blocks


def build_controlled_permutation_dd(package: Package,
                                    perm: Callable[[int], int] | Sequence[int],
                                    num_qubits: int,
                                    num_controls: int = 1) -> Edge:
    """Permutation DD on ``num_qubits`` qubits, controlled by the qubits above.

    The permutation acts on qubits ``0 .. num_qubits-1``; the control qubits
    occupy levels ``num_qubits .. num_qubits + num_controls - 1`` (all
    positive controls).  This is exactly the shape needed for the
    semiclassical controlled-``U_{a^{2^i}}`` steps of Shor's algorithm.
    """
    if num_controls < 0:
        raise ValueError("num_controls must be non-negative")
    edge = build_permutation_dd(package, perm, num_qubits)
    for level in range(num_qubits, num_qubits + num_controls):
        identity_below = package.identity(level)
        edge = package.make_matrix_node(
            level, (identity_below, package.zero, package.zero, edge))
    return edge


def controlled_unitary_dd(package: Package, unitary: Edge,
                          num_qubits_total: int, control: int) -> Edge:
    """Wrap a matrix DD as a controlled operation on a wider register.

    ``unitary`` acts on qubits ``0 .. m-1`` (its root level is ``m - 1``);
    the result acts on ``num_qubits_total`` qubits, applies ``unitary`` when
    qubit ``control`` is ``|1>`` (identity otherwise), and realises the
    identity on all remaining qubits.  ``control`` must lie above the
    unitary's register (``control >= m``) -- the natural shape for phase
    estimation, where counting qubits sit above the work register.
    """
    if unitary.weight == 0:
        raise ValueError("cannot control the zero matrix")
    bottom = unitary.node.level + 1
    if not bottom <= control < num_qubits_total:
        raise ValueError(
            f"control {control} must lie in [{bottom}, "
            f"{num_qubits_total - 1}] above the {bottom}-qubit unitary")
    # identity levels between the unitary and the control
    active = unitary
    for level in range(bottom, control):
        active = package.make_matrix_node(
            level, (active, package.zero, package.zero, active))
    edge = package.make_matrix_node(
        control,
        (package.identity(control), package.zero, package.zero, active))
    for level in range(control + 1, num_qubits_total):
        edge = package.make_matrix_node(
            level, (edge, package.zero, package.zero, edge))
    return edge


def modular_multiplication_permutation(a: int, modulus: int,
                                       num_qubits: int) -> list[int]:
    """The permutation ``x -> a*x mod N`` (identity for ``x >= N``).

    This is the functional specification of Shor's modular-exponentiation
    building block.  ``a`` must be coprime to ``modulus`` for the map to be a
    bijection, and ``modulus <= 2^num_qubits`` so every residue fits in the
    register.
    """
    import math

    if modulus <= 1:
        raise ValueError("modulus must be at least 2")
    if math.gcd(a, modulus) != 1:
        raise ValueError(f"a={a} is not coprime to N={modulus}; "
                         "x -> a*x mod N would not be reversible")
    size = 1 << num_qubits
    if modulus > size:
        raise ValueError(f"modulus {modulus} does not fit in "
                         f"{num_qubits} qubits")
    a = a % modulus
    return [(a * x) % modulus if x < modulus else x for x in range(size)]
