"""Expectation values of observables on state DDs.

Computing ``<psi| O |psi>`` is a matrix-vector multiplication followed by
an inner product -- both native DD operations.  For the common case of
Pauli-string observables the operator DD is linear in the qubit count (one
node per qubit, exactly like a gate DD), so expectation values cost one
cheap MxV against the state.  Diagonal observables (e.g. Ising/MaxCut cost
functions) avoid even that: their expectation is a weighted traversal of
the state DD's probability mass.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping

import numpy as np

from .edge import Edge
from .package import Package

__all__ = ["PAULI_MATRICES", "pauli_string_dd", "expectation_value",
           "pauli_expectation", "diagonal_expectation"]

PAULI_MATRICES: dict[str, np.ndarray] = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def pauli_string_dd(package: Package, pauli: str | Mapping[int, str],
                    num_qubits: int) -> Edge:
    """Matrix DD of a Pauli string.

    ``pauli`` is either a string like ``"XZY"`` read *most-significant
    qubit first* (so ``"XZ"`` on two qubits puts X on qubit 1 and Z on
    qubit 0), or a mapping ``{qubit: "X"|"Y"|"Z"}`` with identity
    everywhere else.  The resulting DD has one node per qubit.
    """
    if isinstance(pauli, str):
        if len(pauli) != num_qubits:
            raise ValueError(f"Pauli string of length {len(pauli)} does not "
                             f"match {num_qubits} qubits")
        per_qubit = {num_qubits - 1 - i: letter.upper()
                     for i, letter in enumerate(pauli)}
    else:
        per_qubit = {int(q): letter.upper() for q, letter in pauli.items()}
        for qubit in per_qubit:
            if not 0 <= qubit < num_qubits:
                raise ValueError(f"qubit {qubit} out of range")
    edge = package.one
    for level in range(num_qubits):
        letter = per_qubit.get(level, "I")
        matrix = PAULI_MATRICES.get(letter)
        if matrix is None:
            raise ValueError(f"unknown Pauli letter {letter!r}")
        children = tuple(
            package._scaled(edge, complex(matrix[row, col]))
            for row in (0, 1) for col in (0, 1)
        )
        edge = package.make_matrix_node(level, children)
    return edge


def expectation_value(package: Package, observable: Edge,
                      state: Edge) -> complex:
    """``<state| observable |state>`` for an arbitrary matrix DD."""
    transformed = package.multiply_matrix_vector(observable, state)
    return package.inner_product(state, transformed)


def pauli_expectation(package: Package, pauli: str | Mapping[int, str],
                      state: Edge, num_qubits: int) -> float:
    """Expectation of a Pauli string; real by hermiticity."""
    observable = pauli_string_dd(package, pauli, num_qubits)
    return expectation_value(package, observable, state).real


def diagonal_expectation(package: Package, state: Edge,
                         value: Callable[[int], float]) -> float:
    """``sum_x |amp(x)|^2 * value(x)`` without touching a matrix DD.

    ``value`` maps a basis index to the observable's diagonal entry (e.g. a
    MaxCut cut size).  Because ``value`` may depend on *all* bits of the
    index, the traversal enumerates the DD's non-zero amplitude paths: cheap
    for structured states (basis states, GHZ, Grover, Shor), exponential
    for dense superpositions -- use :func:`pauli_expectation` there.
    """
    if state.weight == 0:
        raise ValueError("zero state has no expectation values")
    return _diagonal_walk(state.node, 0, abs(state.weight) ** 2, value, 0.0)


def _diagonal_walk(node, prefix: int, probability: float,
                   value: Callable[[int], float], total: float) -> float:
    """``total`` plus the weighted ``value`` of every path under ``node``.

    Module level: a self-calling closure would outlive the call in a
    reference cycle.  The running total is threaded through, so leaves are
    added in path order, one at a time.
    """
    if probability == 0.0:
        return total
    if node.level == -1:
        return total + probability * value(prefix)
    for bit, child in enumerate(node.edges):
        if child.weight != 0:
            total = _diagonal_walk(child.node, prefix | (bit << node.level),
                                   probability * abs(child.weight) ** 2,
                                   value, total)
    return total
