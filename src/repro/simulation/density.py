"""Exact open-system simulation: density matrices as matrix DDs.

The trajectory sampler (:mod:`repro.simulation.noise`) converges to the
true noisy state only statistically; this module computes it *exactly* by
evolving the density matrix -- which is just another ``2^n x 2^n`` matrix,
so the existing matrix-DD machinery (MxM multiplication, addition,
adjoints) does all the work:

* unitary evolution:   ``rho -> U rho U^dagger``   (two MxM products)
* Kraus channels:      ``rho -> sum_k K_k rho K_k^dagger``
* readout:             probabilities are the diagonal entries.

The standard single-qubit channels (depolarising, bit/phase flip,
amplitude damping) are provided as Kraus sets; the depolarising channel at
rate ``p`` matches the trajectory model's uniform-Pauli error, which the
test suite exploits to cross-validate both implementations.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from ..circuit.circuit import QuantumCircuit
from ..circuit.operation import Operation
from ..dd.edge import Edge
from ..dd.gate_building import build_gate_dd
from ..dd.package import Package

__all__ = ["DensityMatrixSimulator", "depolarizing_kraus", "bit_flip_kraus",
           "phase_flip_kraus", "amplitude_damping_kraus", "partial_trace"]

_ID = np.eye(2)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def depolarizing_kraus(probability: float) -> list[np.ndarray]:
    """Uniform Pauli error with total probability ``p`` (X, Y, Z at p/3).

    This is exactly the channel the trajectory noise model samples from.
    """
    _check_probability(probability)
    p3 = probability / 3.0
    return [math.sqrt(1 - probability) * _ID,
            math.sqrt(p3) * _X, math.sqrt(p3) * _Y, math.sqrt(p3) * _Z]


def bit_flip_kraus(probability: float) -> list[np.ndarray]:
    _check_probability(probability)
    return [math.sqrt(1 - probability) * _ID,
            math.sqrt(probability) * _X]


def phase_flip_kraus(probability: float) -> list[np.ndarray]:
    _check_probability(probability)
    return [math.sqrt(1 - probability) * _ID,
            math.sqrt(probability) * _Z]


def amplitude_damping_kraus(gamma: float) -> list[np.ndarray]:
    """Energy relaxation ``|1> -> |0>`` with probability ``gamma``."""
    _check_probability(gamma)
    k0 = np.array([[1, 0], [0, math.sqrt(1 - gamma)]], dtype=complex)
    k1 = np.array([[0, math.sqrt(gamma)], [0, 0]], dtype=complex)
    return [k0, k1]


def _check_probability(value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"probability must be in [0, 1], got {value}")


def partial_trace(package: Package, rho: Edge, qubit: int) -> Edge:
    """Trace out one qubit of a density-matrix DD.

    Returns the reduced density matrix on the remaining qubits (levels
    above ``qubit`` shift down by one).  The reduced state of one half of a
    Bell pair, for instance, is the maximally mixed single-qubit state.
    """
    if rho.weight == 0:
        return rho
    if not 0 <= qubit <= rho.node.level:
        raise ValueError(f"qubit {qubit} out of range")
    return package._scaled(_reduce(package, rho.node, qubit, {}), rho.weight)


def _reduce(package: Package, node, qubit: int,
            cache: dict[int, Edge]) -> Edge:
    """The sub-matrix under ``node`` with ``qubit`` traced out.

    Module level, with the memo as an argument: a self-calling closure
    would keep the package alive in a reference cycle.
    """
    found = cache.get(id(node))
    if found is not None:
        return found
    if node.level == qubit:
        # Tr over this level: rho00 + rho11 quadrants
        result = package.add_matrices(node.edges[0], node.edges[3])
    else:
        children = []
        for child in node.edges:
            if child.weight == 0:
                children.append(package.zero)
            else:
                children.append(package._scaled(
                    _reduce(package, child.node, qubit, cache),
                    child.weight))
        result = package.make_matrix_node(node.level - 1, tuple(children))
    cache[id(node)] = result
    return result


def _diag_trace(node, cache: dict[int, complex]) -> complex:
    """The trace of the sub-matrix under ``node`` (diagonal quadrants only).

    Module level, with the memo as an argument: a self-calling closure
    would keep the memo alive in a reference cycle.
    """
    if node.level == -1:
        return 1 + 0j
    found = cache.get(id(node))
    if found is not None:
        return found
    total = 0j
    for child in (node.edges[0], node.edges[3]):
        if child.weight != 0:
            total += child.weight * _diag_trace(child.node, cache)
    cache[id(node)] = total
    return total


class DensityMatrixSimulator:
    """Evolves a density-matrix DD through gates and Kraus channels."""

    def __init__(self, num_qubits: int,
                 package: Package | None = None) -> None:
        if num_qubits < 1:
            raise ValueError("need at least one qubit")
        self.num_qubits = num_qubits
        self.package = package or Package()
        self.rho = self._pure_basis_density(0)

    # ------------------------------------------------------------------

    def _pure_basis_density(self, index: int) -> Edge:
        """``|index><index|`` built directly (one node chain)."""
        package = self.package
        edge = package.one
        for level in range(self.num_qubits):
            bit = (index >> level) & 1
            zero = package.zero
            children = (edge, zero, zero, zero) if bit == 0 \
                else (zero, zero, zero, edge)
            edge = package.make_matrix_node(level, children)
        return edge

    def set_basis_state(self, index: int) -> None:
        if not 0 <= index < 1 << self.num_qubits:
            raise ValueError(f"basis index {index} out of range")
        self.rho = self._pure_basis_density(index)

    # ------------------------------------------------------------------

    def apply_operation(self, operation: Operation) -> None:
        """Unitary step: ``rho -> U rho U^dagger``."""
        package = self.package
        u = build_gate_dd(package, operation.matrix(), self.num_qubits,
                          operation.target, operation.control_map())
        u_dagger = package.conjugate_transpose(u)
        self.rho = package.multiply_matrix_matrix(
            u, package.multiply_matrix_matrix(self.rho, u_dagger))

    def apply_kraus(self, kraus: Sequence[np.ndarray],
                    qubit: int) -> None:
        """Single-qubit channel: ``rho -> sum_k K rho K^dagger``."""
        package = self.package
        if not kraus:
            raise ValueError("channel needs at least one Kraus operator")
        completeness = sum(np.conj(k).T @ k for k in kraus)
        if not np.allclose(completeness, np.eye(2), atol=1e-9):
            raise ValueError("Kraus operators do not satisfy "
                             "sum K^dagger K = I")
        total = package.zero
        for k in kraus:
            operator = build_gate_dd(package, k, self.num_qubits, qubit)
            adjoint = package.conjugate_transpose(operator)
            term = package.multiply_matrix_matrix(
                operator, package.multiply_matrix_matrix(self.rho, adjoint))
            total = package.add_matrices(total, term)
        self.rho = total

    def run(self, circuit: QuantumCircuit,
            channel: Sequence[np.ndarray] | None = None) -> None:
        """Apply a circuit; optionally a per-qubit channel after each gate."""
        if circuit.num_qubits != self.num_qubits:
            raise ValueError("circuit size does not match simulator size")
        for operation in circuit.operations():
            self.apply_operation(operation)
            if channel is not None:
                for qubit in operation.qubits():
                    self.apply_kraus(channel, qubit)

    # ------------------------------------------------------------------

    def probability(self, index: int) -> float:
        """Diagonal entry ``<index| rho |index>``."""
        package = self.package
        weight = self.rho.weight
        node = self.rho.node
        while node.level != -1:
            if weight == 0:
                return 0.0
            bit = (index >> node.level) & 1
            child = node.edges[2 * bit + bit]
            weight *= child.weight
            node = child.node
        return max(0.0, weight.real)

    def probabilities(self) -> list[float]:
        return [self.probability(i) for i in range(1 << self.num_qubits)]

    def trace(self) -> float:
        """``Tr(rho)`` -- must stay 1 under trace-preserving evolution."""
        return sum(self.probabilities())

    def purity(self) -> float:
        """``Tr(rho^2)``: 1 for pure states, 1/2^n for maximal mixing."""
        package = self.package
        squared = package.multiply_matrix_matrix(self.rho, self.rho)
        if squared.weight == 0:
            return 0.0
        return (squared.weight * _diag_trace(squared.node, {})).real

    def expectation_diagonal(self, value) -> float:
        """``sum_x P(x) value(x)`` for a diagonal observable."""
        return sum(self.probability(i) * value(i)
                   for i in range(1 << self.num_qubits))

    def nodes(self) -> int:
        return self.package.count_nodes(self.rho)
