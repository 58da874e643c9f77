"""Dense array-based Schrödinger simulator (the conventional comparator).

This is the "array-based simulation" the paper contrasts DDs with: the state
is a dense ``2^n`` numpy vector and every gate is applied by updating the
amplitudes it touches.  It is exponential in memory by construction and used
here (a) as ground truth to validate the DD simulator on small systems and
(b) as the conventional baseline in benchmark sanity checks.

Gates are applied by axis slicing: the flat vector is viewed as an
``n``-qubit tensor of shape ``(2,) * n``, the target axis is moved to the
front, the control axes are pinned to their required values, and the 2x2
matrix updates the two resulting sub-tensors in place -- one pass over at
most ``2^n`` amplitudes per gate, with no index arrays and no ``2^n x 2^n``
unitary.  Index convention (little-endian): bit ``q`` of a flat basis index
is qubit ``q``, so qubit ``q`` is tensor axis ``n - 1 - q`` of the C-order
reshape.
"""

from __future__ import annotations

from random import Random

import numpy as np

from ..circuit.circuit import QuantumCircuit
from ..circuit.operation import Operation

__all__ = ["StatevectorSimulator", "apply_operation",
           "sample_probabilities", "simulate_statevector"]


def apply_operation(state: np.ndarray, operation: Operation,
                    num_qubits: int) -> np.ndarray:
    """Apply one (multi-)controlled single-qubit gate to a dense state.

    ``state`` is the flat ``2^num_qubits`` vector and is updated in place
    (and returned); it must be C-contiguous so the tensor reshape is a view.
    """
    if not state.flags.c_contiguous:
        raise ValueError("state must be a C-contiguous array: it is "
                         "updated in place through a reshaped view")
    if operation.max_qubit() >= num_qubits:
        # a qubit past the register would map to a negative axis and
        # silently update the wrong qubit
        raise ValueError(f"operation {operation} exceeds {num_qubits} "
                         f"qubits")
    tensor = state.reshape((2,) * num_qubits)
    # qubit q <-> axis n-1-q; move the target axis first, the control axes
    # right behind it, then pin the controls to their values -- sub[:1] /
    # sub[1:] are writable views of the target=0/1 slices of the controlled
    # subspace (slices, not sub[0] / sub[1]: a gate on every qubit of the
    # register would otherwise yield 0-d views, whose arithmetic takes
    # numpy's scalar path and can differ from the array loops in the last
    # bit)
    axes = [num_qubits - 1 - operation.target]
    values = []
    for qubit, value in operation.controls:
        axes.append(num_qubits - 1 - qubit)
        values.append(value)
    moved = np.moveaxis(tensor, axes, range(len(axes)))
    sub = moved[(slice(None), *values)]
    u = operation.matrix()
    a0 = sub[:1].copy()
    a1 = sub[1:].copy()
    sub[:1] = u[0, 0] * a0 + u[0, 1] * a1
    sub[1:] = u[1, 0] * a0 + u[1, 1] * a1
    return state


def sample_probabilities(probabilities, shots: int,
                         rng=None) -> dict[int, int]:
    """Sample ``shots`` basis outcomes from a measurement distribution.

    Inverse-CDF sampling over the normalised cumulative sum, so for the
    same ``rng`` state two correct simulators draw identical outcomes.
    Rounding can leave the cumulative sum just short of 1; a draw past its
    end is clamped to the last outcome of non-zero probability, never an
    index outside the register.  ``rng`` may be a :class:`random.Random`
    or a numpy generator (both provide ``random()``).
    """
    if shots < 0:
        raise ValueError(f"shots must be >= 0, got {shots}")
    rng = rng or np.random.default_rng()
    probabilities = np.asarray(probabilities, dtype=float)
    total = probabilities.sum()
    if total <= 0:
        raise ValueError("state has zero norm; nothing to sample")
    cumulative = np.cumsum(probabilities / total)
    last = int(np.flatnonzero(probabilities)[-1])
    counts: dict[int, int] = {}
    for _ in range(shots):
        outcome = int(np.searchsorted(cumulative, rng.random(), side="right"))
        outcome = min(outcome, last)
        counts[outcome] = counts.get(outcome, 0) + 1
    return counts


class StatevectorSimulator:
    """Minimal dense statevector simulator with the same gate model."""

    def __init__(self, num_qubits: int) -> None:
        self.num_qubits = num_qubits
        self.state = np.zeros(1 << num_qubits, dtype=complex)
        self.state[0] = 1.0

    def set_basis_state(self, index: int) -> None:
        self.state[:] = 0
        self.state[index] = 1.0

    def apply(self, operation: Operation) -> None:
        apply_operation(self.state, operation, self.num_qubits)

    def run(self, circuit: QuantumCircuit) -> np.ndarray:
        if circuit.num_qubits != self.num_qubits:
            raise ValueError("circuit size does not match simulator size")
        for operation in circuit.operations():
            self.apply(operation)
        return self.state

    def probabilities(self) -> np.ndarray:
        return np.abs(self.state) ** 2

    def measure_qubit(self, qubit: int, rng: Random) -> int:
        """Measure one qubit, collapse the state, return the outcome."""
        mask = 1 << qubit
        indices = np.arange(self.state.shape[0])
        p_one = float(np.sum(np.abs(self.state[(indices & mask) != 0]) ** 2))
        outcome = 1 if rng.random() < p_one else 0
        keep = ((indices & mask) != 0) == bool(outcome)
        probability = p_one if outcome else 1.0 - p_one
        self.state[~keep] = 0
        self.state /= np.sqrt(probability)
        return outcome

    def sample(self, shots: int, rng: Random) -> dict[int, int]:
        return sample_probabilities(self.probabilities(), shots, rng)


def simulate_statevector(circuit: QuantumCircuit,
                         initial_index: int = 0) -> np.ndarray:
    """Convenience: dense final state of ``circuit`` from a basis state."""
    simulator = StatevectorSimulator(circuit.num_qubits)
    simulator.set_basis_state(initial_index)
    return simulator.run(circuit)
