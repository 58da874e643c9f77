"""Dense statevector backend: the ground-truth comparator as an adapter.

Runs :func:`repro.baseline.statevector.apply_operation` (axis-sliced
gate application, O(2^n) per gate) behind the
:class:`~repro.backends.base.Backend` protocol.  Exponential in memory by
construction (one flat ``2^n`` array), exact for every gate in the model,
and the default *reference* side of the differential fuzzer.
"""

from __future__ import annotations

import time

import numpy as np

from ..baseline.statevector import apply_operation
from ..circuit.circuit import QuantumCircuit
from ..circuit.operation import Operation
from ..simulation.statistics import SimulationStatistics
from .base import ArrayResult, Backend, BackendCapabilities, BackendResult

__all__ = ["DenseBackend"]

#: flat-array representation: 2^26 complex128 amplitudes = 1 GiB
_DENSE_QUBIT_LIMIT = 26


class DenseBackend(Backend):
    """Flat-array Schrödinger simulation (exact, memory-exponential)."""

    name = "dense"

    def __init__(self, max_qubits: int = _DENSE_QUBIT_LIMIT) -> None:
        self.max_qubits = max_qubits

    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(
            max_qubits=self.max_qubits,
            description="dense statevector baseline: one flat 2^n array, "
                        "gates applied by axis slicing, exact ground truth "
                        "for small registers")

    def run(self, circuit: QuantumCircuit, strategy: str | None = None,
            initial_index: int = 0, **run_options) -> BackendResult:
        if strategy not in (None, "sequential"):
            raise ValueError(
                f"backend {self.name!r} does not support strategy "
                f"schedules (requested {strategy!r}); it always applies "
                f"gates sequentially")
        unsupported = sorted(k for k, v in run_options.items()
                             if v is not None)
        if unsupported:
            raise ValueError(
                f"backend {self.name!r} does not support run option(s) "
                f"{', '.join(unsupported)}")
        num_qubits = circuit.num_qubits
        if num_qubits > self.max_qubits:
            raise ValueError(
                f"backend {self.name!r} is capped at {self.max_qubits} "
                f"qubits; circuit {circuit.name!r} has {num_qubits}")
        if not 0 <= initial_index < (1 << num_qubits):
            raise ValueError(
                f"initial basis index {initial_index} out of range for "
                f"{num_qubits} qubits")
        statistics = SimulationStatistics(
            strategy="sequential", circuit_name=circuit.name,
            num_qubits=num_qubits, backend=self.name)
        started = time.perf_counter()
        state = np.zeros(1 << num_qubits, dtype=complex)
        state[initial_index] = 1.0
        for operation in circuit.operations():
            self.apply(state, operation, num_qubits)
            statistics.operations_applied += 1
            statistics.matrix_vector_mults += 1
        statistics.wall_time_seconds = time.perf_counter() - started
        return ArrayResult(state, num_qubits, statistics)

    def apply(self, state: np.ndarray, operation: Operation,
              num_qubits: int) -> None:
        """Apply one operation to the flat state in place (the hook a
        deliberately broken test backend overrides)."""
        apply_operation(state, operation, num_qubits)
