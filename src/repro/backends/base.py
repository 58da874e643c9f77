"""The backend protocol: every way this repo can compute the same state.

A :class:`Backend` turns a circuit into a :class:`BackendResult` through
one call, :meth:`Backend.run`.  The DD adapters route it through the full
:class:`~repro.simulation.engine.SimulationEngine` (checkpoints,
reordering, degradation, strategies); the dense adapter loops over the
gates itself.  Every result answers the same queries -- ``amplitude`` /
``probabilities`` / ``sample`` / ``fidelity_with`` -- so two backends can
always be cross-checked, which is exactly what
:mod:`repro.verification.fuzz` does continuously.

:class:`BackendCapabilities` is the honest feature matrix: callers ask it
before requesting reordering, checkpoints or strategy scheduling instead
of discovering a ``TypeError`` three layers down.
"""

from __future__ import annotations

import abc
from dataclasses import asdict, dataclass

import numpy as np

from ..baseline.statevector import sample_probabilities
from ..circuit.circuit import QuantumCircuit
from ..simulation.statistics import SimulationStatistics

__all__ = ["ArrayResult", "Backend", "BackendCapabilities", "BackendResult",
           "MAX_DENSE_QUBITS"]

#: largest register ``BackendResult.statevector`` will materialise densely
#: (2^24 complex128 amplitudes = 256 MiB); fidelity checks and sampling on
#: bigger registers must use backend-native paths
MAX_DENSE_QUBITS = 24


@dataclass(frozen=True)
class BackendCapabilities:
    """What a backend supports beyond plain sequential simulation."""

    #: honours paper strategy schedules (k-operations, DD-repeating, ...)
    strategies: bool = False
    #: supports mid-run variable reordering (``reorder=`` run option)
    reorder: bool = False
    #: supports checkpoint/resume (``checkpoint_path`` / ``resume``)
    checkpoint: bool = False
    #: supports noisy-channel simulation (density-matrix path)
    noise: bool = False
    #: hard qubit ceiling imposed by the representation (``None`` = bounded
    #: only by memory -- the DD adapters; dense arrays cap out early)
    max_qubits: int | None = None
    description: str = ""

    def as_dict(self) -> dict:
        return asdict(self)


class BackendResult(abc.ABC):
    """Uniform query interface over a finished simulation.

    Subclasses implement :meth:`amplitude`; everything else has a default
    built on it (dense adapters override with vectorised versions, DD
    adapters with traversal-based ones that never densify).
    """

    def __init__(self, num_qubits: int,
                 statistics: SimulationStatistics) -> None:
        self.num_qubits = num_qubits
        self.statistics = statistics
        #: variable permutation after mid-run reordering (DD adapters
        #: stamp the real one; ``None`` means identity order)
        self.permutation: list[int] | None = None

    @abc.abstractmethod
    def amplitude(self, basis_index: int) -> complex:
        """Amplitude of one computational basis state (logical indexing:
        bit ``q`` of ``basis_index`` is qubit ``q``)."""

    def statevector(self) -> np.ndarray:
        """The full dense state (guarded against huge registers)."""
        if self.num_qubits > MAX_DENSE_QUBITS:
            raise ValueError(
                f"refusing to densify a {self.num_qubits}-qubit state "
                f"(> {MAX_DENSE_QUBITS} qubits); use amplitude() or the "
                f"backend-native queries")
        return np.array([self.amplitude(i)
                         for i in range(1 << self.num_qubits)],
                        dtype=complex)

    def probabilities(self) -> list[float]:
        """Measurement distribution over all basis states."""
        vector = self.statevector()
        return [float(p) for p in np.abs(vector) ** 2]

    def probability(self, basis_index: int) -> float:
        return abs(self.amplitude(basis_index)) ** 2

    def sample(self, shots: int, rng=None) -> dict[int, int]:
        """Sample ``shots`` measurement outcomes.

        Uses inverse-CDF sampling over :meth:`probabilities`
        (:func:`~repro.baseline.statevector.sample_probabilities`), so for
        the same ``rng`` state two correct backends draw identical
        outcomes -- handy for differential checks on the sampling path
        itself.
        """
        return sample_probabilities(self.probabilities(), shots, rng)

    def fidelity_with(self, other: "BackendResult") -> float:
        """``|<self|other>|^2`` -- the differential-fuzzing oracle."""
        if self.num_qubits != other.num_qubits:
            raise ValueError(
                f"qubit count mismatch: {self.num_qubits} vs "
                f"{other.num_qubits}")
        inner = np.vdot(self.statevector(), other.statevector())
        return float(abs(inner) ** 2)


class ArrayResult(BackendResult):
    """Result backed by a flat dense amplitude array (little-endian:
    bit ``q`` of the flat index is qubit ``q``, matching the rest of the
    repo)."""

    def __init__(self, vector: np.ndarray, num_qubits: int,
                 statistics: SimulationStatistics) -> None:
        super().__init__(num_qubits, statistics)
        self._vector = np.asarray(vector, dtype=complex).reshape(-1)
        if self._vector.shape != (1 << num_qubits,):
            raise ValueError(
                f"vector of length {self._vector.size} does not match "
                f"{num_qubits} qubits")

    def amplitude(self, basis_index: int) -> complex:
        return complex(self._vector[basis_index])

    def statevector(self) -> np.ndarray:
        return self._vector.copy()

    def probabilities(self) -> list[float]:
        return [float(p) for p in np.abs(self._vector) ** 2]


class Backend(abc.ABC):
    """One way to simulate a circuit; register it to join the fuzz pool.

    Implementations validate the requested strategy and run options
    against :meth:`capabilities` up front, then simulate the whole
    circuit in :meth:`run`.
    """

    #: registry name; set by subclasses
    name: str = ""

    @abc.abstractmethod
    def capabilities(self) -> BackendCapabilities:
        """Feature matrix used for up-front validation and ``auto``."""

    @abc.abstractmethod
    def run(self, circuit: QuantumCircuit, strategy: str | None = None,
            initial_index: int = 0, **run_options) -> BackendResult:
        """Simulate ``circuit`` from the basis state ``|initial_index>``.

        ``strategy`` and ``run_options`` (``reorder=``,
        ``checkpoint_path=``, ...) must be rejected with a
        :class:`ValueError` when :meth:`capabilities` does not cover them.
        """
