"""Decision-diagram backends: the paper's simulators behind the protocol.

Three adapters share one engine-backed skeleton:

``dd`` (:class:`DDFastBackend`)
    The recursive object-node core: each gate is one Eq. 1 step, its
    cached gate DD times the state, with the identity shortcut on.
    Supports mid-run reordering and checkpoints.

``dd-matrix`` (:class:`DDMatrixBackend`)
    The paper's explicit matrix pathway: every operation becomes a matrix
    DD and the *strategy* decides the MxV/MxM multiplication schedule
    (sequential, ``k=N``, ``smax=N``, ``adaptive``, ``repeating``).

``dd-iterative`` (:class:`DDIterativeBackend`)
    The flat-array worklist kernel (``Package(kernel="iterative")``) --
    the fastest path on the bench workloads.

:meth:`Backend.run` routes through
:meth:`~repro.simulation.engine.SimulationEngine.simulate`, so traces,
checkpoints, degradation and reordering all keep working.
"""

from __future__ import annotations

from random import Random

from ..circuit.circuit import QuantumCircuit
from ..dd.package import Package
from ..simulation.engine import SimulationEngine
from ..simulation.memory import DEFAULT_NODE_LIMIT, MemoryGovernor
from ..simulation.result import SimulationResult
from ..simulation.strategies import strategy_from_spec
from .base import Backend, BackendCapabilities, BackendResult

__all__ = ["DDBackendResult", "DDFastBackend", "DDIterativeBackend",
           "DDMatrixBackend"]


class DDBackendResult(BackendResult):
    """Protocol view over a DD :class:`SimulationResult`.

    Queries delegate to the permutation-aware result (DD traversals, no
    densification); ``fidelity_with`` short-circuits to the package-level
    DD inner product when both sides share a package.
    """

    def __init__(self, result: SimulationResult) -> None:
        super().__init__(result.num_qubits, result.statistics)
        self.result = result
        self.permutation = result.permutation

    def amplitude(self, basis_index: int) -> complex:
        return self.result.amplitude(basis_index)

    def probabilities(self) -> list[float]:
        return self.result.probabilities()

    def fidelity_with(self, other: BackendResult) -> float:
        if isinstance(other, DDBackendResult) and \
                self.result.package is other.result.package:
            return self.result.fidelity_with(other.result)
        return super().fidelity_with(other)

    def sample_dd(self, shots: int, rng: Random | None = None) \
            -> dict[int, int]:
        """DD-native sampling (never densifies; large registers)."""
        return self.result.sample(shots, rng)


class _EngineBackend(Backend):
    """Shared skeleton: an engine per run, strategy/option validation."""

    default_strategy = "sequential"

    def __init__(self, gc_limit: int | None = None,
                 max_nodes: int | None = None) -> None:
        self.gc_limit = gc_limit
        self.max_nodes = max_nodes

    # -- engine construction (per run: DD node identity is engine-local) -

    def _governor(self) -> MemoryGovernor | None:
        if self.gc_limit is None and self.max_nodes is None:
            return None
        return MemoryGovernor(node_limit=self.gc_limit or DEFAULT_NODE_LIMIT,
                              max_nodes=self.max_nodes)

    def _make_engine(self) -> SimulationEngine:
        raise NotImplementedError

    def run(self, circuit: QuantumCircuit, strategy: str | None = None,
            initial_index: int = 0, **run_options) -> BackendResult:
        capabilities = self.capabilities()
        spec = strategy or self.default_strategy
        if spec != "sequential" and not capabilities.strategies:
            raise ValueError(
                f"backend {self.name!r} does not support strategy "
                f"schedules (requested {spec!r})")
        options = {key: value for key, value in run_options.items()
                   if value is not None}
        if "reorder" in options and not capabilities.reorder:
            raise ValueError(f"backend {self.name!r} does not support "
                             f"mid-run reordering")
        if ("checkpoint_path" in options or "checkpoint_every" in options) \
                and not capabilities.checkpoint:
            raise ValueError(f"backend {self.name!r} does not support "
                             f"checkpointing")
        engine = self._make_engine()
        result = engine.simulate(
            circuit, strategy_from_spec(spec),
            initial_state=engine.initial_state(circuit.num_qubits,
                                               initial_index),
            backend_label=self.name, **options)
        return DDBackendResult(result)


class DDFastBackend(_EngineBackend):
    """Recursive core: one gate DD times the state per gate."""

    name = "dd"

    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(
            reorder=True, checkpoint=True,
            description="recursive DD core: one gate DD times the state "
                        "per gate; reordering and checkpoints")

    def _make_engine(self) -> SimulationEngine:
        return SimulationEngine(governor=self._governor())


class DDMatrixBackend(_EngineBackend):
    """Explicit matrix-DD pathway under a paper strategy schedule."""

    name = "dd-matrix"

    def __init__(self, strategy: str = "sequential",
                 gc_limit: int | None = None,
                 max_nodes: int | None = None) -> None:
        super().__init__(gc_limit=gc_limit, max_nodes=max_nodes)
        self.default_strategy = strategy

    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(
            strategies=True, checkpoint=True,
            description="matrix-DD pathway: every gate becomes a matrix "
                        "DD; MxV/MxM schedule chosen by the strategy "
                        "(sequential, k=N, smax=N, adaptive, repeating)")

    def _make_engine(self) -> SimulationEngine:
        return SimulationEngine.paper_literal(governor=self._governor())


class DDIterativeBackend(_EngineBackend):
    """Flat-array worklist kernel (``Package(kernel="iterative")``)."""

    name = "dd-iterative"

    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(
            checkpoint=True,
            description="iterative flat-array DD kernel: worklist "
                        "traversal, local-gate path, canonical add "
                        "caching, dense-block cutover; fastest on the "
                        "bench workloads")

    def _make_engine(self) -> SimulationEngine:
        return SimulationEngine(package=Package(kernel="iterative"),
                                governor=self._governor())
