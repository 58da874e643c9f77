"""The simulation engine.

Owns the DD package, builds gate DDs (with caching -- a circuit applying the
same Hadamard a thousand times builds its DD once), drives a
:class:`~repro.simulation.strategies.SimulationStrategy` over a circuit, and
records statistics.  Memory is governed by a
:class:`~repro.simulation.memory.MemoryGovernor`: when the package's unique
tables outgrow the governor's threshold, everything not reachable from the
run's roots (state, pending product, combined block DDs) is freed --
and when a collection turns out to be futile (the working set itself has
outgrown the threshold) the governor grows the threshold instead of
re-collecting every step.  An opt-in ``trace`` callback streams per-step
telemetry (see :mod:`repro.simulation.trace`).

Long runs get a **resilience layer** on top:

* ``checkpoint_path`` / ``checkpoint_every`` write atomic, resumable
  snapshots (see :mod:`repro.simulation.checkpoint`) periodically and on
  :class:`~repro.simulation.memory.MemoryBudgetExceeded` or
  ``KeyboardInterrupt``; :meth:`SimulationEngine.resume` continues a
  checkpointed run bit-exactly.
* ``degradation`` (a :class:`~repro.simulation.memory.DegradationPolicy`)
  answers a hard budget overrun with fidelity-bounded state pruning before
  giving up.
* ``audit_every`` runs the package's integrity auditor
  (:meth:`Package.check_invariants <repro.dd.package.Package.check_invariants>`)
  every K completed operations, failing fast on structural corruption.

Every run goes through one driver, :meth:`SimulationEngine._run_ops`.  It
walks ``circuit.instructions``, feeds each elementary operation to the
strategy, and hands a strategy that reuses blocks (DD-repeating) one pass
of a repeated block at a time.  Positions count the *flattened* elementary
operations (``circuit.operations()`` order) either way, so a checkpoint's
operation index is well defined for every strategy, and plain, audited,
checkpointed and resumed runs make the same MxV/MxM schedule.
"""

from __future__ import annotations

import gc
import time
from itertools import groupby
from typing import Callable

from ..circuit.circuit import QuantumCircuit, RepeatedBlock
from ..circuit.mapping import permute_operation
from ..circuit.operation import Operation
from ..dd.approximation import prune_to_node_budget
from ..dd.edge import Edge
from ..dd.kernel import DenseState, FlatEdge
from ..dd.gate_building import build_gate_dd
from ..dd.package import Package
from ..dd.reordering import permute_qubits, sift
from ..dd.serialization import deserialize_dd, serialize_dd
from .checkpoint import (Checkpoint, circuit_fingerprint, load_checkpoint,
                         save_checkpoint)
from .memory import DegradationPolicy, MemoryBudgetExceeded, MemoryGovernor
from .reorder import ReorderPolicy, reorder_from_spec
from .result import SimulationResult
from .statistics import SimulationStatistics
from .strategies import (SequentialStrategy, SimulationStrategy,
                         strategy_from_spec)

__all__ = ["SimulationEngine", "cyclic_gc_paused"]


class cyclic_gc_paused:
    """Pause Python's cyclic collector for a block; restore the caller's state.

    DDs are acyclic (nodes only reference lower levels), so reference
    counting reclaims everything and the cyclic collector only adds
    passes over every live DD object to an allocation-heavy loop.  Nested
    pauses are no-ops, so a driver that runs many simulations (Shor's 2n
    segments) pauses once around all of them.  The collector is
    re-enabled last on exit, also when the block raises, so no collection
    starts inside the block.
    """

    def __enter__(self) -> None:
        self._was_enabled = gc.isenabled()
        gc.disable()

    def __exit__(self, *exc_info) -> None:
        if self._was_enabled:
            gc.enable()


def _record_state_size(statistics: SimulationStatistics, package: Package,
                       state: Edge) -> None:
    """Record a state's size: a DD's node count in ``peak_state_nodes``,
    a dense block's amplitude capacity in ``peak_dense_amps``."""
    if type(state) is DenseState:
        statistics.record_dense_size(state.size_proxy())
    else:
        statistics.record_state_size(package.count_nodes(state))


class _Run:
    """Mutable state of one simulation run, shared with the strategy."""

    def __init__(self, engine: "SimulationEngine", num_qubits: int,
                 state: Edge, statistics: SimulationStatistics,
                 trace: Callable[[dict], None] | None = None,
                 degradation: DegradationPolicy | None = None,
                 reorder: ReorderPolicy | None = None) -> None:
        self.engine = engine
        self.package = engine.package
        self.num_qubits = num_qubits
        self.state = state
        self.statistics = statistics
        self.trace = trace
        self.degradation = degradation
        self.reorder = reorder
        #: the strategy driving this run (set by ``_execute``; the
        #: reordering hook needs to call back into it)
        self.strategy: SimulationStrategy | None = None
        #: cumulative variable permutation: ``permutation[q]`` is the DD
        #: level original qubit ``q`` currently lives on (None = identity)
        self.permutation: list[int] | None = None
        #: ``id(original op) -> (original, remapped)`` under the current
        #: permutation; the value pins the original so ids stay valid.
        #: Cleared on every reorder.
        self._remap_cache: dict[int, tuple[Operation, Operation]] = {}
        #: whether the most recent collection grew the governor threshold
        #: (the futile-collection memory-pressure signal)
        self._collection_grew = False
        self._pending: Edge | None = None
        self._extra_roots: list[Edge] = []
        #: a freshly combined product, rooted across the collection that
        #: :meth:`combine` may trigger before the strategy adopts it
        self._combine_guard: Edge | None = None
        #: last consistent boundary of a checkpointed run -- what an
        #: exception-time checkpoint is written from
        self._last_good: tuple | None = None

    # -- operations the strategies use ---------------------------------

    def map_operation(self, operation: Operation) -> Operation:
        """The operation relabelled through the run's current permutation.

        Identity (no reorder yet) returns the operation unchanged; after a
        sift every circuit operation is translated to the reordered
        levels.  Remapped operations are cached per original (cleared at
        each reorder) so the engine's id-keyed gate caches stay hot.
        """
        permutation = self.permutation
        if permutation is None:
            return operation
        entry = self._remap_cache.get(id(operation))
        if entry is not None and entry[0] is operation:
            return entry[1]
        remapped = permute_operation(operation, permutation)
        self._remap_cache[id(operation)] = (operation, remapped)
        return remapped

    def gate_dd(self, operation: Operation) -> Edge:
        """The operation's matrix DD on the full register (cached).

        The operation is remapped through the run's permutation first, so
        strategies keep feeding *original* circuit operations after a
        reorder.
        """
        return self.engine.gate_dd(self.map_operation(operation),
                                   self.num_qubits)

    def apply_matrix(self, matrix: Edge, gate: str = "matrix") -> None:
        """One simulation step: ``state <- matrix x state`` (Eq. 1 step).

        ``gate`` names the step in the trace: the operation's gate for an
        elementary step, ``"matrix"`` for a combined product.
        """
        self.state = self.package.multiply_matrix_vector(matrix, self.state)
        self.statistics.matrix_vector_mults += 1
        self.statistics.record_state_size(
            self.package.count_nodes(self.state))
        self.engine.maybe_collect(self)
        if self.trace is not None:
            self._trace_step(gate)

    def apply_operation(self, operation: Operation) -> None:
        """One elementary simulation step (Eq. 1).

        A state held as object nodes (every state of the recursive
        kernel) takes the step as the operation's gate DD times the state
        (:meth:`apply_matrix`).  With ``use_local_apply`` on, the iterative
        kernel's flat states and dense blocks take the kernel's local-gate
        path instead (:meth:`Package.apply_gate
        <repro.dd.package.Package.apply_gate>`), which builds no n-qubit
        gate DD.  Either way it counts as one Eq. 1 step, and its trace
        ``step`` names the operation's gate.
        """
        operation = self.map_operation(operation)
        if type(self.state) is Edge or not self.engine.use_local_apply:
            self.apply_matrix(self.engine.gate_dd(operation,
                                                  self.num_qubits),
                              operation.gate)
            return
        matrix, controls = self.engine.local_gate_spec(operation)
        self.state = self.package.apply_gate(
            self.state, matrix, operation.target, controls)
        self.statistics.matrix_vector_mults += 1
        self.statistics.local_gate_applications += 1
        _record_state_size(self.statistics, self.package, self.state)
        self.engine.maybe_collect(self)
        if self.trace is not None:
            self._trace_step(operation.gate)

    def _trace_step(self, gate: str) -> None:
        """Emit one ``step`` trace event (see :mod:`repro.simulation.trace`).

        A dense block has no DD nodes: its step reports ``state_nodes`` 0
        and its amplitude capacity in ``dense_amps``, as the statistics
        split ``peak_state_nodes`` and ``peak_dense_amps``.  Hit rates are
        the ``cache_stats()`` compute rows, which fold the iterative
        kernel's memos into the object core's tables.
        """
        package = self.package
        compute = package.cache_stats()["compute"]
        pending = self._pending
        state = self.state
        dense = type(state) is DenseState
        self.trace({
            "event": "step",
            "op_index": self.statistics.matrix_vector_mults - 1,
            "gate": gate,
            "state_nodes": 0 if dense else package.count_nodes(state),
            "dense_amps": state.size_proxy() if dense else 0,
            "product_nodes": package.count_nodes(pending)
            if pending is not None else 0,
            "live_nodes": package.live_node_count(),
            "apply_gate_hit_rate": compute["apply_gate"]["hit_rate"],
            "mult_mv_hit_rate": compute["mult_mv"]["hit_rate"],
        })

    def combine(self, later: Edge, earlier: Edge) -> Edge:
        """Combine two operation matrices: ``later @ earlier`` (Eq. 2 step).

        Combining is governed like state updates are: a long accumulation
        streak can blow the memory budget without ever touching the state,
        so the governor (and degradation pruning) runs here too.  The
        fresh product is pinned as a root for the duration -- the strategy
        has not adopted it as pending yet.  A governed *reorder* permutes
        the pinned product in place, so the guard is re-read after the
        collection rather than returning the stale pre-reorder local.
        """
        product = self.package.multiply_matrix_matrix(later, earlier)
        self.statistics.matrix_matrix_mults += 1
        self.statistics.record_matrix_size(
            self.package.count_nodes(product))
        self._combine_guard = product
        try:
            self.engine.maybe_collect(self)
            product = self._combine_guard
        finally:
            self._combine_guard = None
        return product

    def note_operation(self, count: int = 1) -> None:
        self.statistics.operations_applied += count

    def set_pending(self, product: Edge | None) -> None:
        """Tell the engine which product must survive garbage collection."""
        self._pending = product

    def add_root(self, edge: Edge) -> None:
        """Pin an extra DD (e.g. a combined block matrix) across collections."""
        self._extra_roots.append(edge)

    def roots(self) -> list[Edge]:
        roots = [self.state]
        if self._pending is not None:
            roots.append(self._pending)
        if self._combine_guard is not None:
            roots.append(self._combine_guard)
        roots.extend(self._extra_roots)
        return roots


class SimulationEngine:
    """Simulates quantum circuits on decision diagrams.

    Parameters
    ----------
    package:
        The DD package to use; a fresh one is created when omitted.  Sharing
        a package across runs lets results be compared with
        :meth:`SimulationResult.fidelity_with` and re-uses gate DDs.
    use_local_apply:
        When true (the default), elementary operations fed by the sequential
        pathway to an iterative-kernel state (flat DD or dense block) are
        applied with the kernel's local-gate path (:meth:`Package.apply_gate`),
        which never builds the n-qubit gate DD.  A state held as object
        nodes always takes the paper's Eq. 1 step, the gate DD times the
        state.  Disable to put every state on that pathway, e.g. for the
        paper-artifact experiments.
    governor:
        Memory policy: the garbage-collection threshold, grown
        geometrically after ineffective collections, and an optional hard
        ``max_nodes`` budget (which raises
        :class:`~repro.simulation.memory.MemoryBudgetExceeded` instead of
        grinding).  The default collects past
        :data:`~repro.simulation.memory.DEFAULT_NODE_LIMIT` nodes and has
        no budget.

    Gate DDs are cached per operation like the compute tables cache
    results: the cache pins nothing across a garbage collection, and a
    collection that frees nodes clears it.

    The state is measured after every simulation step and once more
    after the final solidify, so ``peak_state_nodes`` is the exact DD
    peak and at least ``final_state_nodes``.  A step that leaves the
    state as an iterative-kernel dense block records the block's
    amplitude capacity in ``peak_dense_amps`` instead.  Measuring is
    cheap: ``Package.count_nodes`` walks each distinct object root once
    and stores the count on it.
    """

    def __init__(self, package: Package | None = None,
                 use_local_apply: bool = True,
                 governor: MemoryGovernor | None = None) -> None:
        self.package = package or Package()
        self.governor = governor if governor is not None \
            else MemoryGovernor()
        self.use_local_apply = use_local_apply
        self._gate_cache: dict[tuple[Operation, int], Edge] = {}
        # 2x2 entries + control map per operation for the local-gate path
        # (skips the numpy matrix construction on every application).
        # Keyed by id() -- the operation objects live in the circuit, and
        # the values keep a reference so ids stay valid; hashing a frozen
        # dataclass on every application is measurably slower.
        self._local_gate_cache: dict[int, tuple] = {}

    @classmethod
    def paper_literal(cls, governor: MemoryGovernor | None = None,
                      kernel: str = "recursive") -> "SimulationEngine":
        """An engine on the paper's cost model.

        Every gate becomes an explicit gate DD and one matrix-vector
        multiplication on both kernels (no local-gate path), and
        multiplications recurse through identity padding like any other
        sub-matrix (``Package(identity_shortcut=False)``), so the
        machine-independent recursion counts are the ones the paper's
        figures count.
        """
        return cls(package=Package(identity_shortcut=False, kernel=kernel),
                   use_local_apply=False, governor=governor)

    # ------------------------------------------------------------------

    def gate_dd(self, operation: Operation, num_qubits: int) -> Edge:
        """Build (or fetch) the full-register matrix DD of an operation."""
        key = (operation, num_qubits)
        cached = self._gate_cache.get(key)
        if cached is None:
            cached = build_gate_dd(self.package, operation.matrix(),
                                   num_qubits, operation.target,
                                   operation.control_map())
            self._gate_cache[key] = cached
        return cached

    def local_gate_spec(self, operation: Operation) -> tuple:
        """``(2x2 entries, control map)`` of an operation, cached."""
        spec = self._local_gate_cache.get(id(operation))
        if spec is None:
            m = operation.matrix()
            matrix = ((complex(m[0][0]), complex(m[0][1])),
                      (complex(m[1][0]), complex(m[1][1])))
            # Hashable controls so Package.apply_gate can memoise the fully
            # prepared gate spec across thousands of applications.
            controls = tuple(sorted(operation.control_map().items()))
            spec = (operation, matrix, controls)
            self._local_gate_cache[id(operation)] = spec
        return spec[1], spec[2]

    def initial_state(self, num_qubits: int, basis_index: int = 0) -> Edge:
        return self.package.basis_state(num_qubits, basis_index)

    def simulate(self, circuit: QuantumCircuit,
                 strategy: SimulationStrategy | None = None,
                 initial_state: Edge | None = None,
                 trace: Callable[[dict], None] | None = None,
                 checkpoint_path: str | None = None,
                 checkpoint_every: int | None = None,
                 degradation: DegradationPolicy | None = None,
                 audit_every: int | None = None,
                 reorder: ReorderPolicy | str | None = None,
                 on_op: Callable[[int], None] | None = None,
                 backend_label: str = ""
                 ) -> SimulationResult:
        """Run ``circuit`` under ``strategy`` (sequential baseline by default).

        ``backend_label`` stamps the producing backend's registry name into
        the run's statistics (and thus every checkpoint snapshot); direct
        engine calls leave it empty.

        ``trace``, when given, receives one dict per simulation step and
        per garbage collection (schema in :mod:`repro.simulation.trace`;
        pass a :class:`~repro.simulation.trace.JsonlTraceSink` to stream
        to disk).  Tracing re-measures the state DD every step, so leave
        it off for timing runs.

        Resilience options (all off by default; a run without a
        ``checkpoint_path`` takes no boundary snapshots):

        ``checkpoint_path``
            Where checkpoints are written (atomically).  On
            :class:`~repro.simulation.memory.MemoryBudgetExceeded` or
            ``KeyboardInterrupt`` a final checkpoint is written there
            before the exception propagates (the former carries the path
            as ``exc.checkpoint_path``).
        ``checkpoint_every``
            Additionally checkpoint every N completed elementary
            operations.  Requires ``checkpoint_path``.
        ``degradation``
            A :class:`~repro.simulation.memory.DegradationPolicy`: when
            the governor's hard ``max_nodes`` budget is still exceeded
            after a collection, prune the state DD within the policy's
            fidelity floor before giving up.
        ``audit_every``
            Run :meth:`Package.assert_invariants
            <repro.dd.package.Package.assert_invariants>` every K
            completed operations -- structural corruption fails the run
            at the step that caused it instead of corrupting the result.
        ``reorder``
            A :class:`~repro.simulation.reorder.ReorderPolicy` or spec
            string (``"off"``, ``"governor"``, ``"every=K"``).  Governed
            sifting shrinks the state DD mid-run *before* degradation gets
            to prune; the remaining circuit operations are
            remapped on the fly and the result carries the cumulative
            permutation so measurements stay in logical qubit order.
        ``on_op``
            A cheap per-op-boundary callback ``on_op(op_index)`` -- no DD
            measurement happens on its account (unlike ``trace``).  It
            fires once per flattened elementary operation with its global
            index, after the unit holding it completes.  Exceptions it
            raises propagate like in-run failures (budget aborts still
            write their on-failure checkpoint).  This is the attachment
            point for cooperative deadlines, worker heartbeats, and fault
            injection (:mod:`repro.service.faults`).

        All runs share one driver, so these options never change the
        MxV/MxM schedule.  A unit is one elementary operation, or one
        pass of a repeated block under :class:`RepeatingBlockStrategy
        <repro.simulation.strategies.RepeatingBlockStrategy>`, which
        applies the pass as one combined matrix; checkpoints, audits and
        ``on_op`` fall between units.
        """
        strategy = strategy or SequentialStrategy()
        state = initial_state if initial_state is not None \
            else self.initial_state(circuit.num_qubits)
        return self._execute(circuit, strategy, state, trace,
                             checkpoint_path=checkpoint_path,
                             checkpoint_every=checkpoint_every,
                             degradation=degradation,
                             audit_every=audit_every,
                             reorder=reorder_from_spec(reorder),
                             on_op=on_op,
                             backend_label=backend_label)

    def resume(self, checkpoint: Checkpoint | str, circuit: QuantumCircuit,
               trace: Callable[[dict], None] | None = None,
               checkpoint_path: str | None = None,
               checkpoint_every: int | None = None,
               degradation: DegradationPolicy | None = None,
               audit_every: int | None = None,
               reorder: ReorderPolicy | str | None = None,
               on_op: Callable[[int], None] | None = None
               ) -> SimulationResult:
        """Continue a checkpointed run; bit-exact with the uninterrupted run.

        ``checkpoint`` is a :class:`~repro.simulation.checkpoint.Checkpoint`
        or a path to one.  ``circuit`` must be the checkpointed circuit
        (same flattened operation stream); the fingerprint is verified and
        a mismatch raises :class:`ValueError` -- resuming against the
        wrong circuit would silently produce garbage otherwise.

        The strategy is rebuilt from the checkpoint's spec, its mid-run
        state (combining counters, pending product DD) restored, and the
        returned result's statistics continue the checkpointed run's
        accumulated numbers.  When ``degradation`` is given, its cumulative
        fidelity picks up where the checkpointed run left off, so the
        fidelity floor holds across the whole logical run.

        A checkpoint taken after a mid-run reorder carries the cumulative
        qubit permutation; the resumed run restores it and keeps remapping
        the remaining operations, so the replay continues under the sifted
        order (pass ``reorder`` again to keep sifting as well).

        The DD-repeating block cache is not checkpointed: a resumed run
        re-combines each block it reaches once more, so its MxM and reused
        counts differ from the uninterrupted run's by that work; MxV and
        operation counts do not.
        """
        if isinstance(checkpoint, str):
            checkpoint = load_checkpoint(checkpoint)
        fingerprint = circuit_fingerprint(circuit)
        if fingerprint != checkpoint.circuit_fingerprint:
            raise ValueError(
                f"checkpoint does not match circuit {circuit.name!r}: "
                f"fingerprint {checkpoint.circuit_fingerprint[:16]}... was "
                f"taken from a different operation stream than "
                f"{fingerprint[:16]}...")
        strategy = strategy_from_spec(checkpoint.strategy_spec)
        # Replay the checkpointed canonical-weight representatives *before*
        # rebuilding any DD: every weight computed from here on then snaps
        # to the same float it would have in the uninterrupted run, which
        # is what makes resumption bit-exact rather than merely close.
        if checkpoint.complex_table:
            self.package.complex_table.load_state_dict(
                checkpoint.complex_table)
        state = self._to_state_store(
            deserialize_dd(self.package, checkpoint.state))
        pending = deserialize_dd(self.package, checkpoint.pending) \
            if checkpoint.pending is not None else None
        base = SimulationStatistics.from_dict(checkpoint.statistics)
        if degradation is not None and checkpoint.degradation is not None:
            degradation.load_state_dict(checkpoint.degradation)
        return self._execute(circuit, strategy, state, trace,
                             checkpoint_path=checkpoint_path,
                             checkpoint_every=checkpoint_every,
                             degradation=degradation,
                             audit_every=audit_every,
                             start_index=checkpoint.op_index,
                             pending=pending,
                             strategy_state=checkpoint.strategy_state,
                             base_statistics=base,
                             reorder=reorder_from_spec(reorder),
                             permutation=checkpoint.permutation,
                             on_op=on_op)

    # ------------------------------------------------------------------

    def _execute(self, circuit: QuantumCircuit, strategy: SimulationStrategy,
                 state: Edge, trace: Callable[[dict], None] | None, *,
                 checkpoint_path: str | None = None,
                 checkpoint_every: int | None = None,
                 degradation: DegradationPolicy | None = None,
                 audit_every: int | None = None,
                 start_index: int = 0,
                 pending: Edge | None = None,
                 strategy_state: dict | None = None,
                 base_statistics: SimulationStatistics | None = None,
                 reorder: ReorderPolicy | None = None,
                 permutation: list[int] | None = None,
                 on_op: Callable[[int], None] | None = None,
                 backend_label: str = ""
                 ) -> SimulationResult:
        """Shared body of :meth:`simulate` and :meth:`resume`."""
        if checkpoint_every is not None:
            if checkpoint_every < 1:
                raise ValueError(f"checkpoint_every must be positive, "
                                 f"got {checkpoint_every}")
            if checkpoint_path is None:
                raise ValueError("checkpoint_every requires checkpoint_path")
        if audit_every is not None and audit_every < 1:
            raise ValueError(f"audit_every must be positive, "
                             f"got {audit_every}")
        statistics = SimulationStatistics(
            strategy=strategy.describe(),
            circuit_name=circuit.name,
            num_qubits=circuit.num_qubits,
            backend=backend_label,
        )
        statistics.resumed_from_op = start_index
        _record_state_size(statistics, self.package, state)
        run = _Run(self, circuit.num_qubits, state, statistics, trace,
                   degradation=degradation, reorder=reorder)
        run.strategy = strategy
        if permutation is not None:
            expected = list(range(circuit.num_qubits))
            if sorted(permutation) != expected:
                raise ValueError(f"checkpoint permutation {permutation} is "
                                 f"not a permutation of 0.."
                                 f"{circuit.num_qubits - 1}")
            if permutation != expected:
                run.permutation = list(permutation)
        counters_before = self.package.counters.snapshot()
        gc_before = self.package.gc_stats.snapshot()
        # Live references for mid-run checkpoints, which must report
        # deltas without waiting for the run to finish.
        run._counters_before = counters_before
        run._gc_before = gc_before
        # Pausing the cyclic collector is worth ~20% wall-clock on
        # sequential simulation (see cyclic_gc_paused).
        with cyclic_gc_paused():
            started = time.perf_counter()
            run._started = started
            try:
                self._run_ops(run, strategy, circuit,
                              start_index=start_index, pending=pending,
                              strategy_state=strategy_state,
                              checkpoint_path=checkpoint_path,
                              checkpoint_every=checkpoint_every,
                              audit_every=audit_every, on_op=on_op)
                # A state that finished on the dense-block fast path
                # materialises back into its canonical DD here, inside the
                # timed region -- callers always receive a DD-backed state.
                ended_dense = type(run.state) is DenseState
                run.state = self.package.solidify(run.state)
            finally:
                statistics.wall_time_seconds = time.perf_counter() - started
        statistics.counters = self.package.counters.delta(counters_before)
        statistics.gc = self.package.gc_stats.delta(gc_before)
        statistics.final_state_nodes = self.package.count_nodes(run.state)
        # A run that ended dense never counted its final DD before.
        statistics.record_state_size(statistics.final_state_nodes)
        if ended_dense and trace is not None:
            trace({
                "event": "solidify",
                "op_index": statistics.matrix_vector_mults - 1,
                "state_nodes": statistics.final_state_nodes,
            })
        self._stamp_coverage_signals(statistics)
        if base_statistics is not None:
            base_statistics.merge(statistics)
            statistics = base_statistics
        return SimulationResult(state=run.state, package=self.package,
                                statistics=statistics,
                                permutation=run.permutation)

    def _stamp_coverage_signals(self, statistics: SimulationStatistics
                                ) -> None:
        """Fold cheap package-level signals into the run's statistics.

        The coverage-guided fuzzer (:mod:`repro.verification.coverage`)
        buckets these to decide whether a case reached engine behaviour no
        earlier case did.  The numbers are cumulative per package, so they
        are per-run only when the engine owns a fresh package (which is how
        every backend adapter and the plan executor build engines).
        """
        cache = self.package.cache_stats()
        rates: dict[str, float] = {}
        for name, table in cache.get("compute", {}).items():
            if table.get("lookups"):
                rates[name] = table["hit_rate"]
        complex_stats = cache.get("complex", {})
        if complex_stats.get("hits") or complex_stats.get("misses"):
            rates["complex"] = complex_stats["hit_rate"]
        statistics.cache_hit_rates = rates
        dense = cache.get("kernel", {}).get("dense", {})
        statistics.dense_cutovers = int(dense.get("cutovers") or 0)

    def _run_ops(self, run: _Run, strategy: SimulationStrategy,
                 circuit: QuantumCircuit, *, start_index: int,
                 pending: Edge | None, strategy_state: dict | None,
                 checkpoint_path: str | None, checkpoint_every: int | None,
                 audit_every: int | None,
                 on_op: Callable[[int], None] | None) -> None:
        """The engine's one driver: walk the circuit a unit at a time.

        A unit is one elementary operation, fed to the strategy, or one
        pass of a top-level :class:`RepeatedBlock` for a strategy with an
        ``apply_pass`` (DD-repeating).  Positions count flattened
        operations either way, so a checkpoint's ``op_index`` means the
        same for every strategy.  A resume index inside a pass (only the
        older op-by-op driver wrote those) feeds the rest of that pass
        operation by operation.

        After each unit a checkpointed run records a boundary snapshot
        (:meth:`_note_boundary`), so an exception anywhere, even
        mid-multiplication, writes its checkpoint from the last
        consistent boundary.  Audits and periodic checkpoints follow once
        per unit that completes a multiple of their period, then
        ``on_op`` once per operation of the unit.
        """
        checkpointing = checkpoint_path is not None
        if checkpointing or start_index:
            total = run._total_ops = circuit.num_operations()
            if start_index > total:
                raise ValueError(
                    f"checkpoint op_index {start_index} exceeds the "
                    f"circuit's {total} elementary operations -- wrong "
                    f"circuit?")
            run._fingerprint = circuit_fingerprint(circuit)
        strategy.begin(run)
        if strategy_state:
            strategy.load_state_dict(strategy_state)
        if pending is not None:
            strategy.restore_pending(run, pending)
        package = self.package
        feed = strategy.feed
        apply_pass = strategy.apply_pass
        watched = checkpointing or audit_every is not None

        def after_unit(first: int, end: int) -> None:
            """Boundary work once operations ``first..end-1`` are done."""
            if checkpointing:
                self._note_boundary(run, strategy, end)
            done, before = end - start_index, first - start_index
            if (audit_every is not None
                    and done // audit_every > before // audit_every):
                package.assert_invariants(run.roots())
                run.statistics.audits_run += 1
            if (checkpoint_every is not None and end < run._total_ops
                    and done // checkpoint_every > before // checkpoint_every):
                self._write_checkpoint(run, strategy, circuit,
                                       checkpoint_path, reason="periodic")
            # after the periodic checkpoint, so a checkpoint-damage fault
            # scheduled at this boundary sees it on disk
            if on_op is not None:
                for index in range(first, end):
                    on_op(index)

        def feed_ops(operations, position: int) -> int:
            """Feed ``operations`` one unit each, from ``position`` on
            (skipping any before the resume index); returns the position
            after them."""
            for operation in operations:
                if position >= start_index:
                    feed(run, operation)
                    if watched:
                        after_unit(position, position + 1)
                    elif on_op is not None:
                        on_op(position)
                position += 1
            return position

        if checkpointing:
            self._note_boundary(run, strategy, start_index)
        try:
            position = 0
            # one feed_ops call per run of elementary operations, not per
            # operation: a Shor segment is ~1 200 cheap top-level gates
            for kind, group in groupby(circuit.instructions, type):
                if kind is not RepeatedBlock:
                    position = feed_ops(group, position)
                    continue
                for block in group:
                    size = sum(1 for _ in block.operations())
                    for _ in range(block.repetitions):
                        end = position + size
                        if apply_pass is not None and position >= start_index:
                            apply_pass(run, block, size)
                            after_unit(position, end)
                        elif end > start_index:
                            feed_ops(block.operations(), position)
                        position = end
            strategy.flush(run)
            if checkpointing:
                self._note_boundary(run, strategy, position)
            if audit_every is not None:
                package.assert_invariants(run.roots())
                run.statistics.audits_run += 1
        except (MemoryBudgetExceeded, KeyboardInterrupt) as exc:
            if checkpointing:
                path = self._write_checkpoint(
                    run, strategy, circuit, checkpoint_path,
                    reason=type(exc).__name__)
                if isinstance(exc, MemoryBudgetExceeded):
                    exc.checkpoint_path = path
            raise

    @staticmethod
    def _note_boundary(run: _Run, strategy: SimulationStrategy,
                       op_index: int) -> None:
        """Snapshot the run at the boundary before operation ``op_index``.

        The snapshot holds plain edge references: nodes are immutable and
        serialisation never consults the unique tables, so they stay
        serialisable even if a later prune collects them.  Statistics are
        snapshotted too: a checkpoint written after a mid-unit exception
        must not count the interrupted (and later replayed) unit.
        """
        run._last_good = (op_index, run.state, run._pending,
                          strategy.state_dict(),
                          run.statistics.as_dict(),
                          list(run.permutation)
                          if run.permutation is not None else None)

    def _write_checkpoint(self, run: _Run, strategy: SimulationStrategy,
                          circuit: QuantumCircuit, path: str,
                          reason: str) -> str:
        """Serialise the last consistent boundary to ``path`` (atomic)."""
        (op_index, state, pending, strategy_state, stats_dict,
         permutation) = run._last_good
        package = self.package
        # Dense blocks are a transient in-run representation; checkpoints
        # always store the canonical DD form.
        state = package.solidify(state)
        pending = package.solidify(pending) if pending is not None else None
        # Statistics snapshot with live counter/gc/time deltas filled in
        # (the run's own record is only finalised when _execute returns).
        snapshot = SimulationStatistics.from_dict(stats_dict)
        snapshot.counters = package.counters.delta(run._counters_before)
        snapshot.gc = package.gc_stats.delta(run._gc_before)
        snapshot.wall_time_seconds = time.perf_counter() - run._started
        snapshot.checkpoints_written = run.statistics.checkpoints_written + 1
        checkpoint = Checkpoint(
            circuit_name=circuit.name,
            circuit_fingerprint=run._fingerprint,
            num_qubits=circuit.num_qubits,
            op_index=op_index,
            total_ops=run._total_ops,
            strategy_spec=strategy.spec(),
            strategy_state=strategy_state,
            state=serialize_dd(state),
            pending=serialize_dd(pending) if pending is not None else None,
            statistics=snapshot.as_dict(),
            complex_table=package.complex_table.state_dict(),
            degradation=run.degradation.state_dict()
            if run.degradation is not None else None,
            governor=self.governor.stats(),
            permutation=permutation,
            reason=reason,
        )
        save_checkpoint(checkpoint, path)
        run.statistics.checkpoints_written += 1
        if run.trace is not None:
            run.trace({
                "event": "checkpoint",
                "op_index": op_index,
                "path": path,
                "reason": reason,
                "state_nodes": package.count_nodes(state),
            })
        return path

    # ------------------------------------------------------------------

    def maybe_collect(self, run: _Run) -> None:
        """Garbage-collect when the governor's threshold is exceeded.

        After a collection the governor inspects the outcome: if the
        *surviving* (fully reachable) working set still exceeds the
        threshold, the threshold grows geometrically so the next steps do
        not re-run a futile mark-sweep -- the fix for the thrash regime
        where a large mostly-reachable package paid a full collection plus
        compute-table wipe on every single step.  When the hard
        ``max_nodes`` budget is breached and the run carries a
        :class:`~repro.simulation.memory.DegradationPolicy`, the state is
        pruned before :meth:`MemoryGovernor.check_budget` gets to raise.

        When the run carries a :class:`ReorderPolicy`, governed sifting
        slots in *between* collection and degradation: a cheaper variable
        order is tried before anything lossy (pruning) or destructive
        (budget abort) happens.  Governor pressure means the live working
        set is over the hard ``max_nodes`` budget after a collection, or
        the collection was futile (the threshold had to grow).

        A package over ``max_nodes`` is collected first, also below the
        threshold (which grows past ``max_nodes`` once the working set
        needs it), so pressure and the budget judge reachable nodes, not
        garbage.
        """
        governor = self.governor
        budget = governor.max_nodes
        live = self.package.live_node_count()
        collection_grew = False
        if governor.should_collect(live) or (budget is not None
                                             and live > budget):
            live = self._collect(run)
            collection_grew = run._collection_grew
        policy = run.reorder
        if policy is not None:
            pressure = collection_grew or (budget is not None
                                           and live > budget)
            if policy.should_reorder(run.statistics.operations_applied,
                                     pressure):
                reason = "cadence" if policy.mode == "every" else "pressure"
                live = self._reorder(run, reason)
        if (run.degradation is not None and budget is not None
                and live > budget):
            live = self._degrade(run, live)
        governor.check_budget(live)

    def _collect(self, run: _Run) -> int:
        """One governed mark-sweep; returns the surviving live-node count."""
        package = self.package
        governor = self.governor
        gc_before = package.gc_stats.snapshot() \
            if run.trace is not None else None
        freed = package.garbage_collect(run.roots())
        if freed:
            # A pure cache, like the compute tables: its gate DDs are not
            # roots, so freed nodes may include some of them.
            self._gate_cache.clear()
        live = package.live_node_count()
        run._collection_grew = governor.note_collection(freed, live)
        if run.trace is not None:
            delta = package.gc_stats.delta(gc_before)
            run.trace({
                "event": "gc",
                "op_index": run.statistics.matrix_vector_mults - 1,
                "nodes_freed": freed,
                "flat_slots_freed": delta.flat_slots_freed,
                "surviving_nodes": live,
                "compute_entries_dropped": delta.compute_entries_dropped,
                "pause_seconds": round(delta.pause_seconds, 6),
                "limit": governor.limit,
            })
        return live

    def _materialize(self, edge):
        """An object-node :class:`Edge` for any state representation.

        Sifting, permuting and pruning walk the object node graph, so
        dense blocks are solidified and flat iterative edges materialised
        into plain edges first; :meth:`_to_state_store` puts a rebuilt
        state back where the kernel simulates.
        """
        edge = self.package.solidify(edge)
        if type(edge) is FlatEdge:
            edge = Edge(edge.node, edge.weight)
        return edge

    def _to_state_store(self, edge: Edge):
        """``edge`` on the store the package's kernel simulates on.

        Deserialising, sifting and pruning build object DDs; the iterative
        kernel copies them into its flat store, so the rest of the run
        keeps simulating there instead of on the recursive core.
        """
        flat = self.package.flat
        return edge if flat is None else flat.import_vector(edge)

    def _permute_matrix(self, run: _Run, edge: Edge | None,
                        permutation: list[int]) -> Edge | None:
        """Apply a level permutation to a pinned (matrix) DD, if any."""
        if edge is None:
            return None
        edge = self._materialize(edge)
        return permute_qubits(self.package, edge, permutation,
                              size=run.num_qubits)

    def _reorder(self, run: _Run, reason: str) -> int:
        """Sift the state DD and rebase the run onto the new order.

        The mechanics, in order: the state is materialised as object
        nodes (sifting walks them), sifted and put back on the kernel's
        store, and every other in-flight DD -- the pending accumulated
        product, a product pinned mid-:meth:`_Run.combine` -- is permuted
        to match.  The run's cumulative permutation is composed with the
        step permutation, the remap and gate caches are dropped (they are
        keyed on the *old* levels and would otherwise pin old-order DDs),
        the strategy's :meth:`~repro.simulation.strategies
        .SimulationStrategy.on_reorder` hook re-adopts the permuted
        products, and a collection reclaims the old-order diagrams.
        Returns the post-reorder live node count.
        """
        policy = run.reorder
        package = self.package
        state = self._materialize(run.state)
        nodes_before = package.count_nodes(state)
        ops_done = run.statistics.operations_applied
        if nodes_before < policy.min_nodes:
            # Too small to be worth the bookkeeping; still note the
            # attempt so the cadence/cooldown clock advances.
            policy.note_sift(ops_done, nodes_before, nodes_before)
            return package.live_node_count()
        state, step = sift(package, state, max_growth=policy.max_growth,
                           num_qubits=run.num_qubits)
        nodes_after = package.count_nodes(state)
        run.state = self._to_state_store(state)
        policy.note_sift(ops_done, nodes_before, nodes_after)
        identity_step = step == list(range(run.num_qubits))
        if not identity_step:
            run._pending = self._permute_matrix(run, run._pending, step)
            if run._combine_guard is not None:
                run._combine_guard = self._permute_matrix(
                    run, run._combine_guard, step)
            base = run.permutation or list(range(run.num_qubits))
            total = [step[base[q]] for q in range(run.num_qubits)]
            run.permutation = None \
                if total == list(range(run.num_qubits)) else total
            run._remap_cache.clear()
            # Gate caches are keyed by the *remapped* operations; stale
            # entries would pin DDs built for the old order forever.
            self.clear_caches()
            self._notify_reorder(run)
        run.statistics.reorders += 1
        run.statistics.reorder_nodes_saved += nodes_before - nodes_after
        live = self._collect(run)
        if run.trace is not None:
            run.trace({
                "event": "reorder",
                "op_index": run.statistics.matrix_vector_mults - 1,
                "reason": reason,
                "nodes_before": nodes_before,
                "nodes_after": nodes_after,
                "permutation": list(run.permutation)
                if run.permutation is not None else None,
                "live_nodes": live,
            })
        return live

    def _notify_reorder(self, run: _Run) -> None:
        """Tell the strategy the run was rebased onto a new variable order.

        Accumulating strategies hold their pending product DD privately;
        after :meth:`_reorder` permutes ``run._pending`` they must re-adopt
        it (:meth:`~repro.simulation.strategies.SimulationStrategy
        .on_reorder`), or they would keep combining gates built under the
        new order into a product built under the old one.  Kept as a
        separate method so the fuzzing harness can plant exactly that bug
        (:class:`repro.verification.plans.BrokenReorderEngine`).
        """
        if run.strategy is not None:
            run.strategy.on_reorder(run)

    def _degrade(self, run: _Run, live: int) -> int:
        """Prune the state DD to fit the budget; returns the live-node count.

        The caller has just collected, so every node left is reachable
        and only the state can give any up: fidelity-bounded pruning down
        to half the budget, bounded by the policy's cumulative fidelity
        floor.  When pruning cannot get under budget the caller's
        ``check_budget`` raises (and a checkpointed run writes a
        checkpoint on the way out).
        """
        policy = run.degradation
        package = self.package
        target = max(1, self.governor.max_nodes // 2)
        if package.count_nodes(run.state) <= target \
                or not policy.allows_prune():
            return live
        # The per-call floor is the global floor divided by what the
        # previous prunes already spent.
        floor = min(1.0, policy.fidelity_floor / policy.cumulative_fidelity)
        result = prune_to_node_budget(package, self._materialize(run.state),
                                      target, min_fidelity=floor)
        if result.edges_cut > 0:
            run.state = self._to_state_store(result.state)
            live = self._collect(run)
            self._record_degradation(run, {
                "action": "prune",
                "fidelity": result.fidelity,
                "edges_cut": result.edges_cut,
                "state_nodes_before": result.nodes_before,
                "state_nodes_after": result.nodes_after,
                "live_nodes": live,
            })
        return live

    def _record_degradation(self, run: _Run, action: dict) -> None:
        """Record one degradation action in policy, statistics, and trace."""
        run.degradation.record(dict(action))
        run.statistics.record_degradation(dict(action))
        if run.trace is not None:
            event = {"event": "degrade",
                     "op_index": run.statistics.matrix_vector_mults - 1}
            event.update(action)
            event["cumulative_fidelity"] = \
                run.degradation.cumulative_fidelity
            run.trace(event)

    def clear_caches(self) -> None:
        """Drop the engine's gate caches (package caches are untouched).

        Clears both the full-register gate-DD cache and the local-gate
        spec cache; the latter is keyed by ``id(operation)`` and pins the
        operation objects, so a long-lived engine fed many circuits would
        otherwise grow it without bound.
        """
        self._gate_cache.clear()
        self._local_gate_cache.clear()
