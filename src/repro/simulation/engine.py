"""The simulation engine.

Owns the DD package, builds gate DDs (with caching -- a circuit applying the
same Hadamard a thousand times builds its DD once), drives a
:class:`~repro.simulation.strategies.SimulationStrategy` over a circuit, and
records statistics.  Memory is governed by a
:class:`~repro.simulation.memory.MemoryGovernor`: when the package's unique
tables outgrow the governor's threshold, everything not reachable from the
run's roots (state, pending product, cached gate and block DDs) is freed --
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
  turns a hard budget overrun into an ordered ladder of fallbacks --
  collect, shrink compute tables, fidelity-bounded state pruning -- before
  giving up.
* ``audit_every`` runs the package's integrity auditor
  (:meth:`Package.check_invariants <repro.dd.package.Package.check_invariants>`)
  every K completed operations, failing fast on structural corruption.

Checkpointed/audited runs are driven through the *flattened* elementary
operation stream (``circuit.operations()`` order) so the checkpoint's
operation index is well-defined for every strategy; plain runs keep the
strategy's own ``execute`` fast path (and, for the repeating strategy, its
block-reuse optimisation).
"""

from __future__ import annotations

import gc
import time
from typing import Callable

from ..circuit.circuit import QuantumCircuit
from ..circuit.mapping import permute_operation
from ..circuit.operation import Operation
from ..dd.approximation import prune_to_node_budget
from ..dd.edge import Edge
from ..dd.kernel import FlatEdge
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


class _Run:
    """Mutable state of one simulation run, shared with the strategy."""

    def __init__(self, engine: "SimulationEngine", num_qubits: int,
                 state: Edge, statistics: SimulationStatistics,
                 trace: Callable[[dict], None] | None = None,
                 degradation: DegradationPolicy | None = None,
                 reorder: ReorderPolicy | None = None,
                 on_op: Callable[[int], None] | None = None) -> None:
        self.engine = engine
        self.package = engine.package
        self.num_qubits = num_qubits
        self.state = state
        self.statistics = statistics
        self.trace = trace
        #: per-op-boundary callback (heartbeats, cooperative deadlines,
        #: fault injection); see :meth:`tick` for the firing contract
        self.on_op = on_op
        #: monotone boundary counter fed to ``on_op`` on the plain path
        self.ops_ticked = 0
        #: the resilient driver ticks per flattened operation itself and
        #: flips this off so apply/combine do not double-fire the hook
        self._tick_in_apply = True
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
        #: node count of the last product returned by :meth:`combine` --
        #: lets size-bounded strategies reuse the measurement instead of
        #: re-counting the (growing) product DD on every feed
        self.last_product_nodes = 0
        #: index of the next flattened operation (resilient driver only)
        self.op_index = 0
        self._pending: Edge | None = None
        self._extra_roots: list[Edge] = []
        #: a freshly combined product, rooted across the collection that
        #: :meth:`combine` may trigger before the strategy adopts it
        self._combine_guard: Edge | None = None
        #: last consistent (op_index, state, pending, strategy_state)
        #: boundary -- what an exception-time checkpoint is written from
        self._last_good: tuple | None = None

    # -- operations the strategies use ---------------------------------

    def tick(self) -> None:
        """Fire the per-op-boundary hook (plain, non-resilient path).

        Plain runs tick once per unit of engine work -- every state
        update *and* every matrix-matrix combine -- with a monotone
        counter, which is what cooperative deadlines and heartbeats need.
        The resilient driver disables these ticks and fires the hook per
        flattened elementary operation instead, so op-indexed fault
        schedules line up exactly with checkpoint boundaries.
        """
        if self.on_op is not None and self._tick_in_apply:
            index = self.ops_ticked
            self.ops_ticked += 1
            self.on_op(index)

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

    def apply_matrix(self, matrix: Edge) -> None:
        """One simulation step: ``state <- matrix x state`` (Eq. 1 step)."""
        self.state = self.package.multiply_matrix_vector(matrix, self.state)
        self.statistics.matrix_vector_mults += 1
        self.statistics.record_state_size(
            self.package.count_nodes(self.state))
        self.engine.maybe_collect(self)
        if self.trace is not None:
            self._trace_step("matrix")
        self.tick()

    def apply_operation(self, operation: Operation) -> None:
        """One elementary simulation step, via the local-gate fast path.

        When the engine has ``use_local_apply`` enabled the 2x2 gate is
        applied directly to the state DD (no n-qubit gate DD, no full
        matrix-vector multiplication); otherwise this falls back to the
        explicit gate-DD pathway.  Either way it counts as one Eq. 1 step.
        """
        operation = self.map_operation(operation)
        if not self.engine.use_local_apply:
            self.apply_matrix(self.engine.gate_dd(operation,
                                                  self.num_qubits))
            return
        matrix, controls = self.engine.local_gate_spec(operation)
        self.state = self.package.apply_gate(
            self.state, matrix, operation.target, controls)
        self.statistics.matrix_vector_mults += 1
        self.statistics.local_gate_applications += 1
        self.statistics.record_state_size(
            self.package.count_nodes(self.state))
        self.engine.maybe_collect(self)
        if self.trace is not None:
            self._trace_step(operation.gate)
        self.tick()

    def _trace_step(self, gate: str) -> None:
        """Emit one ``step`` trace event (see :mod:`repro.simulation.trace`)."""
        package = self.package
        tables = package.tables
        pending = self._pending
        self.trace({
            "event": "step",
            "op_index": self.statistics.matrix_vector_mults - 1,
            "gate": gate,
            "state_nodes": package.count_nodes(self.state),
            "product_nodes": package.count_nodes(pending)
            if pending is not None else 0,
            "live_nodes": package.live_node_count(),
            "apply_gate_hit_rate": round(tables.apply_gate.hit_rate(), 6),
            "mult_mv_hit_rate": round(tables.mult_mv.hit_rate(), 6),
        })

    def combine(self, later: Edge, earlier: Edge) -> Edge:
        """Combine two operation matrices: ``later @ earlier`` (Eq. 2 step).

        Combining is governed like state updates are: a long accumulation
        streak can blow the memory budget without ever touching the state,
        so the governor (and the degradation ladder) runs here too.  The
        fresh product is pinned as a root for the duration -- the strategy
        has not adopted it as pending yet.  A governed *reorder* permutes
        the pinned product in place, so the guard is re-read after the
        collection rather than returning the stale pre-reorder local.
        """
        product = self.package.multiply_matrix_matrix(later, earlier)
        self.statistics.matrix_matrix_mults += 1
        nodes = self.package.count_nodes(product)
        self.last_product_nodes = nodes
        self.statistics.record_matrix_size(nodes)
        self._combine_guard = product
        try:
            self.engine.maybe_collect(self)
            product = self._combine_guard
        finally:
            self._combine_guard = None
        self.tick()
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
    gc_node_limit:
        Initial garbage-collection threshold: when the package holds more
        than this many nodes after a simulation step, unreachable nodes are
        collected.  ``None`` disables collection.  Shorthand for passing a
        default :class:`~repro.simulation.memory.MemoryGovernor` with this
        initial limit; ignored when ``governor`` is given explicitly.
    governor:
        Full memory policy: initial limit, geometric threshold growth after
        ineffective collections, optional hard ``max_nodes`` budget (which
        raises :class:`~repro.simulation.memory.MemoryBudgetExceeded`
        instead of grinding).
    use_local_apply:
        When true (the default), elementary operations fed by the sequential
        pathway are applied with :meth:`Package.apply_gate` -- the local-gate
        fast path that never builds the n-qubit gate DD.  Disable to force
        the paper-literal pathway (explicit gate DD + matrix-vector
        multiplication per gate), e.g. for the paper-artifact experiments.

    The state DD is measured after every simulation step, so
    ``peak_state_nodes`` is exact.
    """

    def __init__(self, package: Package | None = None,
                 gc_node_limit: int | None = 500_000,
                 use_local_apply: bool = True,
                 governor: MemoryGovernor | None = None) -> None:
        self.package = package or Package()
        self.governor = governor if governor is not None \
            else MemoryGovernor(node_limit=gc_node_limit)
        self.use_local_apply = use_local_apply
        self._gate_cache: dict[tuple[Operation, int], Edge] = {}
        # 2x2 entries + control map per operation for the local fast path
        # (skips the numpy matrix construction on every application).
        # Keyed by id() -- the operation objects live in the circuit, and
        # the values keep a reference so ids stay valid; hashing a frozen
        # dataclass on every application is measurably slower.
        self._local_gate_cache: dict[int, tuple] = {}

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

        Resilience options (all off by default, with zero overhead on the
        plain path):

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
            the governor's hard ``max_nodes`` budget is hit, walk the
            fallback ladder (collect, shrink compute tables,
            fidelity-bounded pruning) before giving up.
        ``audit_every``
            Run :meth:`Package.assert_invariants
            <repro.dd.package.Package.assert_invariants>` every K
            completed operations -- structural corruption fails the run
            at the step that caused it instead of corrupting the result.
        ``reorder``
            A :class:`~repro.simulation.reorder.ReorderPolicy` or spec
            string (``"off"``, ``"governor"``, ``"every=K"``).  Governed
            sifting shrinks the state DD mid-run *before* the degradation
            ladder gets to prune; the remaining circuit operations are
            remapped on the fly and the result carries the cumulative
            permutation so measurements stay in logical qubit order.
        ``on_op``
            A cheap per-op-boundary callback ``on_op(op_index)`` -- no DD
            measurement happens on its account (unlike ``trace``).  On
            checkpointed/audited runs it fires once per flattened
            elementary operation with the global operation index; on
            plain runs once per unit of engine work (state update or
            combine) with a monotone counter.  Exceptions it raises
            propagate like in-run failures (budget aborts still write
            their on-failure checkpoint).  This is the attachment point
            for cooperative deadlines, worker heartbeats, and fault
            injection (:mod:`repro.service.faults`).

        Checkpointing/auditing drives the run through the flattened
        operation stream, so :class:`RepeatingBlockStrategy
        <repro.simulation.strategies.RepeatingBlockStrategy>` loses its
        block-reuse optimisation on such runs (results are unchanged).
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
        state = deserialize_dd(self.package, checkpoint.state)
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
        statistics.record_state_size(self.package.count_nodes(state))
        run = _Run(self, circuit.num_qubits, state, statistics, trace,
                   degradation=degradation, reorder=reorder, on_op=on_op)
        run.strategy = strategy
        if permutation is not None:
            expected = list(range(circuit.num_qubits))
            if sorted(permutation) != expected:
                raise ValueError(f"checkpoint permutation {permutation} is "
                                 f"not a permutation of 0.."
                                 f"{circuit.num_qubits - 1}")
            if permutation != expected:
                run.permutation = list(permutation)
        run.op_index = start_index
        counters_before = self.package.counters.snapshot()
        gc_before = self.package.gc_stats.snapshot()
        # Live references for mid-run checkpoints, which must report
        # deltas without waiting for the run to finish.
        run._counters_before = counters_before
        run._gc_before = gc_before
        # Checkpointing/auditing (and any resume) needs a well-defined
        # position in the flattened operation stream; plain runs keep the
        # strategy's own execute() fast path.
        resilient = (checkpoint_path is not None or audit_every is not None
                     or start_index > 0 or pending is not None
                     or bool(strategy_state))
        # Pausing the cyclic collector is worth ~20% wall-clock on
        # sequential simulation (see cyclic_gc_paused).
        with cyclic_gc_paused():
            started = time.perf_counter()
            run._started = started
            try:
                if resilient:
                    self._run_ops(run, strategy, circuit,
                                  start_index=start_index, pending=pending,
                                  strategy_state=strategy_state,
                                  checkpoint_path=checkpoint_path,
                                  checkpoint_every=checkpoint_every,
                                  audit_every=audit_every)
                else:
                    strategy.execute(run, circuit)
                # A state that finished on the dense-block fast path
                # materialises back into its canonical DD here, inside the
                # timed region -- callers always receive a DD-backed state.
                run.state = self.package.solidify(run.state)
            finally:
                statistics.wall_time_seconds = time.perf_counter() - started
        statistics.counters = self.package.counters.delta(counters_before)
        statistics.gc = self.package.gc_stats.delta(gc_before)
        statistics.final_state_nodes = self.package.count_nodes(run.state)
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
                 audit_every: int | None) -> None:
        """Resilient driver: feed the flattened operation stream.

        After every completed ``feed`` the run records a *boundary
        snapshot* -- ``(op_index, state, pending, strategy state)`` -- so
        an exception anywhere (including mid-multiplication on
        ``KeyboardInterrupt``) can still write a checkpoint from the last
        consistent boundary.  The snapshot holds plain edge references;
        even if a later degradation pass prunes the state and collects,
        the referenced nodes stay serialisable (nodes are immutable and
        serialisation never consults the unique tables).
        """
        operations = list(circuit.operations())
        total = len(operations)
        if start_index > total:
            raise ValueError(
                f"checkpoint op_index {start_index} exceeds the circuit's "
                f"{total} elementary operations -- wrong circuit?")
        run._total_ops = total
        run._fingerprint = circuit_fingerprint(circuit)
        # This driver fires the per-op hook itself, once per flattened
        # elementary operation with the global index -- fault schedules
        # and resumed runs then agree on what "op K" means.
        run._tick_in_apply = False
        strategy.begin(run)
        if strategy_state:
            strategy.load_state_dict(strategy_state)
        if pending is not None:
            strategy.restore_pending(run, pending)
        self._note_boundary(run, strategy)
        package = self.package
        try:
            for index in range(start_index, total):
                strategy.feed(run, operations[index])
                run.op_index = index + 1
                self._note_boundary(run, strategy)
                done = index + 1 - start_index
                if audit_every is not None and done % audit_every == 0:
                    package.assert_invariants(run.roots())
                    run.statistics.audits_run += 1
                if (checkpoint_every is not None and index + 1 < total
                        and done % checkpoint_every == 0):
                    self._write_checkpoint(run, strategy, circuit,
                                           checkpoint_path,
                                           reason="periodic")
                # after the periodic checkpoint, so a checkpoint-damage
                # fault scheduled at this boundary sees it on disk
                if run.on_op is not None:
                    run.on_op(index)
            strategy.flush(run)
            run.op_index = total
            self._note_boundary(run, strategy)
            if audit_every is not None:
                package.assert_invariants(run.roots())
                run.statistics.audits_run += 1
        except (MemoryBudgetExceeded, KeyboardInterrupt) as exc:
            if checkpoint_path is not None:
                path = self._write_checkpoint(
                    run, strategy, circuit, checkpoint_path,
                    reason=type(exc).__name__)
                if isinstance(exc, MemoryBudgetExceeded):
                    exc.checkpoint_path = path
            raise

    @staticmethod
    def _note_boundary(run: _Run, strategy: SimulationStrategy) -> None:
        # Statistics are snapshotted per boundary too: a checkpoint written
        # after a mid-feed exception must not count the interrupted (and
        # later replayed) operation, or resumed totals double-count it.
        run._last_good = (run.op_index, run.state, run._pending,
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
        :class:`~repro.simulation.memory.DegradationPolicy`, the
        degradation ladder runs before :meth:`MemoryGovernor.check_budget`
        gets to raise.

        When the run carries a :class:`ReorderPolicy`, governed sifting
        slots in *between* collection and degradation: a cheaper variable
        order is tried before anything lossy (pruning) or destructive
        (budget abort) happens.  Governor pressure means the live working
        set is over the hard ``max_nodes`` budget after a collection, or
        the collection was futile (the threshold had to grow).
        """
        governor = self.governor
        package = self.package
        live = package.live_node_count()
        collection_grew = False
        if governor.should_collect(live):
            live = self._collect(run)
            collection_grew = run._collection_grew
        policy = run.reorder
        if policy is not None:
            pressure = collection_grew or (
                governor.max_nodes is not None and live > governor.max_nodes)
            if policy.should_reorder(run.statistics.operations_applied,
                                     pressure):
                reason = "cadence" if policy.mode == "every" else "pressure"
                live = self._reorder(run, reason)
        if (run.degradation is not None and governor.max_nodes is not None
                and live > governor.max_nodes):
            live = self._degrade(run, live)
        governor.check_budget(live)

    def _collect(self, run: _Run) -> int:
        """One governed mark-sweep; returns the surviving live-node count."""
        package = self.package
        governor = self.governor
        roots = run.roots()
        roots.extend(self._gate_cache.values())
        gc_before = package.gc_stats.snapshot() \
            if run.trace is not None else None
        flat_before = package.gc_stats.flat_slots_freed
        freed = package.garbage_collect(roots)
        live = package.live_node_count()
        run._collection_grew = governor.note_collection(
            freed, live,
            flat_freed=package.gc_stats.flat_slots_freed - flat_before)
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
        """A recursive-path :class:`Edge` for any state representation.

        Reordering walks the object node graph, so dense blocks are
        solidified and flat iterative edges materialised into plain edges
        first; the run then continues on the recursive path (correct, just
        slower) under the new order -- the same choice the degradation
        ladder's pruning rung makes.
        """
        edge = self.package.solidify(edge)
        if type(edge) is FlatEdge:
            edge = Edge(edge.node, edge.weight)
        return edge

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

        The mechanics, in order: the state is materialised onto the
        recursive path (sifting walks object nodes), sifted, and every
        other in-flight DD -- the pending accumulated product, a product
        pinned mid-:meth:`_Run.combine` -- is permuted to match.  The
        run's cumulative permutation is composed with the step
        permutation, the remap and gate caches are dropped (they are
        keyed on the *old* levels and would otherwise pin old-order DDs),
        the strategy's :meth:`~repro.simulation.strategies
        .SimulationStrategy.on_reorder` hook re-adopts the permuted
        products, and a collection reclaims the old-order diagrams.
        Returns the post-reorder live node count.
        """
        policy = run.reorder
        package = self.package
        run.state = self._materialize(run.state)
        nodes_before = package.count_nodes(run.state)
        ops_done = run.statistics.operations_applied
        if nodes_before < policy.min_nodes:
            # Too small to be worth the bookkeeping; still note the
            # attempt so the cadence/cooldown clock advances.
            policy.note_sift(ops_done, nodes_before, nodes_before)
            return package.live_node_count()
        run.state, step = sift(package, run.state,
                               max_growth=policy.max_growth,
                               num_qubits=run.num_qubits)
        nodes_after = package.count_nodes(run.state)
        policy.note_sift(ops_done, nodes_before, nodes_after)
        identity_step = step == list(range(run.num_qubits))
        if not identity_step:
            run._pending = self._permute_matrix(run, run._pending, step)
            if run._combine_guard is not None:
                run._combine_guard = self._permute_matrix(
                    run, run._combine_guard, step)
                run.last_product_nodes = package.count_nodes(
                    run._combine_guard)
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
        """Walk the degradation ladder; returns the final live-node count.

        Every rung frees only *rebuildable or negligible* data: a forced
        collection, then compute-table shrinking plus gate-cache clearing
        (pure caches), then fidelity-bounded pruning of the state DD --
        the only lossy step, bounded by the policy's cumulative fidelity
        floor.  When the ladder cannot get under budget the caller's
        ``check_budget`` raises as before (and the resilient driver writes
        a checkpoint on the way out).
        """
        policy = run.degradation
        package = self.package
        budget = self.governor.max_nodes
        # Rung 1: force a collection even below the GC threshold.
        before = live
        live = self._collect(run)
        self._record_degradation(run, {
            "action": "collect",
            "nodes_freed": before - live,
            "live_nodes": live,
        })
        if live <= budget:
            return live
        # Rung 2 (once per run): shrink every compute table and drop the
        # engine's gate-DD caches, then re-collect the newly unpinned nodes.
        if not policy.tables_shrunk:
            policy.tables_shrunk = True
            dropped = 0
            for cache in package.tables.compute_tables().values():
                dropped += cache.resize(policy.compute_table_slots)
            self.clear_caches()
            before = live
            live = self._collect(run)
            self._record_degradation(run, {
                "action": "shrink-tables",
                "slots": policy.compute_table_slots,
                "compute_entries_dropped": dropped,
                "nodes_freed": before - live,
                "live_nodes": live,
            })
            if live <= budget:
                return live
        # Rung 3: fidelity-bounded pruning of the state DD.
        state_nodes = package.count_nodes(run.state)
        target = max(1, int(budget * policy.prune_target_fraction))
        if state_nodes > target and policy.allows_prune():
            run.state = package.solidify(run.state)
            if type(run.state) is FlatEdge:
                # Pruning operates on object DDs; materialise the flat
                # state (the run continues on the recursive path, which
                # is correct -- just slower -- for the degraded remainder).
                run.state = Edge(run.state.node, run.state.weight)
            # The per-call floor is the global floor divided by what the
            # previous prunes already spent.
            floor = min(1.0, policy.fidelity_floor / policy.cumulative_fidelity)
            result = prune_to_node_budget(
                package, run.state, target, min_fidelity=floor,
                initial_budget=policy.prune_initial_budget,
                growth=policy.prune_growth)
            if result.edges_cut > 0:
                run.state = result.state
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
        """Record one ladder action in policy, statistics, and trace."""
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
