"""Per-run instrumentation.

The paper's argument is about *where the multiplication effort goes*: how
many matrix-vector multiplications touch the (large) state DD, how many
matrix-matrix multiplications combine (small) operation DDs, and how big the
involved diagrams get.  :class:`SimulationStatistics` records exactly those
quantities, plus machine-independent recursive-call counters from the DD
package, so strategy comparisons do not depend on wall-clock noise alone.

For resilient long runs the statistics additionally record every
*degradation action* (a fidelity-bounded prune under memory pressure)
together with the cumulative fidelity retained,
and how many checkpoints were written -- and the whole record round-trips
through :meth:`as_dict` / :meth:`from_dict` so a resumed run continues its
predecessor's numbers instead of starting from zero.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields

from ..dd.package import GcStats, OperationCounters

__all__ = ["SimulationStatistics"]


@dataclass
class SimulationStatistics:
    """Everything measured during one simulation run."""

    strategy: str = ""
    circuit_name: str = ""
    num_qubits: int = 0
    #: registry name of the backend that produced this run ("" on direct
    #: engine runs that bypass the backend layer)
    backend: str = ""
    #: the ``auto`` selector's decision record: chosen backend, the
    #: feature vector it scored, per-backend scores and a reason string
    #: (empty when the backend was chosen explicitly)
    backend_selection: dict = field(default_factory=dict)
    #: elementary operations consumed (repeated blocks unrolled)
    operations_applied: int = 0
    #: top-level matrix-vector multiplications (state updates, Eq. 1 steps)
    matrix_vector_mults: int = 0
    #: state updates served by the iterative kernel's local-gate path (a
    #: subset of ``matrix_vector_mults``: every local application is one
    #: Eq. 1 step)
    local_gate_applications: int = 0
    #: top-level matrix-matrix multiplications (operation combining, Eq. 2)
    matrix_matrix_mults: int = 0
    #: matrix applications answered by a re-used combined DD (DD-repeating)
    reused_block_applications: int = 0
    #: oracle DDs constructed directly from function specs (DD-construct)
    direct_constructions: int = 0
    #: largest state DD, in nodes (dense blocks are not DDs and count
    #: in ``peak_dense_amps`` instead)
    peak_state_nodes: int = 0
    #: largest dense amplitude block the iterative kernel held (0 when
    #: the state never went dense)
    peak_dense_amps: int = 0
    peak_matrix_nodes: int = 0
    final_state_nodes: int = 0
    wall_time_seconds: float = 0.0
    #: recursive-call deltas accumulated in the DD package during the run
    counters: OperationCounters = field(default_factory=OperationCounters)
    #: garbage-collection telemetry accumulated during the run
    gc: GcStats = field(default_factory=GcStats)
    #: every degradation action taken under memory pressure (one flat dict
    #: per action; mirrors the ``degrade`` trace events)
    degradation_actions: list = field(default_factory=list)
    #: product of the fidelities retained by all pruning passes (1.0 when
    #: the run never degraded -- the result is exact)
    cumulative_fidelity: float = 1.0
    #: checkpoints written during the run (periodic and on-failure)
    checkpoints_written: int = 0
    #: integrity audits run by the every-K-steps engine hook
    audits_run: int = 0
    #: mid-run variable reorders (sifts) performed
    reorders: int = 0
    #: total state-DD nodes saved by reordering (before - after, summed)
    reorder_nodes_saved: int = 0
    #: iterative-kernel dense-block cutovers during the run (0 on the
    #: recursive kernel; stamped from the package's kernel stats)
    dense_cutovers: int = 0
    #: end-of-run hit rate per compute/memo table (name -> rate in [0, 1];
    #: per-run only when the engine owns a fresh package).  These feed the
    #: coverage-guided fuzzer's novelty map; they are *not* part of the
    #: deterministic sweep payload -- slot collisions make them
    #: machine-sensitive.
    cache_hit_rates: dict = field(default_factory=dict)
    #: execution attempts consumed to produce this result (1 for a run
    #: that never failed; the job supervisor stamps the real count)
    attempts: int = 1
    #: flattened-operation index the *latest* segment resumed from (0 when
    #: the run -- or its final retry -- started from scratch)
    resumed_from_op: int = 0

    def record_state_size(self, nodes: int) -> None:
        if nodes > self.peak_state_nodes:
            self.peak_state_nodes = nodes

    def record_dense_size(self, amps: int) -> None:
        if amps > self.peak_dense_amps:
            self.peak_dense_amps = amps

    def record_matrix_size(self, nodes: int) -> None:
        if nodes > self.peak_matrix_nodes:
            self.peak_matrix_nodes = nodes

    def record_degradation(self, action: dict) -> None:
        """Append one degradation action; fold its ``fidelity`` into the
        cumulative product."""
        self.degradation_actions.append(action)
        self.cumulative_fidelity *= action["fidelity"]

    def merge(self, other: "SimulationStatistics") -> None:
        """Accumulate another run's numbers (used by multi-segment drivers)."""
        self.operations_applied += other.operations_applied
        self.matrix_vector_mults += other.matrix_vector_mults
        self.local_gate_applications += other.local_gate_applications
        self.matrix_matrix_mults += other.matrix_matrix_mults
        self.reused_block_applications += other.reused_block_applications
        self.direct_constructions += other.direct_constructions
        self.peak_state_nodes = max(self.peak_state_nodes,
                                    other.peak_state_nodes)
        self.peak_dense_amps = max(self.peak_dense_amps,
                                   other.peak_dense_amps)
        self.peak_matrix_nodes = max(self.peak_matrix_nodes,
                                     other.peak_matrix_nodes)
        self.final_state_nodes = other.final_state_nodes
        self.wall_time_seconds += other.wall_time_seconds
        # Every counter field, so a new one cannot be skipped.
        for mine, theirs in ((self.counters, other.counters),
                             (self.gc, other.gc)):
            for counter in fields(mine):
                name = counter.name
                setattr(mine, name, getattr(mine, name)
                        + getattr(theirs, name))
        self.degradation_actions.extend(other.degradation_actions)
        self.cumulative_fidelity *= other.cumulative_fidelity
        self.checkpoints_written += other.checkpoints_written
        self.audits_run += other.audits_run
        self.reorders += other.reorders
        self.reorder_nodes_saved += other.reorder_nodes_saved
        self.dense_cutovers += other.dense_cutovers
        # hit rates are end-of-run gauges, not counters: latest segment wins
        if other.cache_hit_rates:
            self.cache_hit_rates = dict(other.cache_hit_rates)
        self.attempts = max(self.attempts, other.attempts)
        # the merged record describes the run up to the *other* segment,
        # so the latest segment's resume offset wins
        self.resumed_from_op = other.resumed_from_op
        self.backend = other.backend or self.backend
        if other.backend_selection:
            self.backend_selection = dict(other.backend_selection)

    # -- serialisation (checkpoint format) ------------------------------

    def as_dict(self) -> dict:
        """JSON-compatible snapshot of every field (checkpoint payload)."""
        payload = asdict(self)
        payload["degradation_actions"] = list(self.degradation_actions)
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "SimulationStatistics":
        """Rebuild statistics from :meth:`as_dict` output.

        Unknown keys are ignored (forward compatibility); missing keys
        keep their defaults (backward compatibility).
        """
        stats = cls()
        counters = payload.get("counters") or {}
        gc = payload.get("gc") or {}
        for key, value in payload.items():
            if key in ("counters", "gc"):
                continue
            if hasattr(stats, key):
                setattr(stats, key, value)
        for key, value in counters.items():
            if hasattr(stats.counters, key):
                setattr(stats.counters, key, value)
        for key, value in gc.items():
            if hasattr(stats.gc, key):
                setattr(stats.gc, key, value)
        return stats

    def summary(self) -> str:
        """Compact human-readable one-paragraph report."""
        degraded = "" if not self.degradation_actions else (
            f", {len(self.degradation_actions)} degradation action(s) "
            f"(fidelity {self.cumulative_fidelity:.6f})")
        dense = "" if not self.peak_dense_amps else (
            f", dense block {self.peak_dense_amps} amps")
        retried = "" if self.attempts <= 1 else (
            f", attempt {self.attempts} "
            f"(resumed from op {self.resumed_from_op})")
        return (
            f"[{self.strategy}] {self.circuit_name}: "
            f"{self.operations_applied} ops -> "
            f"{self.matrix_vector_mults} MxV + "
            f"{self.matrix_matrix_mults} MxM mults "
            f"({self.reused_block_applications} reused, "
            f"{self.direct_constructions} direct), "
            f"peak state {self.peak_state_nodes} / "
            f"matrix {self.peak_matrix_nodes} nodes{dense}, "
            f"{self.gc.collections} GC "
            f"({self.gc.nodes_freed} freed, "
            f"{self.gc.pause_seconds:.3f}s paused)"
            f"{degraded}{retried}, "
            f"{self.wall_time_seconds:.3f}s")
