"""Supervised worker pool over a :class:`~repro.service.jobs.JobStore`.

One supervisor process drives a batch of durable jobs to completion:

* **Leases with heartbeats.**  A claimed job gets a lease for a specific
  attempt; the worker proves liveness by touching its heartbeat file at
  every operation boundary.  A heartbeat older than ``lease_seconds``
  means the worker is dead, wedged, or pathologically slow -- the
  supervisor kills it and the job goes back to the queue.  Progress is
  not lost: the worker checkpointed as it went, and the retry resumes.

* **Retry with exponential backoff + deterministic jitter.**  A failed
  attempt re-queues the job with ``not_before = now + base * factor**(n-1)
  + jitter``, where the jitter derives from SHA-256 of ``(job_id,
  attempt)`` -- retry schedules are reproducible run-to-run, yet spread
  out across jobs.

* **Resume from the latest checkpoint.**  Workers write periodic
  checkpoints (and on-failure checkpoints for budget aborts); a retry
  loads the newest one and continues via
  :meth:`~repro.simulation.engine.SimulationEngine.resume`, replaying at
  most ``checkpoint_every - 1`` operations.  An unreadable checkpoint
  (:class:`~repro.simulation.checkpoint.CheckpointError`) is quarantined
  to ``checkpoint.json.bad`` and the attempt restarts from operation 0 --
  damaged state never poisons the job.

* **Quarantine after ``max_attempts``.**  The record keeps the full error
  chain (one entry per attempt) for post-mortems.

* **Exactly-once completion, at-least-once execution.**  Results publish
  through :meth:`JobStore.publish_result`'s exclusive hard-link; a worker
  that lost a completion race exits with :data:`EXIT_ALREADY_DONE` and
  the supervisor adopts the existing result.  On startup the supervisor
  *recovers* the store: jobs stuck in ``leased``/``running`` by a killed
  predecessor are adopted (result exists), re-queued (owner dead), or
  have their orphan worker killed and are re-queued -- so ``repro jobs
  run`` on a crashed store always completes the batch.

Supervision happens over *files only* (job records, heartbeats, results,
errors); no pipes or queues connect supervisor and worker, which is what
makes a ``kill -9`` of either side recoverable by construction.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import signal
import time
import traceback
from collections.abc import Callable
from dataclasses import asdict, dataclass, field

from .faults import Deadline, FaultInjector, chain_hooks, parse_fault
from .jobs import JobRecord, JobStore

__all__ = ["EXIT_ALREADY_DONE", "JobTimeout", "Supervisor",
           "SupervisorConfig", "SupervisorReport", "run_job_attempt"]

#: worker exit status: the job's result already existed (lost a completion
#: race, or a previous attempt finished after its lease was reclaimed)
EXIT_ALREADY_DONE = 3

#: amplitude payloads are only useful for fidelity checks on small states;
#: beyond this register size the result carries statistics only
_AMPLITUDE_QUBIT_LIMIT = 12


class JobTimeout(Exception):
    """Raised inside a worker when a job exceeds its cooperative deadline."""


# ----------------------------------------------------------------------
# worker side (runs in a disposable forked process)
# ----------------------------------------------------------------------

def run_job_attempt(store: JobStore, job_id: str, attempt: int) -> int:
    """Execute one attempt of one job; returns the worker exit status.

    Everything here is file-based: progress goes to the heartbeat and
    checkpoint files, the outcome to the result file (exclusive link) or
    an ``error-<attempt>.json``.  The function never touches the job
    record -- that is the supervisor's to write.
    """
    from ..circuit.qasm import from_qasm
    from ..dd.package import Package
    from ..simulation.checkpoint import CheckpointError, load_checkpoint
    from ..simulation.engine import SimulationEngine
    from ..simulation.memory import DEFAULT_NODE_LIMIT, MemoryGovernor
    from ..simulation.strategies import strategy_from_spec

    record = store.get(job_id)
    spec = record.spec
    store.work_dir(job_id, create=True)
    heartbeat = store.heartbeat_path(job_id)
    _touch(heartbeat)
    checkpoint_file = store.checkpoint_path(job_id)

    injector = FaultInjector(parse_fault(spec.fault), in_worker=True,
                             attempt=attempt, label=f"job {job_id}",
                             checkpoint_path=checkpoint_file)
    try:
        injector.at_start()
        circuit = from_qasm(spec.qasm)
        kernel = spec.kernel or "recursive"
        governor = None
        if spec.max_nodes is not None or spec.gc_limit is not None:
            governor = MemoryGovernor(
                node_limit=spec.gc_limit or DEFAULT_NODE_LIMIT,
                max_nodes=spec.max_nodes)
        if spec.use_local_apply:
            engine = SimulationEngine(package=Package(kernel=kernel),
                                      governor=governor)
        else:
            engine = SimulationEngine.paper_literal(governor=governor,
                                                    kernel=kernel)
        # heartbeat first: a latency fault's sleep then runs *after* the
        # touch, so the heartbeat goes stale mid-sleep and the lease
        # expires -- exactly the slow-worker scenario being modelled
        on_op = chain_hooks(
            lambda _op: _touch(heartbeat),
            injector.on_op if injector.wants_op_hook else None,
            Deadline(spec.timeout, JobTimeout, f"job {job_id}")
            if spec.timeout is not None else None,
        )
        checkpoint = None
        if os.path.exists(checkpoint_file):
            try:
                checkpoint = load_checkpoint(checkpoint_file)
            except CheckpointError as exc:
                # damaged checkpoint: set it aside and restart from op 0
                # rather than failing every retry on the same bad file
                os.replace(checkpoint_file, f"{checkpoint_file}.bad")
                store.write_error(job_id, attempt, {
                    "attempt": attempt, "type": "CheckpointError",
                    "message": f"{exc} -- restarting from operation 0",
                    "recovered": True})
                checkpoint = None
        common = dict(checkpoint_path=checkpoint_file,
                      checkpoint_every=spec.checkpoint_every,
                      reorder=spec.reorder, on_op=on_op)
        if checkpoint is not None:
            result = engine.resume(checkpoint, circuit, **common)
        else:
            result = engine.simulate(circuit,
                                     strategy_from_spec(spec.strategy),
                                     **common)
    except Exception as exc:
        store.write_error(job_id, attempt, {
            "attempt": attempt,
            "type": type(exc).__name__,
            "message": str(exc),
            "traceback": traceback.format_exc(),
        })
        return 1

    statistics = result.statistics
    statistics.attempts = attempt
    payload = {
        "job_id": job_id,
        "attempt": attempt,
        "resumed_from_op": statistics.resumed_from_op,
        "statistics": statistics.as_dict(),
    }
    if circuit.num_qubits <= _AMPLITUDE_QUBIT_LIMIT:
        payload["amplitudes"] = [
            [amplitude.real, amplitude.imag]
            for amplitude in (result.amplitude(index)
                              for index in range(2 ** circuit.num_qubits))]
    if not store.publish_result(job_id, payload):
        return EXIT_ALREADY_DONE
    return 0


def _worker_entry(store_root: str, job_id: str, attempt: int) -> None:
    """Process target: run one attempt, exit with its status."""
    status = run_job_attempt(JobStore(store_root), job_id, attempt)
    os._exit(status)


def _touch(path: str) -> None:
    try:
        os.utime(path)
    except FileNotFoundError:
        with open(path, "a", encoding="utf-8"):
            pass


def _pid_alive(pid: int | None) -> bool:
    if not pid:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


# ----------------------------------------------------------------------
# supervisor side
# ----------------------------------------------------------------------

@dataclass
class SupervisorConfig:
    """Knobs of one supervision run (defaults suit interactive batches)."""

    #: concurrent worker processes
    max_workers: int = 2
    #: heartbeat staleness beyond which a lease is expired and the worker
    #: killed; must exceed the longest single-operation gap of the workload
    lease_seconds: float = 10.0
    #: supervisor poll cadence
    poll_interval: float = 0.05
    #: retry backoff: ``base * factor**(attempt-1)``, capped at ``maximum``
    backoff_base: float = 0.2
    backoff_factor: float = 2.0
    backoff_max: float = 10.0
    #: deterministic jitter amplitude added to every backoff
    jitter_seconds: float = 0.1
    #: hard wall-clock bound on one ``run()`` call -- the supervisor never
    #: hangs forever even if every safeguard below it fails
    max_wall_seconds: float = 600.0


@dataclass
class SupervisorReport:
    """Outcome of one supervision run."""

    #: final state per supervised job id
    states: dict = field(default_factory=dict)
    retries: int = 0
    lease_expiries: int = 0
    recovered: int = 0
    wall_seconds: float = 0.0

    @property
    def all_done(self) -> bool:
        return bool(self.states) and \
            all(state == "done" for state in self.states.values())

    def counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for state in self.states.values():
            counts[state] = counts.get(state, 0) + 1
        return counts

    def as_dict(self) -> dict:
        payload = asdict(self)
        payload["counts"] = self.counts()
        payload["all_done"] = self.all_done
        return payload


@dataclass
class _Worker:
    process: multiprocessing.process.BaseProcess
    attempt: int
    started_at: float


class Supervisor:
    """Drive every queued job in a store to a terminal state.

    ``trace``, when given, receives one dict per supervision event --
    ``job`` (state changes), ``lease`` (acquired / expired / reclaimed),
    ``retry`` (backoff scheduling), ``quarantine`` (retries exhausted) --
    in the JSONL schema of :mod:`repro.simulation.trace`, so a
    :class:`~repro.simulation.trace.JsonlTraceSink` streams the whole
    supervision history to disk next to the engine's own events.
    """

    def __init__(self, store: JobStore,
                 config: SupervisorConfig | None = None,
                 trace: Callable[[dict], object] | None = None) -> None:
        self.store = store
        self.config = config or SupervisorConfig()
        self.trace = trace
        self._mp = multiprocessing.get_context("fork") \
            if "fork" in multiprocessing.get_all_start_methods() \
            else multiprocessing.get_context()

    # -- public API -----------------------------------------------------

    def run(self, job_ids: list[str] | None = None) -> SupervisorReport:
        """Supervise until every job is terminal; returns the report."""
        config = self.config
        started = time.monotonic()
        report = SupervisorReport()
        ids = list(job_ids) if job_ids is not None else self.store.list_ids()
        self._recover(ids, report)
        active: dict[str, _Worker] = {}
        try:
            while True:
                now = time.monotonic()
                if now - started > config.max_wall_seconds:
                    self._abandon(active, report)
                    break
                self._reap_finished(active, report)
                self._expire_leases(active, report)
                pending = self._launch_ready(ids, active)
                if not active:
                    if pending is None:
                        break  # every job terminal
                    # nothing running, nothing ready: sleep out the backoff
                    time.sleep(min(max(pending - time.time(), 0.0) + 0.01,
                                   1.0))
                    continue
                time.sleep(config.poll_interval)
        finally:
            for worker in active.values():
                if worker.process.is_alive():
                    worker.process.kill()
                worker.process.join()
        for job_id in ids:
            report.states[job_id] = self.store.get(job_id).state
        report.wall_seconds = time.monotonic() - started
        return report

    # -- recovery (crashed predecessor) ---------------------------------

    def _recover(self, ids: list[str], report: SupervisorReport) -> None:
        """Repair leased/running records left behind by a dead supervisor."""
        for job_id in ids:
            record = self.store.get(job_id)
            if record.state not in ("leased", "running"):
                continue
            result = self.store.read_result(job_id)
            if result is not None:
                # the worker finished; only the bookkeeping was lost
                self._adopt_result(record, result,
                                   note="adopted after supervisor restart")
                report.recovered += 1
                continue
            pid = (record.lease or {}).get("pid")
            if _pid_alive(pid):
                # an orphan worker without a supervisor cannot have its
                # lease renewed or its result adopted race-free: kill it
                # (its checkpoints keep the progress) and re-queue
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
            record.not_before = 0.0
            self.store.transition(record, "queued",
                                  note="lease reclaimed (supervisor lost)")
            self._emit("lease", job=job_id, action="reclaimed", pid=pid)
            report.recovered += 1

    # -- scheduling -----------------------------------------------------

    def _launch_ready(self, ids: list[str],
                      active: dict[str, _Worker]) -> float | None:
        """Start workers for due queued jobs.

        Returns ``None`` when every job is terminal, otherwise the
        earliest ``not_before`` among still-pending jobs (for sleeping).
        """
        earliest: float | None = None
        all_terminal = True
        now = time.time()
        for job_id in ids:
            if job_id in active:
                all_terminal = False
                continue
            record = self.store.get(job_id)
            if record.terminal:
                continue
            all_terminal = False
            if record.state != "queued":
                continue
            if record.not_before > now:
                if earliest is None or record.not_before < earliest:
                    earliest = record.not_before
                continue
            if len(active) >= self.config.max_workers:
                earliest = earliest if earliest is not None else now
                continue
            self._launch(record, active)
        if all_terminal and not active:
            return None
        return earliest if earliest is not None else now

    def _launch(self, record: JobRecord, active: dict[str, _Worker]) -> None:
        attempt = record.attempts + 1
        record.lease = {"attempt": attempt, "pid": None,
                        "acquired_at": time.time(),
                        "lease_seconds": self.config.lease_seconds}
        self.store.transition(record, "leased", note=f"attempt {attempt}")
        self.store.work_dir(record.job_id, create=True)
        # start the staleness clock now -- a worker that never gets to its
        # first heartbeat (hang fault, import crash) still expires
        _touch(self.store.heartbeat_path(record.job_id))
        process = self._mp.Process(
            target=_worker_entry,
            args=(self.store.root, record.job_id, attempt))
        process.start()
        record.lease["pid"] = process.pid
        self.store.transition(record, "running", note=f"pid {process.pid}")
        active[record.job_id] = _Worker(process=process, attempt=attempt,
                                        started_at=time.monotonic())
        self._emit("lease", job=record.job_id, action="acquired",
                   attempt=attempt, pid=process.pid,
                   lease_seconds=self.config.lease_seconds)
        self._emit("job", job=record.job_id, action="running",
                   attempt=attempt)

    # -- monitoring -----------------------------------------------------

    def _reap_finished(self, active: dict[str, _Worker],
                       report: SupervisorReport) -> None:
        for job_id, worker in list(active.items()):
            process = worker.process
            if process.is_alive():
                continue
            process.join()
            del active[job_id]
            record = self.store.get(job_id)
            result = self.store.read_result(job_id)
            if result is not None:
                # covers exit 0 and EXIT_ALREADY_DONE alike: a result on
                # disk is the one source of truth for completion
                self._adopt_result(record, result)
                continue
            error = self.store.read_error(job_id, worker.attempt)
            if error is None or error.get("recovered"):
                error = {"attempt": worker.attempt, "type": "WorkerDied",
                         "message": f"worker pid {process.pid} exited with "
                                    f"code {process.exitcode} without a "
                                    f"result"}
            self._record_failure(record, worker.attempt, error, report)

    def _expire_leases(self, active: dict[str, _Worker],
                       report: SupervisorReport) -> None:
        lease_seconds = self.config.lease_seconds
        for job_id, worker in list(active.items()):
            if not worker.process.is_alive():
                continue  # _reap_finished picks it up next tick
            heartbeat = self.store.heartbeat_path(job_id)
            try:
                age = time.time() - os.path.getmtime(heartbeat)
            except OSError:
                age = time.monotonic() - worker.started_at
            if age <= lease_seconds:
                continue
            worker.process.kill()
            worker.process.join()
            del active[job_id]
            report.lease_expiries += 1
            self._emit("lease", job=job_id, action="expired",
                       attempt=worker.attempt, heartbeat_age=round(age, 3),
                       lease_seconds=lease_seconds)
            record = self.store.get(job_id)
            # the worker may have published a result between our staleness
            # read and the kill; a result always wins (exactly-once holds:
            # it was linked exclusively)
            result = self.store.read_result(job_id)
            if result is not None:
                self._adopt_result(record, result)
                continue
            error = {"attempt": worker.attempt, "type": "LeaseExpired",
                     "message": f"heartbeat stale for {age:.3f}s "
                                f"(lease {lease_seconds}s); worker killed"}
            self._record_failure(record, worker.attempt, error, report)

    # -- outcome bookkeeping --------------------------------------------

    def _adopt_result(self, record: JobRecord, result: dict,
                      note: str = "") -> None:
        record.attempts = max(record.attempts,
                              int(result.get("attempt", 1)))
        record.result = {
            "attempt": result.get("attempt"),
            "resumed_from_op": result.get("resumed_from_op"),
        }
        statistics = result.get("statistics") or {}
        for key in ("operations_applied", "cumulative_fidelity",
                    "wall_time_seconds", "checkpoints_written"):
            if key in statistics:
                record.result[key] = statistics[key]
        self.store.transition(record, "done", note=note or "result adopted")
        self.store.record_completion(record.job_id)
        self._emit("job", job=record.job_id, action="done",
                   attempt=record.attempts,
                   resumed_from_op=record.result.get("resumed_from_op"))

    def _record_failure(self, record: JobRecord, attempt: int, error: dict,
                        report: SupervisorReport) -> None:
        record.attempts = max(record.attempts, attempt)
        record.errors.append(dict(error, attempt=attempt))
        if record.attempts >= record.max_attempts:
            self.store.transition(
                record, "quarantined",
                note=f"retries exhausted after attempt {attempt}")
            self._emit("quarantine", job=record.job_id,
                       attempts=record.attempts,
                       errors=[e.get("type") for e in record.errors])
            return
        delay = min(self.config.backoff_max,
                    self.config.backoff_base
                    * self.config.backoff_factor ** (attempt - 1))
        delay += self._jitter(record.job_id, attempt)
        record.not_before = time.time() + delay
        self.store.transition(
            record, "queued",
            note=f"retry after attempt {attempt} "
                 f"({error.get('type')}; backoff {delay:.3f}s)")
        report.retries += 1
        self._emit("retry", job=record.job_id, attempt=attempt,
                   error=error.get("type"), backoff_seconds=round(delay, 3),
                   next_attempt=record.attempts + 1)

    def _abandon(self, active: dict[str, _Worker],
                 report: SupervisorReport) -> None:
        """Wall-clock bound hit: kill workers, fail their jobs cleanly."""
        for job_id, worker in list(active.items()):
            if worker.process.is_alive():
                worker.process.kill()
            worker.process.join()
            del active[job_id]
            record = self.store.get(job_id)
            error = {"attempt": worker.attempt, "type": "SupervisorTimeout",
                     "message": f"supervision run exceeded "
                                f"{self.config.max_wall_seconds}s"}
            self._record_failure(record, worker.attempt, error, report)

    def _jitter(self, job_id: str, attempt: int) -> float:
        """Deterministic jitter in ``[0, jitter_seconds)``."""
        digest = hashlib.sha256(f"{job_id}:{attempt}".encode()).digest()
        fraction = int.from_bytes(digest[:8], "big") / 2 ** 64
        return self.config.jitter_seconds * fraction

    def _emit(self, event: str, **fields) -> None:
        if self.trace is not None:
            self.trace({"event": event, "time": round(time.time(), 6),
                        **fields})
