"""Parallel batch execution of experiment cells (``SweepRunner``).

The paper's evidence is a *sweep*: every benchmark instance crossed with
every strategy (and, for the tables, a couple of repetitions), each cell
timed and compared.  Run serially, the ``accurate`` reproduction profile
takes hours; this module fans the cells out over a pool of shared-nothing
worker processes.

Design constraints, in decreasing order of importance:

**Per-worker isolation is mandatory, not an optimisation.**  DD node
identity is process-local state: nodes are interned in per-\
:class:`~repro.dd.package.Package` unique tables, compute-table slots hash
on node object addresses, and ``id()`` values are meaningless across
processes.  Workers therefore never share DD state -- every cell constructs
its own :class:`Package` (inside a fresh engine) and ships *plain data*
(:meth:`SimulationStatistics.as_dict`) back to the parent.

**A blown-up cell never kills the sweep.**  A cell that raises, exceeds its
``max_nodes`` budget, or runs past its ``timeout`` is recorded as a
``failed``/``timeout`` :class:`CellResult` carrying an error record; the
remaining cells are unaffected.

**A died worker's cells are retried once on a fresh pool.**  If a worker
process dies mid-cell (OOM-killed, segfault, ``os._exit``), the pool is
broken for every in-flight future; the runner rebuilds it and retries the
affected cells sequentially on one-worker pools, so the actual killer is
identified precisely (it breaks its private pool again and is recorded as
failed) while innocent casualties complete normally.

**Results merge in stable task order.**  The report lists one
:class:`CellResult` per task, in task-submission order, regardless of which
worker finished first -- serial (``jobs=1``) and parallel runs of the same
task list produce reports in the same order, and all schedule-determined
fields (operation counts, MxV/MxM multiplication counts, DD node sizes)
are bit-identical.  Wall-clock fields are measured *in the worker*, around
the cell alone, so parallel timings remain comparable to serial ones (they
exclude pool scheduling); they still jitter run-to-run like any timing.

**Deterministic per-task seeding.**  Every task gets a seed derived from
``(sweep seed, instance, strategy, repetition)`` via SHA-256 --
independent of worker assignment, completion order, and ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import hashlib
import os
import signal
import time
from collections.abc import Callable
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .statistics import SimulationStatistics

if TYPE_CHECKING:
    from multiprocessing.context import BaseContext

    from ..circuit.circuit import QuantumCircuit
    from .memory import MemoryGovernor

__all__ = ["SweepTask", "CellResult", "SweepReport", "SweepRunner",
           "task_seed", "run_cell"]

#: fields of ``SimulationStatistics.as_dict()`` that are determined by the
#: strategy schedule and canonical DD structure alone -- bit-identical
#: across processes, job counts, and machines (unlike wall-clock times and
#: recursion counters, whose cache-collision patterns depend on
#: process-local object addresses).
DETERMINISTIC_STAT_FIELDS = (
    "strategy", "circuit_name", "num_qubits", "backend",
    "operations_applied",
    "matrix_vector_mults", "matrix_matrix_mults",
    "reused_block_applications", "direct_constructions",
    "local_gate_applications", "peak_state_nodes", "peak_dense_amps",
    "peak_matrix_nodes", "final_state_nodes",
)


def task_seed(base_seed: int, name: str, strategy: str,
              repetition: int) -> int:
    """Deterministic 63-bit seed for one cell.

    Derived by hashing the cell's identity, not by drawing from a shared
    RNG, so the seed does not depend on how many tasks were planned before
    this one, which worker runs it, or the process's hash randomisation.
    """
    text = f"{base_seed}:{name}:{strategy}:{repetition}"
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


@dataclass(frozen=True)
class SweepTask:
    """One experiment cell: instance x strategy x repetition.

    Tasks cross process boundaries, so they carry only plain data:

    * ``kind="instance"`` -- a benchmark instance rebuilt in the worker
      from ``metadata`` (see
      :func:`repro.analysis.instances.instance_from_spec`); registry
      instances need only their ``name``.
    * ``kind="qasm"`` -- an inline OpenQASM-2 circuit (the text itself, not
      a path, so workers never race on the filesystem).
    * ``kind="construct"`` -- the DD-construct realisation of a Shor
      instance (``metadata`` carries ``modulus``/``base``/``seed``).
    * ``kind="fuzz"`` -- one differential-fuzzing campaign
      (:func:`repro.verification.fuzz.run_fuzz_cell`; ``metadata``
      carries the fuzz config plus ``budget_seconds``/``max_circuits``).
      A backend disagreement raises and is recorded as a failed cell
      whose error message carries the minimized reproducer.

    ``backend`` routes ``qasm``/``instance`` cells through a registered
    :mod:`repro.backends` adapter instead of the engine directly --
    the sweep's backend axis.  ``None`` keeps the legacy engine path
    (bit-identical to earlier reports).

    ``fault`` is a test-only hook parsed by
    :func:`repro.service.faults.parse_fault` (``"raise"``, ``"hang"``,
    ``"os._exit"``, ``"kill@K"``, ``"latency=S"``, ``"budget@K"``, ...)
    used by the fault-injection suites to exercise the failure paths
    without a contrived workload.
    """

    name: str
    strategy: str = "sequential"
    repetition: int = 0
    kind: str = "instance"
    metadata: dict = field(default_factory=dict)
    qasm: str | None = None
    use_local_apply: bool = False
    seed: int = 0
    timeout: float | None = None
    max_nodes: int | None = None
    gc_limit: int | None = None
    #: reorder policy spec (``"governor"`` / ``"every=K"``; ``None`` = off),
    #: honoured by ``qasm`` and ``instance`` cells
    reorder: str | None = None
    #: registered backend name (``repro.backends``) to run the cell
    #: through; ``None`` = the legacy direct-engine path
    backend: str | None = None
    fault: str | None = None

    def key(self) -> tuple:
        return (self.name, self.strategy, self.repetition)


@dataclass
class CellResult:
    """Outcome of one cell: statistics on success, an error record otherwise.

    ``wall_seconds`` is measured in the worker around the cell alone
    (engine construction + simulation), excluding pool scheduling and
    result pickling, so parallel and serial measurements are comparable.
    """

    name: str
    strategy: str
    repetition: int
    status: str = "ok"                    # "ok" | "failed" | "timeout"
    statistics: dict | None = None        # SimulationStatistics.as_dict()
    error: dict | None = None             # {"type": ..., "message": ...}
    attempts: int = 1
    worker_pid: int = 0
    wall_seconds: float = 0.0
    seed: int = 0

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def key(self) -> tuple:
        return (self.name, self.strategy, self.repetition)

    def stats(self) -> SimulationStatistics:
        """Rebuild the run's :class:`SimulationStatistics` (ok cells only)."""
        if self.statistics is None:
            raise ValueError(f"cell {self.key()} has no statistics "
                             f"(status {self.status!r})")
        return SimulationStatistics.from_dict(self.statistics)

    def as_dict(self, deterministic: bool = False) -> dict:
        """JSON payload; ``deterministic=True`` keeps only fields that are
        bit-identical across processes and job counts (drops wall-clock,
        worker pid, and the address-sensitive recursion counters)."""
        payload = {
            "name": self.name,
            "strategy": self.strategy,
            "repetition": self.repetition,
            "status": self.status,
            "attempts": self.attempts,
            "seed": self.seed,
        }
        if self.error is not None:
            payload["error"] = dict(self.error)
            if deterministic:
                # tracebacks/messages may embed addresses or pids
                payload["error"] = {"type": self.error.get("type")}
        if self.statistics is not None:
            if deterministic:
                payload["statistics"] = {
                    key: self.statistics[key]
                    for key in DETERMINISTIC_STAT_FIELDS
                    if key in self.statistics}
            else:
                payload["statistics"] = dict(self.statistics)
        if not deterministic:
            payload["worker_pid"] = self.worker_pid
            payload["wall_seconds"] = round(self.wall_seconds, 6)
        return payload


@dataclass
class SweepReport:
    """All cell results, in task-submission order, plus sweep metadata."""

    cells: list[CellResult]
    jobs: int
    wall_seconds: float = 0.0

    @property
    def failed_cells(self) -> list[CellResult]:
        return [cell for cell in self.cells if not cell.ok]

    @property
    def all_ok(self) -> bool:
        return not self.failed_cells

    def status_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for cell in self.cells:
            counts[cell.status] = counts.get(cell.status, 0) + 1
        return counts

    def stats_by_key(self) -> dict[tuple, SimulationStatistics]:
        """``(name, strategy, repetition) -> statistics`` for ok cells."""
        return {cell.key(): cell.stats() for cell in self.cells if cell.ok}

    def as_dict(self, deterministic: bool = False) -> dict:
        payload = {
            "schema": 1,
            "cells_total": len(self.cells),
            "status_counts": self.status_counts(),
            "cells": [cell.as_dict(deterministic) for cell in self.cells],
        }
        if not deterministic:
            # jobs and wall time describe *this run*, not the results; a
            # deterministic payload must compare equal across job counts
            payload["jobs"] = self.jobs
            payload["wall_seconds"] = round(self.wall_seconds, 6)
        return payload


class CellTimeout(Exception):
    """Raised inside a worker when a cell exceeds its wall-clock budget."""


# ----------------------------------------------------------------------
# worker-side execution
# ----------------------------------------------------------------------

def _governor_for(task: SweepTask) -> "MemoryGovernor | None":
    from .memory import DEFAULT_NODE_LIMIT, MemoryGovernor
    if task.max_nodes is None and task.gc_limit is None:
        return None
    return MemoryGovernor(node_limit=task.gc_limit or DEFAULT_NODE_LIMIT,
                          max_nodes=task.max_nodes)


def _simulate_task(task: SweepTask,
                   on_op: Callable[[int], None] | None = None
                   ) -> SimulationStatistics:
    """Run one cell on freshly constructed, process-local DD state.

    ``on_op`` is the engine's cheap per-op callback (cooperative deadlines
    and op-scoped fault injection).  ``qasm`` and circuit-backed
    ``instance`` cells honour it; ``construct`` cells (direct oracle DD
    builds, no simulation loop) and Shor instances (internally driven
    engine) have no op boundaries to observe it at.
    """
    from .strategies import strategy_from_spec
    if task.kind == "fuzz":
        from ..verification.fuzz import run_fuzz_cell
        return run_fuzz_cell(task.metadata, seed=task.seed)
    if task.backend is not None:
        return _simulate_task_backend(task, on_op)
    if task.kind == "construct":
        from ..analysis.instances import shor_dd_construct_statistics
        if task.reorder is not None:
            raise ValueError("construct cells build oracle DDs directly "
                             "(no simulation loop); reorder= does not apply")
        return shor_dd_construct_statistics(task.metadata["modulus"],
                                            task.metadata["base"],
                                            seed=task.metadata.get("seed", 7))
    if task.kind == "qasm":
        from ..circuit.qasm import from_qasm
        from .engine import SimulationEngine
        circuit = from_qasm(task.qasm)
        governor = _governor_for(task)
        if task.use_local_apply:
            engine = SimulationEngine(governor=governor)
        else:
            engine = SimulationEngine.paper_literal(governor=governor)
        result = engine.simulate(circuit, strategy_from_spec(task.strategy),
                                 reorder=task.reorder, on_op=on_op)
        return result.statistics
    if task.kind == "instance":
        from ..analysis.instances import instance_from_spec
        instance = instance_from_spec(task.metadata, task.name)
        return instance.run(strategy_from_spec(task.strategy),
                            use_local_apply=task.use_local_apply,
                            governor=_governor_for(task),
                            reorder=task.reorder,
                            on_op=on_op)
    raise ValueError(f"unknown task kind {task.kind!r}")


def _simulate_task_backend(task: SweepTask,
                           on_op: Callable[[int], None] | None = None
                           ) -> SimulationStatistics:
    """Run a ``qasm``/``instance`` cell through a registered backend.

    Engine-backed adapters honour budgets (``gc_limit``/``max_nodes``
    via factory options) and ``reorder``/``on_op`` run options; array
    backends reject unsupported options with a clear error, which the
    runner records as a failed cell rather than silently ignoring the
    request.
    """
    from ..backends import create_backend
    from ..circuit.qasm import from_qasm
    if task.kind == "qasm":
        circuit = from_qasm(task.qasm)
    elif task.kind == "instance":
        circuit = _instance_circuit(task)
    else:
        raise ValueError(
            f"backend= applies to qasm/instance cells, not {task.kind!r}")
    options = {}
    if task.gc_limit is not None:
        options["gc_limit"] = task.gc_limit
    if task.max_nodes is not None:
        options["max_nodes"] = task.max_nodes
    backend = create_backend(task.backend, **options)
    run_options = {}
    if task.reorder is not None:
        run_options["reorder"] = task.reorder
    if on_op is not None:
        run_options["on_op"] = on_op
    result = backend.run(circuit, strategy=task.strategy, **run_options)
    return result.statistics


def _instance_circuit(task: SweepTask) -> "QuantumCircuit":
    """The plain circuit of a circuit-backed instance cell.

    Rebuilt from the task's metadata (the same payload
    :func:`~repro.analysis.instances.instance_from_spec` uses), falling
    back to the registry under the cell's base name (the part before the
    ``@backend`` suffix the CLI appends for the backend axis).  Shor
    instances drive their own engine and have no standalone circuit.
    """
    kind = task.metadata.get("kind")
    if kind == "grover":
        from ..algorithms.grover import grover_circuit
        return grover_circuit(task.metadata["num_data_qubits"],
                              task.metadata["marked"]).circuit
    if kind == "supremacy":
        from ..algorithms.supremacy import supremacy_circuit
        return supremacy_circuit(task.metadata["rows"],
                                 task.metadata["cols"],
                                 task.metadata["depth"],
                                 task.metadata["seed"]).circuit
    if kind == "shor":
        raise ValueError(
            f"instance {task.name!r} is not circuit-backed (the Shor "
            f"order finder drives its own engine); backend= cells need "
            f"a plain circuit")
    from ..analysis.instances import instance_qasm
    from ..circuit.qasm import from_qasm
    return from_qasm(instance_qasm(task.name.rsplit("@", 1)[0]))


def run_cell(task: SweepTask, in_worker: bool = True) -> CellResult:
    """Execute one cell, converting every failure mode into a record.

    This is the single execution path for both worker processes and the
    inline (``jobs=1``) runner, which is what makes serial and parallel
    sweeps produce identical schedule-determined results.

    Timeouts use ``SIGALRM`` where available (the worker runs cells on
    its main thread), so they interrupt even cells that make no progress;
    elsewhere a cooperative :class:`~repro.service.faults.Deadline` checks
    the budget at every operation boundary instead -- it bounds every cell
    that makes progress, though a single operation that never finishes
    still needs the supervisor layer's lease expiry.

    Fault injection (the ``fault`` spec) goes through the shared
    :class:`~repro.service.faults.FaultInjector`: legacy start-of-cell
    faults (``raise`` / ``hang`` / ``os._exit``) plus op-scoped schedules
    (``kill@K``, ``latency=S``, ``budget@K``).
    """
    # lazy import: repro.simulation's package init imports this module,
    # and repro.service imports repro.simulation submodules
    from ..service.faults import Deadline, FaultInjector, chain_hooks
    result = CellResult(name=task.name, strategy=task.strategy,
                        repetition=task.repetition, worker_pid=os.getpid(),
                        seed=task.seed)
    use_alarm = task.timeout is not None and hasattr(signal, "SIGALRM")
    previous = None
    if use_alarm:
        def _on_alarm(signum, frame):
            raise CellTimeout(
                f"cell {task.key()} exceeded {task.timeout}s")
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, task.timeout)
    started = time.perf_counter()
    try:
        injector = FaultInjector(task.fault, in_worker=in_worker,
                                 label=f"cell {task.key()}")
        injector.at_start()
        deadline = None
        if task.timeout is not None and not use_alarm:
            deadline = Deadline(task.timeout, CellTimeout,
                                f"cell {task.key()}")
        on_op = chain_hooks(
            injector.on_op if injector.wants_op_hook else None, deadline)
        stats = _simulate_task(task, on_op=on_op)
        result.statistics = stats.as_dict()
    except CellTimeout as exc:
        result.status = "timeout"
        result.error = {"type": "CellTimeout", "message": str(exc)}
    except Exception as exc:  # incl. MemoryBudgetExceeded (a MemoryError)
        result.status = "failed"
        result.error = {"type": type(exc).__name__, "message": str(exc)}
    finally:
        if use_alarm:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
    result.wall_seconds = time.perf_counter() - started
    return result


def _worker_main(task: SweepTask) -> CellResult:
    return run_cell(task, in_worker=True)


# ----------------------------------------------------------------------
# the runner
# ----------------------------------------------------------------------

class SweepRunner:
    """Fan a task list out over shared-nothing worker processes.

    Parameters
    ----------
    jobs:
        Worker process count.  ``jobs=1`` executes inline in the calling
        process (no pool, easier debugging); results are identical to a
        parallel run up to wall-clock jitter.
    retries:
        How many times a cell whose *worker died* is retried on a fresh
        pool before being recorded as failed.  Cells that merely raise are
        never retried -- the exception is deterministic, the death of the
        host process is not necessarily.
    mp_context:
        A ``multiprocessing`` context (or context name like ``"fork"`` /
        ``"spawn"``); defaults to the platform default.
    """

    def __init__(self, jobs: int = 1, retries: int = 1,
                 mp_context: "BaseContext | str | None" = None) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.jobs = jobs
        self.retries = retries
        if isinstance(mp_context, str):
            import multiprocessing
            mp_context = multiprocessing.get_context(mp_context)
        self.mp_context = mp_context

    # -- public API -----------------------------------------------------

    def run(self, tasks: list[SweepTask]) -> SweepReport:
        """Execute every task; the report lists results in task order."""
        tasks = list(tasks)
        started = time.perf_counter()
        if self.jobs == 1 or len(tasks) <= 1:
            cells = [run_cell(task, in_worker=False) for task in tasks]
        else:
            cells = self._run_pool(tasks)
        return SweepReport(cells=cells, jobs=self.jobs,
                           wall_seconds=time.perf_counter() - started)

    # -- pool orchestration ---------------------------------------------

    def _run_pool(self, tasks: list[SweepTask]) -> list[CellResult]:
        results: dict[int, CellResult] = {}
        casualties = self._first_pass(tasks, results)
        for index in casualties:
            self._retry_isolated(index, tasks[index], results)
        return [results[i] for i in range(len(tasks))]

    def _first_pass(self, tasks: list[SweepTask],
                    results: dict[int, CellResult]) -> list[int]:
        """Run all tasks on one pool; return indices orphaned by a death.

        A dead worker breaks the whole ``ProcessPoolExecutor``: every
        unfinished future -- the killer's *and* innocent queued cells' --
        raises :class:`BrokenProcessPool`.  Rather than guess which cell
        was fatal, all of them go to :meth:`_retry_isolated`.
        """
        casualties: list[int] = []
        with ProcessPoolExecutor(max_workers=self.jobs,
                                 mp_context=self.mp_context) as pool:
            futures = {pool.submit(_worker_main, task): index
                       for index, task in enumerate(tasks)}
            pending = set(futures)
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    index = futures[future]
                    try:
                        results[index] = future.result()
                    except BrokenProcessPool:
                        casualties.append(index)
                    except Exception as exc:
                        # e.g. the result failed to unpickle -- a harness
                        # bug, but still: never kill the sweep.
                        results[index] = self._harness_failure(
                            tasks[index], exc, attempts=1)
        casualties.sort()
        return casualties

    def _retry_isolated(self, index: int, task: SweepTask,
                        results: dict[int, CellResult]) -> None:
        """Retry one orphaned cell on private single-worker pools.

        Isolation makes the diagnosis exact: if the cell's own fresh pool
        breaks again, *this* cell is the killer (and is recorded as
        failed once its retries run out); an innocent casualty of another
        cell's crash simply completes here.
        """
        attempts = 1  # the broken first pass counted as one attempt
        while True:
            try:
                with ProcessPoolExecutor(
                        max_workers=1, mp_context=self.mp_context) as pool:
                    result = pool.submit(_worker_main, task).result()
                result.attempts = attempts + 1
                results[index] = result
                return
            except BrokenProcessPool:
                attempts += 1
                if attempts > self.retries + 1:
                    results[index] = CellResult(
                        name=task.name, strategy=task.strategy,
                        repetition=task.repetition, status="failed",
                        error={"type": "WorkerDied",
                               "message": "worker process died mid-cell "
                                          f"{attempts} time(s) (killed or "
                                          "crashed); cell abandoned"},
                        attempts=attempts, seed=task.seed)
                    return
            except Exception as exc:
                results[index] = self._harness_failure(task, exc, attempts + 1)
                return

    @staticmethod
    def _harness_failure(task: SweepTask, exc: Exception,
                         attempts: int) -> CellResult:
        return CellResult(name=task.name, strategy=task.strategy,
                          repetition=task.repetition, status="failed",
                          error={"type": type(exc).__name__,
                                 "message": str(exc)},
                          attempts=attempts, seed=task.seed)
