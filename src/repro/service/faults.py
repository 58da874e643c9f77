"""Deterministic fault injection -- one vocabulary for sweeps and jobs.

Chaos engineering only works when the chaos is *reproducible*: a fault
schedule must fire at the same operation, in the same attempt, every run.
This module is the single entry point for injected failures across the
codebase -- the sweep runner's historical ad-hoc ``_inject_fault`` hook and
the job supervisor's chaos harness both parse the same specs and drive the
same :class:`FaultInjector`.

Fault specs (strings, stored in :class:`~repro.simulation.sweep.SweepTask`
``fault`` / :class:`~repro.service.jobs.JobSpec` ``fault``):

``raise`` / ``hang`` / ``os._exit``
    Legacy start-of-cell faults: raise a ``RuntimeError``, sleep for an
    hour (exercises timeouts and lease expiry), or hard-kill the worker
    process.  These fire on *every* attempt -- they model poison inputs.
``kill@K``
    Hard-kill the worker (``os._exit``) right after the unit holding
    elementary operation ``K`` completes: the operation itself, or the
    DD-repeating pass it belongs to.  Models an OOM kill / segfault
    mid-run.
``latency=S``
    Sleep ``S`` seconds after every operation.  Models a pathologically
    slow worker; with a lease shorter than ``S`` it forces lease expiry.
``budget@K``
    Raise :class:`InjectedBudgetFault` (a
    :class:`~repro.simulation.memory.MemoryBudgetExceeded`) after
    operation ``K`` -- a checkpointed run writes a checkpoint on the way
    out exactly as for a real budget abort.
``truncate-checkpoint@K`` / ``corrupt-checkpoint@K``
    After operation ``K``, truncate (or overwrite with garbage) the run's
    checkpoint file, then hard-kill the worker.  The retry must detect the
    damage (:class:`~repro.simulation.checkpoint.CheckpointError`) and
    restart from operation 0 instead of poisoning the job.

Every op-scoped fault fires only while ``attempt <= fault.attempts``
(default: the first attempt), so a retried job stops being sabotaged and
can complete -- append ``:xN`` to keep a fault active for the first ``N``
attempts (``kill@12:x2``).  The legacy start faults ignore the attempt
(``attempts=None`` -- always active).

:class:`Deadline` is the cooperative timeout companion: a per-op callback
that raises when a wall-clock budget is exceeded, used wherever
``SIGALRM`` is unavailable (and as a belt-and-braces second layer where it
is).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

from ..simulation.memory import MemoryBudgetExceeded

__all__ = ["Deadline", "Fault", "FaultInjector", "InjectedBudgetFault",
           "chain_hooks", "parse_fault", "EXIT_CODE"]

#: exit status used by hard-kill faults (mimics an abrupt worker death)
EXIT_CODE = 86

#: legacy start-of-run fault kinds (fire before the first operation, on
#: every attempt)
_START_KINDS = ("raise", "hang", "os._exit")

#: op-scoped fault kinds (fire from a per-op-boundary callback)
_OP_KINDS = ("kill", "latency", "budget", "truncate-checkpoint",
             "corrupt-checkpoint")


class InjectedBudgetFault(MemoryBudgetExceeded):
    """A fault-injected memory-budget abort.

    Subclasses :class:`MemoryBudgetExceeded` so every layer above (the
    engine's checkpoint-on-failure path, the sweep's failure records, the
    supervisor's retry logic) treats it exactly like a real budget abort,
    while the type name keeps injected failures recognisable in reports.
    """

    def __init__(self, op_index: int) -> None:
        MemoryError.__init__(
            self, f"injected MemoryBudgetExceeded after operation "
                  f"{op_index}")
        self.live_nodes = 0
        self.max_nodes = 0
        self.checkpoint_path: str | None = None


@dataclass(frozen=True)
class Fault:
    """One parsed fault: what to do, when, and for how many attempts."""

    kind: str
    #: 0-based elementary-operation boundary for op-scoped faults
    at_op: int | None = None
    #: per-op sleep for ``latency`` faults
    seconds: float = 0.0
    #: fault is active while ``attempt <= attempts``; ``None`` = always
    attempts: int | None = 1

    @property
    def op_scoped(self) -> bool:
        return self.kind in _OP_KINDS


def parse_fault(spec: str | None) -> Fault | None:
    """Parse a fault spec string; ``None`` passes through.

    Raises :class:`ValueError` naming the malformed spec -- a bad schedule
    should fail the submission, not every individual run.
    """
    if spec is None:
        return None
    text, attempts = spec, 1
    if ":x" in text:
        text, _, scope = text.rpartition(":x")
        try:
            attempts = int(scope)
        except ValueError:
            raise ValueError(f"bad fault attempt scope in {spec!r} "
                             f"(expected ':x<N>')") from None
        if attempts < 1:
            raise ValueError(f"fault attempt scope must be >= 1 in {spec!r}")
    if text in _START_KINDS:
        if ":x" in spec:
            raise ValueError(f"start fault {text!r} fires on every attempt; "
                             f"an ':xN' scope does not apply ({spec!r})")
        return Fault(kind=text, attempts=None)
    if text.startswith("latency="):
        try:
            seconds = float(text[len("latency="):])
        except ValueError:
            raise ValueError(f"bad latency fault {spec!r} "
                             f"(expected 'latency=<seconds>')") from None
        if seconds < 0:
            raise ValueError(f"latency must be >= 0 in {spec!r}")
        return Fault(kind="latency", seconds=seconds, attempts=attempts)
    if "@" in text:
        kind, _, position = text.partition("@")
        if kind in ("kill", "budget", "truncate-checkpoint",
                    "corrupt-checkpoint"):
            try:
                at_op = int(position)
            except ValueError:
                raise ValueError(f"bad fault op index in {spec!r} "
                                 f"(expected '{kind}@<op>')") from None
            if at_op < 0:
                raise ValueError(f"fault op index must be >= 0 in {spec!r}")
            return Fault(kind=kind, at_op=at_op, attempts=attempts)
    raise ValueError(
        f"unknown fault injection {spec!r} (expected one of "
        f"{', '.join(_START_KINDS)}, kill@K, latency=S, budget@K, "
        f"truncate-checkpoint@K, corrupt-checkpoint@K, "
        f"optionally scoped ':xN')")


class FaultInjector:
    """Drives one parsed fault against one run attempt.

    Parameters
    ----------
    fault:
        A :class:`Fault` (or spec string, or ``None`` for no fault).
    in_worker:
        Whether the current process is a disposable worker.  Hard-kill
        faults only ever ``os._exit`` in workers; inline execution records
        the would-be crash as an ordinary ``RuntimeError`` instead -- a
        fault must never take the caller's process down.
    attempt:
        1-based attempt number; op-scoped faults are inert once
        ``attempt > fault.attempts``.
    label:
        Human-readable run identity used in raised messages.
    checkpoint_path:
        Where the run writes checkpoints; required by the
        checkpoint-damage faults.
    """

    def __init__(self, fault: Fault | str | None, *, in_worker: bool,
                 attempt: int = 1, label: str = "run",
                 checkpoint_path: str | None = None) -> None:
        if isinstance(fault, str):
            fault = parse_fault(fault)
        self.fault = fault
        self.in_worker = in_worker
        self.attempt = attempt
        self.label = label
        self.checkpoint_path = checkpoint_path
        self.fired = False

    @property
    def active(self) -> bool:
        fault = self.fault
        if fault is None:
            return False
        return fault.attempts is None or self.attempt <= fault.attempts

    @property
    def wants_op_hook(self) -> bool:
        """Whether this injector must be wired into the per-op callback."""
        return self.active and self.fault.op_scoped

    # -- firing points ---------------------------------------------------

    def at_start(self) -> None:
        """Fire a legacy start-of-run fault, if any."""
        if not self.active or self.fault.kind not in _START_KINDS:
            return
        kind = self.fault.kind
        if kind == "raise":
            raise RuntimeError(f"injected failure in {self.label}")
        if kind == "hang":
            time.sleep(3600)
            return
        if kind == "os._exit":
            self._die("start")

    def on_op(self, op_index: int) -> None:
        """Per-op-boundary firing point (``op_index`` just completed)."""
        if not self.wants_op_hook:
            return
        fault = self.fault
        if fault.kind == "latency":
            time.sleep(fault.seconds)
            return
        if op_index != fault.at_op:
            return
        self.fired = True
        if fault.kind == "kill":
            self._die(f"op {op_index}")
        elif fault.kind == "budget":
            raise InjectedBudgetFault(op_index)
        elif fault.kind in ("truncate-checkpoint", "corrupt-checkpoint"):
            self._damage_checkpoint(fault.kind)
            self._die(f"op {op_index}, after damaging the checkpoint")

    # -- helpers ---------------------------------------------------------

    def _die(self, where: str) -> None:
        if self.in_worker:
            os._exit(EXIT_CODE)  # mimic an OOM kill / hard crash
        # Inline execution must never take the whole process down; record
        # the would-be crash as an ordinary failure instead.
        raise RuntimeError(
            f"{self.label} would have killed its worker at {where} "
            "(hard-kill faults run only in worker processes)")

    def _damage_checkpoint(self, kind: str) -> None:
        path = self.checkpoint_path
        if path is None or not os.path.exists(path):
            return
        if kind == "truncate-checkpoint":
            # keep a prefix so the damage parses as *truncated JSON*, the
            # exact mid-write shape the loader must reject cleanly
            with open(path, "r+", encoding="utf-8") as handle:
                handle.truncate(max(1, os.path.getsize(path) // 3))
        else:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write('{"version": 2, "op_index": "garbage"')


class Deadline:
    """Cooperative wall-clock budget, checked at per-op boundaries.

    ``SIGALRM`` timeouts only exist on POSIX main threads; everywhere else
    a run used to exceed its budget silently.  A :class:`Deadline` is a
    plain callable for the engine's ``on_op`` hook: it raises
    ``exception_type`` as soon as an operation boundary passes the budget.
    It cannot interrupt a single operation that never finishes (that still
    needs ``SIGALRM`` or the supervisor's lease expiry), but it bounds
    every run that makes progress.
    """

    def __init__(self, seconds: float, exception_type: type[Exception],
                 label: str = "run") -> None:
        self.seconds = seconds
        self.exception_type = exception_type
        self.label = label
        self.started = time.monotonic()

    def __call__(self, op_index: int) -> None:
        elapsed = time.monotonic() - self.started
        if elapsed > self.seconds:
            raise self.exception_type(
                f"{self.label} exceeded {self.seconds}s "
                f"(cooperative deadline after operation {op_index}, "
                f"{elapsed:.3f}s elapsed)")


def chain_hooks(*hooks):
    """Compose per-op callbacks; ``None`` entries are skipped.

    Returns a single ``on_op`` callable, or ``None`` when every hook is
    ``None`` -- so callers can pass the result straight to the engine
    without re-enabling the hook path for nothing.
    """
    active = [hook for hook in hooks if hook is not None]
    if not active:
        return None
    if len(active) == 1:
        return active[0]

    def on_op(op_index: int) -> None:
        for hook in active:
            hook(op_index)

    return on_op
