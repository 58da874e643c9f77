"""Per-step simulation traces: records, JSONL sink, summarisation.

A trace is the run-time telemetry the paper's plots are made of: how the
state DD grows step by step, where the caches stop hitting, and when the
memory manager intervened.  :meth:`SimulationEngine.simulate
<repro.simulation.engine.SimulationEngine.simulate>` accepts any callable
as ``trace``; each event is a flat JSON-serialisable dict.

Event schema (all events carry ``event`` and ``op_index``):

``step``
    One Eq. 1 state update.  Fields: ``op_index`` (0-based index of the
    state update within the run), ``gate`` (name, or ``"matrix"`` for a
    combined product), ``state_nodes`` (DD nodes; 0 while the state is an
    iterative-kernel dense block), ``dense_amps`` (the dense block's
    amplitude capacity; 0 for a DD state), ``product_nodes`` (pending
    combined product, 0 when none), ``live_nodes`` (package-wide interned
    nodes), ``apply_gate_hit_rate`` / ``mult_mv_hit_rate`` (cumulative
    compute-table hit rates).
``solidify``
    A run that ended on a dense block was rebuilt as a DD (once, after its
    last step).  Fields: ``op_index`` (the last state update's),
    ``state_nodes`` (nodes of the rebuilt DD, the run's final state).
``gc``
    One garbage collection.  Fields: ``op_index``, ``nodes_freed``,
    ``surviving_nodes``, ``compute_entries_dropped``, ``pause_seconds``,
    ``limit`` (the governor's threshold after the collection -- grows after
    an ineffective one).
``degrade``
    One degradation action under memory pressure.  Fields: ``op_index``,
    ``action`` (always ``prune``), ``fidelity``, ``edges_cut``,
    ``state_nodes_before``, ``state_nodes_after``, ``live_nodes``,
    ``cumulative_fidelity``.
``checkpoint``
    One checkpoint written (periodic or on-failure).  Fields:
    ``op_index`` (next flattened operation to apply), ``path``,
    ``reason`` (``periodic``, or the exception class name), ``state_nodes``.
``reorder``
    One mid-run variable reorder (sift).  Fields: ``op_index``,
    ``reason`` (``pressure`` for governor-triggered, ``cadence`` for
    every-K), ``nodes_before`` / ``nodes_after`` (state DD size around the
    sift), ``permutation`` (cumulative qubit-to-level map, ``null`` when
    back to identity), ``live_nodes`` (after the post-sift collection).

The job supervisor (:mod:`repro.service.supervisor`) writes its events to
the same JSONL streams.  Supervision events carry ``job`` and ``time``
instead of ``op_index``:

``job``
    A job reached a notable state.  Fields: ``job``, ``action``
    (``running`` / ``done``), ``attempt``; ``done`` events add
    ``resumed_from_op``.
``lease``
    Lease lifecycle.  Fields: ``job``, ``action`` (``acquired`` /
    ``expired`` / ``reclaimed``), plus ``attempt`` / ``pid`` /
    ``lease_seconds`` (and ``heartbeat_age`` on expiry).
``retry``
    A failed attempt was re-queued with backoff.  Fields: ``job``,
    ``attempt``, ``error`` (type name), ``backoff_seconds``,
    ``next_attempt``.
``quarantine``
    Retries exhausted.  Fields: ``job``, ``attempts``, ``errors`` (the
    error-type chain, one entry per attempt).

:class:`JsonlTraceSink` appends events to a JSON-Lines file;
:func:`trace_summary` condenses a list of events (or a JSONL file) back
into aggregate numbers for reports.
"""

from __future__ import annotations

import json
from typing import IO, Iterable

__all__ = ["JsonlTraceSink", "load_trace", "trace_summary"]


class JsonlTraceSink:
    """Callable trace consumer that appends one JSON object per line.

    Usable as a context manager::

        with JsonlTraceSink("run.jsonl") as sink:
            engine.simulate(circuit, trace=sink)
    """

    def __init__(self, target: str | IO[str]) -> None:
        if isinstance(target, str):
            self._handle: IO[str] = open(target, "w", encoding="utf-8")
            self._owns_handle = True
        else:
            self._handle = target
            self._owns_handle = False
        self.events_written = 0

    def __call__(self, event: dict) -> None:
        self._handle.write(json.dumps(event, sort_keys=False) + "\n")
        self.events_written += 1

    def close(self) -> None:
        if self._owns_handle and not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "JsonlTraceSink":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def load_trace(path: str) -> list[dict]:
    """Parse a JSONL trace file back into a list of event dicts."""
    events = []
    with open(path, encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{line_number}: not valid JSON "
                                 f"({exc})") from None
    return events


def trace_summary(events: Iterable[dict] | str) -> dict:
    """Aggregate a trace into headline numbers.

    ``events`` may be an iterable of event dicts or a JSONL file path.
    Returns steps, peak/final state size, GC activity, and the final
    cumulative cache hit rates -- the digest the analysis layer renders.
    State sizes count DD nodes (``step`` and ``solidify`` events), as
    the run statistics do; dense blocks go to ``peak_dense_amps``.
    """
    if isinstance(events, str):
        events = load_trace(events)
    steps = 0
    peak_state = 0
    peak_dense = 0
    peak_product = 0
    final_state = 0
    peak_live = 0
    gc_events = 0
    gc_nodes_freed = 0
    gc_pause = 0.0
    degrade_events = 0
    degrade_fidelity = 1.0
    checkpoint_events = 0
    reorder_events = 0
    reorder_nodes_saved = 0
    jobs_done = 0
    lease_events = 0
    lease_expiries = 0
    retry_events = 0
    quarantine_events = 0
    last_hit_rates: dict[str, float] = {}
    for event in events:
        kind = event.get("event")
        if kind == "step":
            steps += 1
            state_nodes = event.get("state_nodes", 0)
            final_state = state_nodes
            peak_state = max(peak_state, state_nodes)
            peak_dense = max(peak_dense, event.get("dense_amps", 0))
            peak_product = max(peak_product, event.get("product_nodes", 0))
            peak_live = max(peak_live, event.get("live_nodes", 0))
            for key in ("apply_gate_hit_rate", "mult_mv_hit_rate"):
                if key in event:
                    last_hit_rates[key] = event[key]
        elif kind == "solidify":
            final_state = event.get("state_nodes", 0)
            peak_state = max(peak_state, final_state)
        elif kind == "gc":
            gc_events += 1
            gc_nodes_freed += event.get("nodes_freed", 0)
            gc_pause += event.get("pause_seconds", 0.0)
        elif kind == "degrade":
            degrade_events += 1
            degrade_fidelity *= event.get("fidelity", 1.0)
        elif kind == "checkpoint":
            checkpoint_events += 1
        elif kind == "reorder":
            reorder_events += 1
            reorder_nodes_saved += (event.get("nodes_before", 0)
                                    - event.get("nodes_after", 0))
        elif kind == "job":
            if event.get("action") == "done":
                jobs_done += 1
        elif kind == "lease":
            lease_events += 1
            if event.get("action") == "expired":
                lease_expiries += 1
        elif kind == "retry":
            retry_events += 1
        elif kind == "quarantine":
            quarantine_events += 1
    summary = {
        "steps": steps,
        "peak_state_nodes": peak_state,
        "peak_dense_amps": peak_dense,
        "peak_product_nodes": peak_product,
        "final_state_nodes": final_state,
        "peak_live_nodes": peak_live,
        "gc_events": gc_events,
        "gc_nodes_freed": gc_nodes_freed,
        "gc_pause_seconds": round(gc_pause, 6),
        "degrade_events": degrade_events,
        "degrade_fidelity": round(degrade_fidelity, 9),
        "checkpoint_events": checkpoint_events,
        "reorder_events": reorder_events,
        "reorder_nodes_saved": reorder_nodes_saved,
        **{key: round(value, 6) for key, value in last_hit_rates.items()},
    }
    # supervision counters only appear when the trace contains job events,
    # so pure engine traces keep their historical summary shape
    if jobs_done or lease_events or retry_events or quarantine_events:
        summary.update({
            "jobs_done": jobs_done,
            "lease_events": lease_events,
            "lease_expiries": lease_expiries,
            "retry_events": retry_events,
            "quarantine_events": quarantine_events,
        })
    return summary
