"""Per-step trace hook: event schema, JSONL sink, summarisation."""

import json

import pytest

from repro.algorithms import supremacy_circuit
from repro.algorithms.grover import grover_circuit
from repro.circuit import QuantumCircuit
from repro.dd import Package
from repro.simulation import (JsonlTraceSink, MemoryGovernor,
                              SequentialStrategy, SimulationEngine,
                              load_trace, strategy_from_spec, trace_summary)

STEP_FIELDS = {"event", "op_index", "gate", "state_nodes", "dense_amps",
               "product_nodes", "live_nodes", "apply_gate_hit_rate",
               "mult_mv_hit_rate"}
GC_FIELDS = {"event", "op_index", "nodes_freed", "surviving_nodes",
             "compute_entries_dropped", "pause_seconds", "limit"}


def ghz_circuit(n: int = 4) -> QuantumCircuit:
    qc = QuantumCircuit(n)
    qc.h(0)
    for q in range(n - 1):
        qc.cx(q, q + 1)
    return qc


class TestTraceCallback:
    def test_one_step_event_per_state_update(self):
        events = []
        engine = SimulationEngine()
        result = engine.simulate(ghz_circuit(), SequentialStrategy(),
                                 trace=events.append)
        steps = [e for e in events if e["event"] == "step"]
        assert len(steps) == result.statistics.matrix_vector_mults
        assert all(STEP_FIELDS <= set(e) for e in steps)
        assert [e["op_index"] for e in steps] == list(range(len(steps)))
        assert steps[0]["gate"] == "h"

    def test_gc_events_under_tight_limit(self):
        events = []
        engine = SimulationEngine(governor=MemoryGovernor(node_limit=2))
        engine.simulate(ghz_circuit(5), SequentialStrategy(),
                        trace=events.append)
        gc_events = [e for e in events if e["event"] == "gc"]
        assert gc_events, "a 2-node limit must trigger collections"
        assert all(GC_FIELDS <= set(e) for e in gc_events)

    @pytest.mark.parametrize("spec", ["sequential", "smax=16"])
    @pytest.mark.parametrize("options", [
        pytest.param({}, id="recursive"),
        pytest.param({"kernel": "iterative", "dense_blocks": False},
                     id="iterative"),
    ])
    def test_step_hit_rates_are_the_compute_rows(self, options, spec):
        # the iterative kernel's memos report under the object core's
        # rows; a step must not read the object tables alone
        package = Package(**options)
        events = []
        SimulationEngine(package).simulate(
            grover_circuit(6, 13).circuit, strategy_from_spec(spec),
            trace=events.append)
        last = [e for e in events if e["event"] == "step"][-1]
        compute = package.cache_stats()["compute"]
        assert last["apply_gate_hit_rate"] == \
            compute["apply_gate"]["hit_rate"]
        assert last["mult_mv_hit_rate"] == compute["mult_mv"]["hit_rate"]

    def test_no_trace_means_no_overhead_fields(self):
        # the default path must not require a trace consumer
        engine = SimulationEngine()
        result = engine.simulate(ghz_circuit(), SequentialStrategy())
        assert result.statistics.matrix_vector_mults == 4


class TestJsonlSink:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        engine = SimulationEngine()
        with JsonlTraceSink(path) as sink:
            engine.simulate(ghz_circuit(), SequentialStrategy(), trace=sink)
        assert sink.events_written == 4
        events = load_trace(path)
        assert len(events) == 4
        assert all(e["event"] == "step" for e in events)

    def test_wraps_existing_handle(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            sink = JsonlTraceSink(handle)
            sink({"event": "step", "op_index": 0})
            sink.close()  # must not close a caller-owned handle
            assert not handle.closed

    def test_load_rejects_bad_json(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        path.write_text('{"event": "step"}\nnot json\n')
        with pytest.raises(ValueError, match=r":2:"):
            load_trace(str(path))

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "gaps.jsonl"
        path.write_text('{"event": "step", "state_nodes": 3}\n\n')
        assert len(load_trace(str(path))) == 1


class TestTraceSummary:
    def test_summary_from_events(self):
        events = []
        engine = SimulationEngine(governor=MemoryGovernor(node_limit=2))
        engine.simulate(ghz_circuit(5), SequentialStrategy(),
                        trace=events.append)
        summary = trace_summary(events)
        assert summary["steps"] == 5
        assert summary["peak_state_nodes"] >= summary["final_state_nodes"]
        assert summary["gc_events"] > 0
        assert summary["gc_pause_seconds"] >= 0

    def test_summary_from_path(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        engine = SimulationEngine()
        with JsonlTraceSink(path) as sink:
            engine.simulate(ghz_circuit(), SequentialStrategy(), trace=sink)
        summary = trace_summary(path)
        assert summary["steps"] == 4
        assert summary["final_state_nodes"] > 0

    @pytest.mark.parametrize("kernel,dense_amps", [
        ("recursive", 0), ("iterative", 512)])
    def test_dense_steps_agree_with_the_statistics(self, kernel, dense_amps):
        """A dense block is no DD: its steps count into ``peak_dense_amps``
        and the rebuilt final DD (a ``solidify`` event) into the nodes."""
        events = []
        engine = SimulationEngine(Package(kernel=kernel))
        result = engine.simulate(supremacy_circuit(3, 3, 8, 1).circuit,
                                 SequentialStrategy(), trace=events.append)
        stats = result.statistics
        summary = trace_summary(events)
        assert (summary["peak_state_nodes"], summary["final_state_nodes"],
                summary["peak_dense_amps"]) == (
            stats.peak_state_nodes, stats.final_state_nodes,
            stats.peak_dense_amps) == (63, 63, dense_amps)
        solidified = [e for e in events if e["event"] == "solidify"]
        assert len(solidified) == (kernel == "iterative")
        assert all(STEP_FIELDS <= set(e) for e in events
                   if e["event"] == "step")

    def test_rendering_in_analysis_layer(self, tmp_path):
        from repro.analysis import format_trace_summary
        path = str(tmp_path / "run.jsonl")
        engine = SimulationEngine()
        with JsonlTraceSink(path) as sink:
            engine.simulate(ghz_circuit(), SequentialStrategy(), trace=sink)
        text = format_trace_summary(path, title="ghz trace")
        assert "ghz trace" in text
        assert "steps" in text

    def test_events_are_json_serialisable(self):
        events = []
        engine = SimulationEngine(governor=MemoryGovernor(node_limit=2))
        engine.simulate(ghz_circuit(5), SequentialStrategy(),
                        trace=events.append)
        for event in events:
            json.dumps(event)
