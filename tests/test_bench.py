"""Benchmark harness: report schema, thrash scenario, trace, CLI plumbing."""

import json

import pytest

from repro.bench import (SMOKE_WORKLOADS, THRASH_CONFIG, WORKLOADS, main,
                         run_bench, thrash_circuit)
from repro.simulation import load_trace

REQUIRED_WORKLOAD_KEYS = {"name", "description", "num_qubits",
                          "num_operations", "fast_path", "matrix_path",
                          "iterative_path", "speedup_fast_vs_matrix",
                          "speedup_iterative_vs_fast",
                          "fidelity_iterative_vs_fast"}
REQUIRED_MEASURE_KEYS = {"wall_seconds_best", "wall_seconds_median",
                         "matrix_vector_mults", "local_gate_applications",
                         "peak_state_nodes", "final_state_nodes",
                         "counters", "cache", "gc"}
REQUIRED_GC_KEYS = {"collections", "nodes_freed", "pause_seconds",
                    "compute_entries_dropped", "ineffective"}
REQUIRED_THRASH_KEYS = {"name", "description", "num_qubits",
                        "num_operations", "node_limit", "ungoverned",
                        "fixed_threshold", "governed",
                        "speedup_governed_vs_fixed",
                        "fidelity_governed_vs_ungoverned",
                        "fidelity_fixed_vs_ungoverned"}
REQUIRED_REORDER_KEYS = {"name", "description", "num_qubits",
                         "num_operations", "ordered", "sifted",
                         "node_ratio_ordered_vs_sifted",
                         "final_permutation",
                         "fidelity_sifted_vs_ordered"}


class TestWorkloadCatalogue:
    def test_four_workloads_per_profile(self):
        # acceptance criterion: Grover, QFT, supremacy, random Clifford
        for suite in (WORKLOADS, SMOKE_WORKLOADS):
            prefixes = {w.name.split("_")[0] for w in suite}
            assert prefixes == {"grover", "qft", "supremacy", "clifford"}

    def test_builders_are_deterministic(self):
        workload = SMOKE_WORKLOADS[3]  # seeded random Clifford circuit
        assert workload.build() == workload.build()


class TestRunBench:
    def test_report_schema(self):
        report = run_bench(smoke=True, repeats=1, workload_names=["qft_10"])
        assert report["schema"] == 4
        assert report["profile"] == "smoke"
        (entry,) = report["workloads"]
        assert REQUIRED_WORKLOAD_KEYS <= set(entry)
        for path in ("fast_path", "matrix_path", "iterative_path"):
            assert REQUIRED_MEASURE_KEYS <= set(entry[path])
            assert REQUIRED_GC_KEYS <= set(entry[path]["gc"])
        for path in ("fast_path", "matrix_path"):
            assert entry[path]["counters"]["total_recursions"] > 0
        # fast path applies gates locally; matrix path never does
        assert entry["fast_path"]["local_gate_applications"] > 0
        assert entry["matrix_path"]["local_gate_applications"] == 0
        assert entry["speedup_fast_vs_matrix"] > 0
        assert entry["speedup_iterative_vs_fast"] > 0
        # the iterative arm is measured against the recursive fast path's
        # final state on every bench run -- the receipt for correctness
        assert entry["fidelity_iterative_vs_fast"] >= 1 - 1e-9
        assert "dense" in entry["iterative_path"]

    def test_unknown_workload_rejected(self):
        with pytest.raises(KeyError):
            run_bench(smoke=True, workload_names=["nope"])

    def test_tight_gc_limit_records_collections(self):
        report = run_bench(smoke=True, repeats=1,
                           workload_names=["grover_8"], gc_limit=64)
        assert report["gc_limit"] == 64
        (entry,) = report["workloads"]
        assert entry["fast_path"]["gc"]["collections"] > 0

    def test_trace_file_parses_and_summary_present(self, tmp_path):
        trace_path = str(tmp_path / "bench_trace.jsonl")
        report = run_bench(smoke=True, repeats=1,
                           workload_names=["qft_10"], trace_path=trace_path)
        assert report["trace_file"] == trace_path
        events = load_trace(trace_path)
        assert events, "traced run must emit events"
        assert all(e["workload"] == "qft_10" for e in events)
        (entry,) = report["workloads"]
        summary = entry["trace_summary"]
        assert summary["steps"] > 0
        assert summary["peak_state_nodes"] >= summary["final_state_nodes"]


class TestThrashScenario:
    def test_thrash_circuit_is_deterministic(self):
        rows, cols, depth, tail, seed, _ = THRASH_CONFIG["smoke"]
        assert thrash_circuit(rows, cols, depth, tail, seed) == \
            thrash_circuit(rows, cols, depth, tail, seed)

    def test_thrash_section_schema_and_fidelity(self):
        # no timing assertions here (wall-clock ratios are machine noise in
        # CI); the >= 5x receipt lives in the checked-in BENCH_kernel.json
        report = run_bench(smoke=True, repeats=1,
                           workload_names=["grover_8"])
        thrash = report["thrash"]
        assert REQUIRED_THRASH_KEYS <= set(thrash)
        assert thrash["fidelity_governed_vs_ungoverned"] >= 1 - 1e-10
        assert thrash["fidelity_fixed_vs_ungoverned"] >= 1 - 1e-10
        # the fixed-threshold arm must actually thrash: far more
        # collections than the governed arm on the same circuit
        fixed_gc = thrash["fixed_threshold"]["gc"]["collections"]
        governed_gc = thrash["governed"]["gc"]["collections"]
        assert fixed_gc > 10 * max(governed_gc, 1)
        assert thrash["governed"]["governor"]["limit_growths"] >= 1


class TestReorderScenario:
    def test_reorder_section_schema_and_collapse(self):
        # again no wall-clock assertions; the receipt is the node-count
        # collapse and the in-harness fidelity gate at 1 - 1e-9
        report = run_bench(smoke=True, repeats=1,
                           workload_names=["grover_8"])
        reorder = report["reorder"]
        assert REQUIRED_REORDER_KEYS <= set(reorder)
        assert reorder["fidelity_sifted_vs_ordered"] >= 1 - 1e-9
        assert reorder["sifted"]["reorders"] >= 1
        assert reorder["ordered"]["reorders"] == 0
        # the whole point: sifting collapses the pairing worst case
        assert reorder["sifted"]["final_state_nodes"] \
            < reorder["ordered"]["final_state_nodes"]
        assert reorder["node_ratio_ordered_vs_sifted"] > 1
        num_qubits = reorder["num_qubits"]
        assert sorted(reorder["final_permutation"]) == list(range(num_qubits))


class TestCli:
    def test_writes_json_file(self, tmp_path, capsys):
        output = tmp_path / "bench.json"
        code = main(["--smoke", "--repeats", "1",
                     "--workload", "grover_8", "--output", str(output)])
        assert code == 0
        report = json.loads(output.read_text())
        assert [w["name"] for w in report["workloads"]] == ["grover_8"]
        assert "wrote" in capsys.readouterr().out

    def test_stdout_mode(self, capsys):
        code = main(["--smoke", "--repeats", "1",
                     "--workload", "qft_10", "--output", "-"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["profile"] == "smoke"


class TestAuditFlag:
    def test_audited_run_sets_flag_and_passes(self):
        report = run_bench(smoke=True, repeats=1, workload_names=["qft_10"],
                           audit=True)
        assert report["audited"] is True

    def test_unaudited_run_records_false(self):
        report = run_bench(smoke=True, repeats=1, workload_names=["qft_10"])
        assert report["audited"] is False
