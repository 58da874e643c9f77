"""Fault injection and determinism for the parallel sweep runner.

The runner's contract: a blown-up cell (raise, budget, timeout) never
kills the sweep, a killed *worker* costs at most that cell, results come
back in task order whatever the worker scheduling did, and the
schedule-determined fields are identical between serial and parallel runs.
"""

import json
import os
import signal

import pytest

from repro.simulation.sweep import (SweepRunner, SweepTask, run_cell,
                                    task_seed)

BELL_QASM = """
OPENQASM 2.0;
qreg q[2];
h q[0];
cx q[0],q[1];
"""

# enough structure that a tiny max_nodes budget genuinely trips
DENSE_QASM = """
OPENQASM 2.0;
qreg q[4];
h q[0]; h q[1]; h q[2]; h q[3];
cx q[0],q[1];
t q[1];
cx q[1],q[2];
t q[2];
cx q[2],q[3];
h q[0];
ccx q[0],q[1],q[3];
"""


def qasm_task(name: str, **overrides) -> SweepTask:
    defaults = dict(name=name, strategy="sequential", kind="qasm",
                    qasm=BELL_QASM)
    defaults.update(overrides)
    return SweepTask(**defaults)


def four_tasks() -> list[SweepTask]:
    return [qasm_task(f"cell_{i}", strategy=spec)
            for i, spec in enumerate(["sequential", "k=2", "smax=4",
                                      "sequential"])]


class TestTaskSeed:
    def test_deterministic(self):
        assert task_seed(0, "a", "k=2", 1) == task_seed(0, "a", "k=2", 1)

    def test_sensitive_to_every_component(self):
        base = task_seed(0, "a", "k=2", 1)
        assert task_seed(1, "a", "k=2", 1) != base
        assert task_seed(0, "b", "k=2", 1) != base
        assert task_seed(0, "a", "k=3", 1) != base
        assert task_seed(0, "a", "k=2", 2) != base


class TestOrderingAndParity:
    def test_inline_results_in_task_order(self):
        report = SweepRunner(jobs=1).run(four_tasks())
        assert [c.key() for c in report.cells] == \
            [t.key() for t in four_tasks()]
        assert report.all_ok
        assert report.jobs == 1

    def test_parallel_results_in_task_order(self):
        report = SweepRunner(jobs=2).run(four_tasks())
        assert [c.key() for c in report.cells] == \
            [t.key() for t in four_tasks()]
        assert report.all_ok

    def test_parallel_cells_ran_in_worker_processes(self):
        report = SweepRunner(jobs=2).run(four_tasks())
        assert all(c.worker_pid != os.getpid() for c in report.cells)

    def test_serial_and_parallel_deterministic_reports_identical(self):
        serial = SweepRunner(jobs=1).run(four_tasks())
        parallel = SweepRunner(jobs=2).run(four_tasks())
        assert serial.as_dict(deterministic=True) == \
            parallel.as_dict(deterministic=True)

    def test_deterministic_dict_drops_volatile_fields(self):
        report = SweepRunner(jobs=1).run(four_tasks())
        cell = report.as_dict(deterministic=True)["cells"][0]
        assert "wall_seconds" not in cell
        assert "worker_pid" not in cell
        assert "total_recursions" not in cell["statistics"]
        assert cell["statistics"]["matrix_vector_mults"] == 2


class TestFaultInjection:
    def test_raising_cell_is_recorded_not_fatal(self):
        tasks = four_tasks()
        tasks[1] = qasm_task("boom", fault="raise")
        report = SweepRunner(jobs=1).run(tasks)
        assert not report.all_ok
        boom = report.cells[1]
        assert boom.status == "failed"
        assert boom.error["type"] == "RuntimeError"
        assert "injected" in boom.error["message"]
        assert [c.status for i, c in enumerate(report.cells) if i != 1] \
            == ["ok", "ok", "ok"]

    def test_max_nodes_budget_blowup_is_recorded(self):
        task = qasm_task("budget", qasm=DENSE_QASM, max_nodes=1, gc_limit=2)
        report = SweepRunner(jobs=1).run([task] + four_tasks())
        assert report.cells[0].status == "failed"
        assert report.cells[0].error["type"] == "MemoryBudgetExceeded"
        assert all(c.ok for c in report.cells[1:])

    @pytest.mark.skipif(not hasattr(signal, "SIGALRM"),
                        reason="timeouts need SIGALRM")
    def test_hanging_cell_times_out(self):
        task = qasm_task("hang", fault="hang", timeout=0.3)
        report = SweepRunner(jobs=1).run([task] + four_tasks())
        assert report.cells[0].status == "timeout"
        assert report.cells[0].error["type"] == "CellTimeout"
        assert all(c.ok for c in report.cells[1:])
        assert report.status_counts() == {"timeout": 1, "ok": 4}

    def test_killed_worker_costs_only_its_cell(self):
        tasks = four_tasks()
        tasks[2] = qasm_task("killer", fault="os._exit")
        report = SweepRunner(jobs=2, retries=0).run(tasks)
        killer = report.cells[2]
        assert killer.status == "failed"
        assert killer.error["type"] == "WorkerDied"
        assert killer.attempts >= 2  # first pass + isolated retry
        # innocents (including casualties of the broken pool) completed
        assert [c.status for i, c in enumerate(report.cells) if i != 2] \
            == ["ok", "ok", "ok"]
        # and order is still task order
        assert [c.key() for c in report.cells] == [t.key() for t in tasks]

    def test_os_exit_is_neutered_inline(self):
        # jobs=1 runs in the caller's process: the fault must surface as a
        # failure record, never as an actual process exit
        report = SweepRunner(jobs=1).run(
            [qasm_task("killer", fault="os._exit")])
        assert report.cells[0].status == "failed"
        assert report.cells[0].error["type"] == "RuntimeError"

    def test_run_cell_rejects_unknown_fault(self):
        result = run_cell(qasm_task("x", fault="nonsense"), in_worker=False)
        assert result.status == "failed"
        assert result.error["type"] == "ValueError"

    def test_op_scoped_budget_fault_is_recorded(self):
        result = run_cell(qasm_task("b", fault="budget@1"), in_worker=False)
        assert result.status == "failed"
        assert result.error["type"] == "InjectedBudgetFault"
        assert "operation 1" in result.error["message"]

    def test_op_scoped_kill_is_neutered_inline(self):
        result = run_cell(qasm_task("k", fault="kill@0"), in_worker=False)
        assert result.status == "failed"
        assert "would have killed" in result.error["message"]


class TestCooperativeDeadline:
    """Timeouts on platforms without SIGALRM (satellite: run_cell falls
    back to a per-op cooperative deadline instead of losing timeouts)."""

    def test_deadline_fires_without_sigalrm(self, monkeypatch):
        monkeypatch.delattr(signal, "SIGALRM")
        # 0.2s of injected latency per op against a 0.05s budget: the
        # deadline must trip at the first operation boundary
        task = qasm_task("slow", fault="latency=0.2", timeout=0.05)
        result = run_cell(task, in_worker=False)
        assert result.status == "timeout"
        assert result.error["type"] == "CellTimeout"
        assert "exceeded 0.05s" in result.error["message"]

    def test_fast_cell_unaffected_without_sigalrm(self, monkeypatch):
        monkeypatch.delattr(signal, "SIGALRM")
        result = run_cell(qasm_task("quick", timeout=30.0), in_worker=False)
        assert result.status == "ok"

    def test_deadline_chains_after_an_op_scoped_fault(self, monkeypatch):
        # both hooks installed at once: the injector's op schedule must
        # not mask the deadline, nor vice versa
        monkeypatch.delattr(signal, "SIGALRM")
        task = qasm_task("both", fault="latency=0.2", timeout=10.0)
        result = run_cell(task, in_worker=False)
        assert result.status == "ok"  # generous budget: latency only

    @pytest.mark.skipif(not hasattr(signal, "SIGALRM"),
                        reason="contrast case needs SIGALRM")
    def test_sigalrm_path_still_preferred_when_available(self):
        # a hang makes no op progress, so only the alarm can interrupt it
        task = qasm_task("hang", fault="hang", timeout=0.3)
        result = run_cell(task, in_worker=False)
        assert result.status == "timeout"


class TestRetryExhaustion:
    """A worker that dies on *every* attempt (satellite: the sweep ends
    with a failed record carrying the retry count -- it never hangs)."""

    def test_poison_cell_fails_after_retries_run_out(self):
        tasks = four_tasks()
        tasks[1] = qasm_task("poison", fault="os._exit")
        report = SweepRunner(jobs=2, retries=1).run(tasks)
        poison = report.cells[1]
        assert poison.status == "failed"
        assert poison.error["type"] == "WorkerDied"
        # broken first pass + (retries + 1) isolated attempts
        assert poison.attempts == 3
        assert "3 time(s)" in poison.error["message"]
        assert [c.status for i, c in enumerate(report.cells) if i != 1] \
            == ["ok", "ok", "ok"]
        assert [c.key() for c in report.cells] == [t.key() for t in tasks]

    def test_zero_retries_still_terminates(self):
        report = SweepRunner(jobs=2, retries=0).run(
            [qasm_task("poison", fault="os._exit"), qasm_task("ok")])
        assert report.cells[0].status == "failed"
        assert report.cells[0].error["type"] == "WorkerDied"
        assert report.cells[0].attempts == 2
        assert report.cells[1].status == "ok"
        assert not report.all_ok


class TestRunnerValidation:
    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError):
            SweepRunner(jobs=0)

    def test_retries_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            SweepRunner(retries=-1)

    def test_stats_by_key_skips_failed_cells(self):
        tasks = [qasm_task("ok_cell"), qasm_task("bad", fault="raise")]
        report = SweepRunner(jobs=1).run(tasks)
        stats = report.stats_by_key()
        assert ("ok_cell", "sequential", 0) in stats
        assert ("bad", "sequential", 0) not in stats


class TestSweepCli:
    def _write_spec(self, tmp_path, spec: dict):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        return str(path)

    def _qasm_file(self, tmp_path):
        path = tmp_path / "bell.qasm"
        path.write_text(BELL_QASM, encoding="utf-8")
        return str(path)

    def test_exit_zero_when_all_cells_ok(self, tmp_path, capsys):
        from repro.__main__ import main
        spec = self._write_spec(tmp_path, {
            "circuits": [self._qasm_file(tmp_path)],
            "strategies": ["sequential", "k=2"],
        })
        out_path = str(tmp_path / "report.json")
        assert main(["sweep", spec, "--output", out_path]) == 0
        out = capsys.readouterr().out
        assert "2 ok" in out
        report = json.loads(open(out_path, encoding="utf-8").read())
        assert report["status_counts"] == {"ok": 2}
        assert [c["strategy"] for c in report["cells"]] == \
            ["sequential", "k=2"]

    def test_exit_nonzero_when_any_cell_failed(self, tmp_path, capsys):
        from repro.__main__ import main
        qasm = self._qasm_file(tmp_path)
        spec = self._write_spec(tmp_path, {
            "circuits": [qasm, {"qasm": qasm, "name": "boom",
                                "fault": "raise"}],
        })
        assert main(["sweep", spec]) == 1
        out = capsys.readouterr().out
        assert "1 failed" in out and "1 ok" in out

    def test_registry_instance_and_overrides(self, tmp_path, capsys):
        from repro.__main__ import main
        spec = self._write_spec(tmp_path, {
            "circuits": ["grover_8"],
            "strategies": ["sequential"],
        })
        assert main(["sweep", spec, "--strategy", "k=4",
                     "--repetitions", "2"]) == 0
        out = capsys.readouterr().out
        assert out.count("k=4") == 2          # override replaced the spec's
        assert "sequential" not in out.replace("k=4", "")

    def test_deterministic_output_identical_across_jobs(self, tmp_path,
                                                        capsys):
        from repro.__main__ import main
        spec = self._write_spec(tmp_path, {
            "circuits": [self._qasm_file(tmp_path)],
            "strategies": ["sequential", "k=2", "smax=4"],
        })
        payloads = []
        for jobs in ("1", "2"):
            out_path = str(tmp_path / f"report_{jobs}.json")
            assert main(["sweep", spec, "--jobs", jobs, "--deterministic",
                         "--output", out_path]) == 0
            with open(out_path, encoding="utf-8") as handle:
                payloads.append(json.load(handle))
        capsys.readouterr()
        assert payloads[0] == payloads[1]

    def test_bad_spec_exits_two(self, tmp_path, capsys):
        from repro.__main__ import main
        missing = str(tmp_path / "nope.json")
        assert main(["sweep", missing]) == 2
        assert "cannot read sweep spec" in capsys.readouterr().err


class TestBackendAxis:
    """Cells routed through registered backends instead of the engine."""

    def test_qasm_cell_through_dense(self):
        result = run_cell(qasm_task("bell@dense", backend="dense"),
                          in_worker=False)
        assert result.status == "ok"
        assert result.statistics["backend"] == "dense"
        assert result.statistics["matrix_vector_mults"] == 2

    def test_instance_cell_rebuilt_from_metadata(self):
        from repro.analysis.instances import (get_instance,
                                              instance_task_spec)
        instance = get_instance("grover_8")
        task = SweepTask(name="grover_8@dense",
                         strategy="sequential", kind="instance",
                         metadata=instance_task_spec(instance),
                         backend="dense")
        result = run_cell(task, in_worker=False)
        assert result.status == "ok"
        assert result.statistics["backend"] == "dense"

    def test_instance_cell_falls_back_to_registry_name(self):
        task = SweepTask(name="grover_8@dd", strategy="sequential",
                         kind="instance", backend="dd")
        result = run_cell(task, in_worker=False)
        assert result.status == "ok"

    def test_shor_instance_is_rejected_on_the_backend_axis(self):
        task = SweepTask(name="shor_15@dd", strategy="sequential",
                         kind="instance", metadata={"kind": "shor"},
                         backend="dd")
        result = run_cell(task, in_worker=False)
        assert result.status == "failed"
        assert "not circuit-backed" in result.error["message"]

    def test_unknown_backend_is_a_recorded_failure(self):
        result = run_cell(qasm_task("bell@nope", backend="nope"),
                          in_worker=False)
        assert result.status == "failed"
        assert "nope" in result.error["message"]

    def test_strategy_rides_the_matrix_backend(self):
        task = qasm_task("bell@dd-matrix", strategy="k=2",
                         backend="dd-matrix")
        result = run_cell(task, in_worker=False)
        assert result.status == "ok"
        assert result.statistics["matrix_matrix_mults"] > 0


class TestFuzzCells:
    """kind="fuzz" cells run a whole differential campaign per cell."""

    def test_clean_fuzz_cell(self):
        task = SweepTask(name="fuzz_0", strategy="fuzz", kind="fuzz",
                         seed=5,
                         metadata={"max_qubits": 3, "max_operations": 10,
                                   "max_circuits": 2})
        result = run_cell(task, in_worker=False)
        assert result.status == "ok"
        assert result.statistics["operations_applied"] == 2

    def test_broken_fuzz_cell_records_reproducer(self):
        from repro.verification.fuzz import unregister_broken_backend
        task = SweepTask(name="fuzz_broken", strategy="fuzz", kind="fuzz",
                         metadata={"register_broken": True, "seed": 3,
                                   "max_circuits": 200, "max_failures": 1})
        try:
            result = run_cell(task, in_worker=False)
        finally:
            unregister_broken_backend()
        assert result.status == "failed"
        assert "broken-phase" in result.error["message"]
        assert "OPENQASM" in result.error["message"]  # reproducer

    def test_parallel_fuzz_cells_in_workers(self):
        tasks = [SweepTask(name=f"fuzz_{i}", strategy="fuzz", kind="fuzz",
                           seed=i,
                           metadata={"max_qubits": 3, "max_operations": 8,
                                     "max_circuits": 1})
                 for i in range(2)]
        report = SweepRunner(jobs=2).run(tasks)
        assert [cell.status for cell in report.cells] == ["ok", "ok"]
