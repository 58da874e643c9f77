"""The top-level command-line interface."""

import pytest

from repro.__main__ import main

BELL_QASM = """
OPENQASM 2.0;
qreg q[2];
h q[0];
cx q[0],q[1];
"""

GHZ_QASM = """
OPENQASM 2.0;
qreg q[3];
h q[0];
cx q[0],q[1];
cx q[1],q[2];
"""


@pytest.fixture
def bell_file(tmp_path):
    path = tmp_path / "bell.qasm"
    path.write_text(BELL_QASM)
    return str(path)


@pytest.fixture
def ghz_file(tmp_path):
    path = tmp_path / "ghz.qasm"
    path.write_text(GHZ_QASM)
    return str(path)


class TestSimulate:
    def test_basic_run(self, bell_file, capsys):
        assert main(["simulate", bell_file]) == 0
        output = capsys.readouterr().out
        assert "2 qubits" in output
        assert "matrix-vector" in output

    def test_amplitudes_flag(self, bell_file, capsys):
        assert main(["simulate", bell_file, "--amplitudes"]) == 0
        output = capsys.readouterr().out
        assert "|00>" in output and "|11>" in output
        assert "|01>" not in output  # below threshold

    def test_shots(self, bell_file, capsys):
        assert main(["simulate", bell_file, "--shots", "50",
                     "--seed", "3"]) == 0
        output = capsys.readouterr().out
        assert "50 shots" in output

    def test_strategy_spec(self, ghz_file, capsys):
        assert main(["simulate", ghz_file, "--strategy", "k=2"]) == 0
        assert "k-operations" in capsys.readouterr().out

    def test_initial_state(self, bell_file, capsys):
        # from |01>: H then CX gives the Bell pair (|00> - |11>)/sqrt(2)
        assert main(["simulate", bell_file, "--initial", "1",
                     "--amplitudes"]) == 0
        output = capsys.readouterr().out
        assert "|00>" in output and "|11>" in output
        assert "-0.7071" in output


class TestInfo:
    def test_info_output(self, ghz_file, capsys):
        assert main(["info", ghz_file]) == 0
        output = capsys.readouterr().out
        assert "qubits     : 3" in output
        assert "depth" in output
        assert "h" in output


class TestEquiv:
    def test_equivalent_files(self, tmp_path, capsys):
        a = tmp_path / "a.qasm"
        b = tmp_path / "b.qasm"
        a.write_text("qreg q[1]; h q[0]; x q[0]; h q[0];")
        b.write_text("qreg q[1]; z q[0];")
        assert main(["equiv", str(a), str(b)]) == 0
        assert "EQUIVALENT" in capsys.readouterr().out

    def test_not_equivalent(self, tmp_path, capsys):
        a = tmp_path / "a.qasm"
        b = tmp_path / "b.qasm"
        a.write_text("qreg q[1]; x q[0];")
        b.write_text("qreg q[1]; y q[0];")
        assert main(["equiv", str(a), str(b)]) == 1
        assert "NOT equivalent" in capsys.readouterr().out

    def test_pointer_method(self, bell_file, capsys):
        assert main(["equiv", bell_file, bell_file,
                     "--method", "pointer"]) == 0


class TestFactor:
    def test_factor_semiprime(self, capsys):
        assert main(["factor", "15", "--seed", "3"]) == 0
        assert "3 x 5" in capsys.readouterr().out.replace("5 x 3", "3 x 5")

    def test_factor_even_shortcut(self, capsys):
        assert main(["factor", "22"]) == 0
        assert "classical shortcut" in capsys.readouterr().out


@pytest.fixture
def grover_file(tmp_path):
    from repro.algorithms.grover import grover_circuit
    from repro.circuit import to_qasm

    circuit = grover_circuit(6, 0b101101, mark_repetition=False).circuit
    path = tmp_path / "grover6.qasm"
    path.write_text(to_qasm(circuit))
    return str(path)


class TestCheckpointCli:
    def test_simulate_writes_checkpoint(self, grover_file, tmp_path, capsys):
        ckpt = str(tmp_path / "run.ckpt")
        assert main(["simulate", grover_file, "--checkpoint", ckpt,
                     "--checkpoint-every", "40"]) == 0
        output = capsys.readouterr().out
        assert "checkpoint:" in output

    def test_resume_finishes_run(self, grover_file, tmp_path, capsys):
        ckpt = str(tmp_path / "run.ckpt")
        main(["simulate", grover_file, "--checkpoint", ckpt,
              "--checkpoint-every", "40"])
        capsys.readouterr()
        assert main(["resume", ckpt, grover_file]) == 0
        output = capsys.readouterr().out
        assert "resuming" in output
        assert "matrix-vector" in output

    def test_budget_abort_names_checkpoint(self, grover_file, tmp_path,
                                           capsys):
        ckpt = str(tmp_path / "oom.ckpt")
        # the run's reachable nodes peak at 19
        assert main(["simulate", grover_file, "--gc-limit", "10",
                     "--max-nodes", "18", "--checkpoint", ckpt]) == 2
        captured = capsys.readouterr()
        assert "exceeding the hard budget" in captured.err
        assert ckpt in captured.err
        # and the named checkpoint resumes to completion on a roomier run
        assert main(["resume", ckpt, grover_file]) == 0

    def test_resume_missing_checkpoint_is_clean_error(self, grover_file,
                                                      tmp_path, capsys):
        missing = str(tmp_path / "nope.ckpt")
        assert main(["resume", missing, grover_file]) == 2
        assert "error:" in capsys.readouterr().err


class TestAuditCli:
    def test_audit_clean_checkpoint(self, grover_file, tmp_path, capsys):
        ckpt = str(tmp_path / "run.ckpt")
        main(["simulate", grover_file, "--checkpoint", ckpt,
              "--checkpoint-every", "40"])
        capsys.readouterr()
        assert main(["audit", ckpt]) == 0
        assert "AUDIT OK" in capsys.readouterr().out

    def test_audit_circuit_run(self, ghz_file, capsys):
        assert main(["audit", ghz_file, "--audit-every", "1"]) == 0
        output = capsys.readouterr().out
        assert "AUDIT OK" in output
        assert "in-run audits" in output

    def test_audit_corrupt_checkpoint_fails(self, tmp_path, capsys):
        bad = tmp_path / "bad.ckpt"
        bad.write_text('{"version": 1, "truncated')
        assert main(["audit", str(bad), "--kind", "checkpoint"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_degrade_flag_reports_actions(self, tmp_path, capsys):
        from repro.circuit import QuantumCircuit, to_qasm

        circuit = QuantumCircuit(8, name="fringe")
        for layer in range(3):
            for qubit in range(8):
                circuit.ry(0.12 + 0.01 * qubit + 0.007 * layer, qubit)
            for qubit in range(7):
                circuit.cx(qubit, qubit + 1)
        path = tmp_path / "fringe.qasm"
        path.write_text(to_qasm(circuit))
        assert main(["simulate", str(path), "--gc-limit", "50",
                     "--max-nodes", "100", "--degrade",
                     "--fidelity-floor", "0.9"]) == 0
        output = capsys.readouterr().out
        assert "degraded" in output
        assert "prune" in output


class TestExperimentsCli:
    def test_schedule_report_on_mini_suite(self, capsys, monkeypatch):
        # the real quick suite takes tens of seconds; the CLI behaviour is
        # fully exercised by a miniature one
        from repro.analysis import experiments
        from repro.analysis.instances import _grover_instance
        monkeypatch.setattr(experiments, "_suite",
                            lambda profile: [_grover_instance(5, 3)])
        assert main(["experiments"]) == 0
        out = capsys.readouterr().out
        assert "grover_5" in out
        assert "sequential" in out
        assert "mxv" in out
        # schedule report never prints wall-clock columns
        assert "t_sota" not in out

    def test_markdown_flag(self, capsys, monkeypatch):
        from repro.analysis import experiments
        from repro.analysis.instances import _grover_instance
        monkeypatch.setattr(experiments, "_suite",
                            lambda profile: [_grover_instance(5, 3)])
        assert main(["experiments", "--markdown", "--jobs", "2"]) == 0
        assert "| benchmark |" in capsys.readouterr().out

    def test_invalid_jobs_rejected(self, capsys):
        assert main(["experiments", "--jobs", "0"]) == 2
        assert "--jobs" in capsys.readouterr().err

    def test_write_experiments_writes_output(self, tmp_path, capsys,
                                             monkeypatch):
        # the real generator runs every paper experiment; the CLI only
        # has to route the profile in and the document out
        from repro.analysis import experiments_md
        monkeypatch.setattr(experiments_md, "generate_experiments_md",
                            lambda profile: f"# EXPERIMENTS ({profile})\n")
        target = tmp_path / "EXPERIMENTS.md"
        assert main(["experiments", "write-experiments", "--profile",
                     "default", "--output", str(target)]) == 0
        assert target.read_text() == "# EXPERIMENTS (default)\n"
        assert str(target) in capsys.readouterr().out


class TestBackendCli:
    def test_explicit_backend(self, bell_file, capsys):
        assert main(["simulate", bell_file, "--backend", "dense"]) == 0
        output = capsys.readouterr().out
        assert "backend   : dense" in output

    def test_auto_backend_logs_decision(self, ghz_file, capsys):
        assert main(["simulate", ghz_file, "--backend", "auto"]) == 0
        output = capsys.readouterr().out
        assert "backend   : " in output
        assert "selected  : " in output
        assert "density signal" in output

    def test_auto_respects_amplitudes_flag(self, bell_file, capsys):
        assert main(["simulate", bell_file, "--backend", "auto",
                     "--amplitudes"]) == 0
        output = capsys.readouterr().out
        assert "|00>" in output and "|11>" in output

    def test_unknown_backend_fails_cleanly(self, bell_file, capsys):
        assert main(["simulate", bell_file, "--backend", "nope"]) == 2
        assert "nope" in capsys.readouterr().err

    def test_strategy_through_matrix_backend(self, ghz_file, capsys):
        assert main(["simulate", ghz_file, "--backend", "dd-matrix",
                     "--strategy", "k=2"]) == 0
        assert "matrix-matrix" in capsys.readouterr().out


class TestFuzzCli:
    def test_clean_campaign(self, capsys):
        assert main(["fuzz", "--max-circuits", "4", "--seed", "42",
                     "--qubits", "2:3", "--ops", "5:10"]) == 0
        output = capsys.readouterr().out
        assert "fuzz OK" in output
        assert "4 circuits" in output

    def test_broken_backend_flips_exit_code(self, tmp_path, capsys):
        from repro.verification.fuzz import unregister_broken_backend
        corpus = str(tmp_path / "corpus")
        try:
            code = main(["fuzz", "--max-circuits", "200", "--seed", "3",
                         "--inject-broken", "--corpus", corpus])
        finally:
            unregister_broken_backend()
        assert code == 1
        captured = capsys.readouterr()
        assert "broken-phase" in captured.out
        # the minimized reproducers go to stderr
        assert "OPENQASM" in captured.err
        assert "fuzz FAILED" in captured.err
        import os
        assert os.path.exists(os.path.join(corpus, "summary.json"))

    def test_restricted_backend_pool(self, capsys):
        assert main(["fuzz", "--max-circuits", "2", "--seed", "1",
                     "--backends", "dd,dd-iterative"]) == 0
        assert "dd-iterative" in capsys.readouterr().out

    def test_bad_span_rejected(self, capsys):
        assert main(["fuzz", "--max-circuits", "1",
                     "--qubits", "6:2"]) == 2
