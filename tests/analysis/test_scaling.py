"""The scaling-study runner."""

import pytest

from repro.analysis import run_scaling_study
from repro.simulation import KOperationsStrategy


class TestScalingStudy:
    def test_grover_family(self):
        result = run_scaling_study("grover", sizes=(4, 6))
        assert len(result.rows) == 2
        assert result.rows[0]["qubits"] == 4
        assert result.rows[1]["operations"] > result.rows[0]["operations"]

    def test_supremacy_family(self):
        result = run_scaling_study("supremacy", sizes=(4, 6))
        assert len(result.rows) == 2
        assert all(row["qubits"] == 9 for row in result.rows)

    def test_growth_column(self):
        result = run_scaling_study("grover", sizes=(4, 6, 8))
        assert result.rows[0]["growth"] is None
        assert all(row["growth"] is not None for row in result.rows[1:])

    def test_supremacy_peak_nodes_grow(self):
        result = run_scaling_study("supremacy", sizes=(4, 10))
        assert result.rows[1]["peak_state_nodes"] \
            > result.rows[0]["peak_state_nodes"]

    def test_custom_strategy(self):
        result = run_scaling_study("grover", sizes=(4,),
                                   strategy=KOperationsStrategy(4))
        assert result.rows[0]["time_s"] >= 0

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            run_scaling_study("teleportation")


def test_cli_scaling_command(capsys):
    from repro.__main__ import main

    assert main(["experiments", "scaling"]) == 0
    assert "Scaling study" in capsys.readouterr().out
