"""The ``auto`` selector: cheap predictors pick the right simulator."""

import pytest

from repro.algorithms.supremacy import supremacy_circuit
from repro.backends import (DenseBackend, resolve_backend, score_backends,
                            select_backend)
from repro.circuit.circuit import QuantumCircuit
from repro.verification.fuzz import fuzz_circuit


def ghz(num_qubits: int) -> QuantumCircuit:
    circuit = QuantumCircuit(num_qubits, name=f"ghz_{num_qubits}")
    circuit.h(0)
    for qubit in range(num_qubits - 1):
        circuit.cx(qubit, qubit + 1)
    return circuit


class TestSelection:
    def test_ghz_stays_on_dd(self):
        """Structured, lightly-entangling -> the DD family."""
        selection = select_backend(ghz(8))
        assert selection.backend in ("dd", "dd-iterative")
        assert selection.features.num_qubits == 8
        assert selection.features.rotation_fraction == 0.0

    def test_rotation_dense_8q_goes_to_flat_arrays(self):
        """Heavily-entangling rotation circuit on a small register ->
        the dense flat array."""
        circuit = fuzz_circuit(8, 40, seed=11, rotation_probability=0.6)
        selection = select_backend(circuit)
        assert selection.backend == "dense"
        assert selection.features.rotation_fraction > 0.2

    def test_supremacy_slice_goes_to_iterative_kernel(self):
        """Wide and deep: dense arrays do not fit, the gate stream is
        long -> the iterative flat DD kernel."""
        circuit = supremacy_circuit(3, 4, 10, seed=3).circuit
        selection = select_backend(circuit)
        assert selection.backend == "dd-iterative"
        # 12 qubits is beyond the dense backend's width cutoff
        assert selection.scores["dense"] == 0.0

    def test_matrix_pathway_never_wins(self):
        for circuit in (ghz(4), fuzz_circuit(5, 30, seed=2),
                        supremacy_circuit(2, 3, 8, seed=1).circuit):
            assert select_backend(circuit).backend != "dd-matrix"

    def test_selection_record_is_loggable(self):
        selection = select_backend(ghz(4))
        payload = selection.as_dict()
        assert payload["backend"] == selection.backend
        assert payload["reason"]
        assert set(payload["scores"]) >= {"dd", "dd-iterative", "dense"}
        assert payload["features"]["num_qubits"] == 4


class TestResolve:
    def test_explicit_override_beats_auto(self):
        """An explicit ``backend="dense"`` wins even where auto picks DD."""
        circuit = ghz(8)
        assert select_backend(circuit).backend != "dense"
        backend, selection = resolve_backend("dense", circuit)
        assert isinstance(backend, DenseBackend)
        assert selection is None  # no auto decision was made

    def test_auto_returns_decision_record(self):
        backend, selection = resolve_backend("auto", ghz(8))
        assert selection is not None
        assert backend.name == selection.backend

    def test_unknown_name_propagates(self):
        with pytest.raises(ValueError, match="no-such"):
            resolve_backend("no-such", ghz(2))


class TestScores:
    def test_scores_cover_registered_builtins(self):
        from repro.analysis.predictors import circuit_features
        scores = score_backends(circuit_features(ghz(6)))
        assert set(scores) == {"dd", "dd-iterative", "dd-matrix",
                               "dense"}
        assert all(0.0 <= score <= 1.5 for score in scores.values())

    def test_gate_count_flips_dd_to_iterative(self):
        from repro.analysis.predictors import circuit_features
        short = score_backends(circuit_features(ghz(6)))
        long_chain = ghz(6)
        for _ in range(40):
            long_chain.cx(0, 1)
            long_chain.cx(1, 2)
        long = score_backends(circuit_features(long_chain))
        assert short["dd"] > short["dd-iterative"]
        assert long["dd-iterative"] > long["dd"]
