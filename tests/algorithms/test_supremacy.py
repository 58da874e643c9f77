"""Supremacy-style random circuit generator: rules and determinism."""

import numpy as np
import pytest

from repro.algorithms import cz_layer_pairs, supremacy_circuit
from repro.baseline import simulate_statevector
from repro.simulation import KOperationsStrategy, SequentialStrategy, \
    SimulationEngine
from repro.dd import vector_to_numpy


class TestCzPatterns:
    def test_pairs_are_grid_neighbours(self):
        rows, cols = 4, 5
        for configuration in range(8):
            for a, b in cz_layer_pairs(rows, cols, configuration):
                ra, ca = divmod(a, cols)
                rb, cb = divmod(b, cols)
                assert abs(ra - rb) + abs(ca - cb) == 1

    def test_pairs_are_disjoint_within_layer(self):
        for configuration in range(8):
            pairs = cz_layer_pairs(4, 4, configuration)
            qubits = [q for pair in pairs for q in pair]
            assert len(qubits) == len(set(qubits))

    def test_eight_configurations_cover_every_edge(self):
        rows, cols = 4, 4
        covered = set()
        for configuration in range(8):
            covered.update(frozenset(p)
                           for p in cz_layer_pairs(rows, cols, configuration))
        horizontal = sum(1 for r in range(rows) for c in range(cols - 1))
        vertical = sum(1 for r in range(rows - 1) for c in range(cols))
        assert len(covered) == horizontal + vertical

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            cz_layer_pairs(3, 3, 8)


class TestGenerator:
    def test_first_cycle_is_hadamards(self):
        instance = supremacy_circuit(3, 3, 5, seed=0)
        ops = list(instance.circuit.operations())
        assert all(op.gate == "h" for op in ops[:9])

    def test_deterministic_for_same_seed(self):
        a = supremacy_circuit(3, 4, 8, seed=42).circuit
        b = supremacy_circuit(3, 4, 8, seed=42).circuit
        assert a == b

    def test_different_seeds_differ(self):
        a = supremacy_circuit(3, 4, 8, seed=1).circuit
        b = supremacy_circuit(3, 4, 8, seed=2).circuit
        assert a != b

    def test_single_qubit_gates_from_allowed_set(self):
        instance = supremacy_circuit(3, 3, 10, seed=7)
        num = instance.num_qubits
        singles = [op for op in instance.circuit.operations()
                   if not op.controls][num:]  # skip the initial H layer
        assert singles, "expected some single-qubit gates"
        assert {op.gate for op in singles} <= {"sx", "sy", "t"}

    def test_first_single_qubit_gate_is_t(self):
        instance = supremacy_circuit(3, 3, 10, seed=7)
        first_gate = {}
        for op in list(instance.circuit.operations())[9:]:
            if not op.controls and op.target not in first_gate:
                first_gate[op.target] = op.gate
        assert set(first_gate.values()) == {"t"}

    def test_no_immediate_gate_repetition_per_qubit(self):
        instance = supremacy_circuit(4, 4, 12, seed=3)
        last = {}
        for op in list(instance.circuit.operations())[16:]:
            if op.controls:
                continue
            assert last.get(op.target) != op.gate
            last[op.target] = op.gate

    def test_single_qubit_gate_only_after_cz(self):
        instance = supremacy_circuit(3, 3, 8, seed=5)
        in_cz_prev: set = set()
        cycle_singles: list = []
        # reconstruct cycles: H layer, then [singles, czs] per cycle
        ops = list(instance.circuit.operations())[9:]
        # walk ops; singles come before the czs of each cycle
        current_singles = set()
        for op in ops:
            if op.controls:
                continue
            current_singles.add(op.target)
        # every qubit that got a single-qubit gate must have seen a CZ before
        all_cz_qubits = {q for op in ops if op.controls
                         for q in (op.target, op.controls[0][0])}
        assert current_singles <= all_cz_qubits

    def test_name_follows_paper_scheme(self):
        instance = supremacy_circuit(4, 4, 12, seed=0)
        assert instance.name == "supremacy_12_16"

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            supremacy_circuit(0, 3, 5)
        with pytest.raises(ValueError):
            supremacy_circuit(3, 3, 0)


class TestSimulation:
    def test_dd_matches_dense(self):
        instance = supremacy_circuit(2, 3, 8, seed=11)
        result = SimulationEngine().simulate(instance.circuit)
        assert np.allclose(
            vector_to_numpy(result.state, instance.num_qubits),
            simulate_statevector(instance.circuit), atol=1e-8)

    def test_state_dd_grows_large(self):
        # the regime of the paper's Example 3: big state DDs, tiny gate DDs
        instance = supremacy_circuit(3, 3, 10, seed=1)
        stats = SimulationEngine().simulate(instance.circuit).statistics
        assert stats.peak_state_nodes > 2 * instance.num_qubits

    def test_combining_reduces_recursive_work(self):
        # The paper's Fig. 8 claim is about its cost model: explicit gate
        # DDs, one MxV per gate, identity padding traversed.  Pin paper
        # mode -- the default engine's identity shortcut deliberately
        # sidesteps that cost model.
        instance = supremacy_circuit(3, 3, 10, seed=1)
        sequential = SimulationEngine.paper_literal().simulate(
            instance.circuit, SequentialStrategy()).statistics
        combined = SimulationEngine.paper_literal().simulate(
            instance.circuit, KOperationsStrategy(8)).statistics
        assert combined.counters.total_recursions() \
            < sequential.counters.total_recursions()
