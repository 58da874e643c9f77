"""Engine-level behaviour: gate caching, GC, initial states, results."""

import time
from random import Random

import numpy as np
import pytest

from repro.algorithms.grover import grover_circuit
from repro.algorithms.supremacy import supremacy_circuit
from repro.circuit import Operation, QuantumCircuit
from repro.dd import Package, vector_to_numpy
from repro.dd.kernel import DenseState
from repro.simulation import (SequentialStrategy, SimulationEngine,
                              SimulationResult)


class TestGateCache:
    def test_same_operation_reuses_dd(self):
        engine = SimulationEngine()
        op = Operation("h", 1)
        first = engine.gate_dd(op, 3)
        second = engine.gate_dd(op, 3)
        assert first is second

    def test_different_width_builds_new_dd(self):
        engine = SimulationEngine()
        op = Operation("h", 1)
        assert engine.gate_dd(op, 3) is not engine.gate_dd(op, 4)

    def test_clear_caches(self):
        engine = SimulationEngine()
        op = Operation("h", 0)
        first = engine.gate_dd(op, 2)
        engine.clear_caches()
        # rebuilding gives an equal DD (same unique node) fetched fresh
        second = engine.gate_dd(op, 2)
        assert second.node is first.node

    def test_clear_caches_also_clears_local_gate_cache(self):
        # regression: clear_caches() used to leave _local_gate_cache
        # populated, keeping stale per-operation specs alive
        engine = SimulationEngine()
        qc = QuantumCircuit(2)
        qc.h(0).cx(0, 1)
        engine.simulate(qc)
        assert engine._local_gate_cache, "fast path should populate cache"
        engine.clear_caches()
        assert not engine._gate_cache
        assert not engine._local_gate_cache


class TestSimulate:
    def test_defaults_to_zero_state_and_sequential(self):
        engine = SimulationEngine()
        qc = QuantumCircuit(2)
        qc.x(0)
        result = engine.simulate(qc)
        assert result.probability(1) == pytest.approx(1.0)
        assert result.statistics.strategy == "sequential"

    def test_custom_initial_state(self):
        engine = SimulationEngine()
        qc = QuantumCircuit(2)
        qc.x(0)
        initial = engine.initial_state(2, basis_index=2)
        result = engine.simulate(qc, initial_state=initial)
        assert result.probability(3) == pytest.approx(1.0)

    def test_shared_package_allows_fidelity_comparison(self):
        package = Package()
        engine_a = SimulationEngine(package)
        engine_b = SimulationEngine(package)
        qc = QuantumCircuit(2)
        qc.h(0).cx(0, 1)
        result_a = engine_a.simulate(qc)
        result_b = engine_b.simulate(qc)
        assert result_a.fidelity_with(result_b) == pytest.approx(1.0)

    def test_cross_package_fidelity_rejected(self):
        qc = QuantumCircuit(1)
        qc.h(0)
        result_a = SimulationEngine().simulate(qc)
        result_b = SimulationEngine().simulate(qc)
        with pytest.raises(ValueError):
            result_a.fidelity_with(result_b)

    def test_statistics_metadata(self):
        engine = SimulationEngine()
        qc = QuantumCircuit(3, name="meta_test")
        qc.h(0).h(1)
        stats = engine.simulate(qc).statistics
        assert stats.circuit_name == "meta_test"
        assert stats.num_qubits == 3
        assert stats.final_state_nodes > 0

    def test_final_conversion_is_timed_and_counted(self, monkeypatch):
        # an iterative run that ends on a dense block converts it back to
        # a DD; that rebuild belongs to the run's time and work
        package = Package(kernel="iterative")
        converted = []
        solidify = package.solidify

        def slow_solidify(state):
            converted.append(type(state))
            time.sleep(0.05)
            return solidify(state)

        monkeypatch.setattr(package, "solidify", slow_solidify)
        engine = SimulationEngine(package)
        initial = engine.initial_state(9)
        before = package.counters.nodes_created
        stats = engine.simulate(supremacy_circuit(3, 3, 8, 1).circuit,
                                initial_state=initial).statistics
        assert converted == [DenseState]
        assert stats.wall_time_seconds >= 0.05
        assert stats.counters.nodes_created == \
            package.counters.nodes_created - before


class TestGarbageCollection:
    def test_gc_triggers_and_preserves_state(self):
        engine = SimulationEngine(gc_node_limit=50)
        qc = QuantumCircuit(4)
        rng = Random(3)
        for _ in range(60):
            qc.h(rng.randrange(4))
            control = rng.randrange(4)
            target = (control + 1 + rng.randrange(3)) % 4
            qc.cx(control, target)
        # build an equivalent run without GC to compare
        reference = SimulationEngine(gc_node_limit=None).simulate(qc)
        collected = engine.simulate(qc)
        assert np.allclose(vector_to_numpy(collected.state, 4),
                           vector_to_numpy(reference.state, 4), atol=1e-9)

    def test_gc_clears_compute_tables_and_resimulation_agrees(self):
        # stale compute-table entries pin nodes; garbage_collect must drop
        # them so a freed node can never be resurrected through a cache hit
        from repro.algorithms import supremacy_circuit
        instance = supremacy_circuit(2, 3, 8, seed=3)
        package = Package()
        engine = SimulationEngine(package, gc_node_limit=None)
        first = engine.simulate(instance.circuit)
        package.garbage_collect([first.state])
        for name, stats in package.cache_stats()["compute"].items():
            assert stats["filled"] == 0, f"{name} not cleared by GC"
        live_after_gc = package.live_node_count()
        assert live_after_gc >= package.count_nodes(first.state)
        second = engine.simulate(instance.circuit)
        assert package.fidelity(first.state, second.state) \
            == pytest.approx(1.0, abs=1e-10)
        # re-simulation re-interned into the same unique tables: the live
        # count may grow with intermediates but the final DDs are shared
        assert second.state.node is first.state.node
        assert package.live_node_count() >= live_after_gc

    def test_gc_disabled(self):
        engine = SimulationEngine(gc_node_limit=None)
        qc = QuantumCircuit(2)
        qc.h(0).cx(0, 1)
        result = engine.simulate(qc)
        assert result.probability(0) == pytest.approx(0.5)


class TestLocalApplyFastPath:
    def _random_circuit(self, seed=13, n=5, layers=12):
        qc = QuantumCircuit(n)
        rng = Random(seed)
        for _ in range(layers):
            gate = rng.choice(["h", "t", "sx", "rz"])
            if gate == "rz":
                qc.rz(rng.random() * 3.0, rng.randrange(n))
            else:
                getattr(qc, gate)(rng.randrange(n))
            control = rng.randrange(n)
            target = (control + 1 + rng.randrange(n - 1)) % n
            qc.cx(control, target)
        qc.ccx(0, 1, 2)
        return qc

    def test_fast_and_matrix_paths_agree(self):
        qc = self._random_circuit()
        fast = SimulationEngine(use_local_apply=True).simulate(qc)
        matrix = SimulationEngine(use_local_apply=False).simulate(qc)
        assert np.allclose(vector_to_numpy(fast.state, 5),
                           vector_to_numpy(matrix.state, 5), atol=1e-9)

    def test_fast_path_reports_local_applications(self):
        qc = self._random_circuit()
        stats = SimulationEngine(use_local_apply=True).simulate(qc).statistics
        assert stats.local_gate_applications == qc.num_operations()
        assert stats.counters.apply_gate_recursions > 0

    def test_matrix_path_reports_none(self):
        qc = self._random_circuit()
        stats = SimulationEngine(use_local_apply=False).simulate(qc).statistics
        assert stats.local_gate_applications == 0
        assert stats.counters.mult_mv_recursions > 0

    def test_fast_path_skips_gate_dd_construction(self):
        engine = SimulationEngine(use_local_apply=True)
        engine.simulate(self._random_circuit())
        assert not engine._gate_cache

    def test_fast_path_keeps_node_sharing_on_grover(self):
        """Grover-11, marked 1331: raw weight products in the fast path
        pile up near-duplicate representatives of 1 in the complex table,
        and the state grows from 30 to ~2040 nodes."""
        qc = grover_circuit(11, 1331).circuit
        engine = SimulationEngine()
        fast = engine.simulate(qc, SequentialStrategy()).statistics
        matrix = SimulationEngine(use_local_apply=False).simulate(
            qc, SequentialStrategy()).statistics
        assert fast.peak_state_nodes == matrix.peak_state_nodes
        near_one = [(re, im) for re, im
                    in engine.package.complex_table.state_dict()
                    if abs(complex(re, im) - 1) < 1e-8]
        assert near_one == [(1.0, 0.0)]


class TestSimulationResult:
    def _result(self) -> SimulationResult:
        engine = SimulationEngine()
        qc = QuantumCircuit(2)
        qc.h(0).cx(0, 1)
        return engine.simulate(qc)

    def test_amplitude_and_probability(self):
        result = self._result()
        assert result.amplitude(0) == pytest.approx(2 ** -0.5)
        assert result.probability(3) == pytest.approx(0.5)
        assert result.probability(1) == pytest.approx(0.0)

    def test_probabilities_sum_to_one(self):
        result = self._result()
        assert sum(result.probabilities()) == pytest.approx(1.0)

    def test_sampling(self):
        result = self._result()
        counts = result.sample(200, Random(1))
        assert set(counts) <= {0, 3}
        assert sum(counts.values()) == 200

    def test_state_nodes(self):
        result = self._result()
        # Bell state: root node plus the two distinct level-0 children.
        assert result.state_nodes() == 3

    def test_num_qubits(self):
        assert self._result().num_qubits == 2


class TestResultConvenience:
    def test_expectation_shortcut(self):
        engine = SimulationEngine()
        qc = QuantumCircuit(2)
        qc.h(0).cx(0, 1)
        result = engine.simulate(qc)
        assert result.expectation({0: "Z", 1: "Z"}) == pytest.approx(1.0)
        assert result.expectation({0: "Z"}) == pytest.approx(0.0)

    def test_entropy_shortcut(self):
        engine = SimulationEngine()
        qc = QuantumCircuit(2)
        qc.h(0).cx(0, 1)
        result = engine.simulate(qc)
        assert result.entanglement_entropy([0]) == pytest.approx(1.0)

    def test_entropy_of_product_state(self):
        engine = SimulationEngine()
        qc = QuantumCircuit(2)
        qc.h(0).h(1)
        result = engine.simulate(qc)
        assert result.entanglement_entropy([0]) == pytest.approx(0.0,
                                                                 abs=1e-9)
