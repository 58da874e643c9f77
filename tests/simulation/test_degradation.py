"""Graceful degradation under a hard node budget.

The workload here is a "fringe" circuit: small-angle rotations plus a CNOT
ladder produce a dense 255-node state whose amplitude mass stays
concentrated near |0...0> -- exactly the shape fidelity-bounded pruning can
compress.  Under a budget below the working set, a degrading run must
finish by pruning the state instead of aborting, while a floor close to 1
must make it abort rather than lie about its fidelity.
"""

import pytest

from repro.baseline import simulate_statevector
from repro.circuit import QuantumCircuit
from repro.dd import Package
from repro.dd.kernel import FlatEdge
from repro.simulation import (DegradationPolicy, MemoryBudgetExceeded,
                              MemoryGovernor, SequentialStrategy,
                              SimulationEngine, load_trace, trace_summary)


def fringe_circuit(num_qubits: int = 8, layers: int = 3) -> QuantumCircuit:
    circuit = QuantumCircuit(num_qubits, name="fringe")
    for layer in range(layers):
        for qubit in range(num_qubits):
            circuit.ry(0.12 + 0.01 * qubit + 0.007 * layer, qubit)
        for qubit in range(num_qubits - 1):
            circuit.cx(qubit, qubit + 1)
    return circuit


def tight_engine(max_nodes: int = 100,
                 package: Package | None = None) -> SimulationEngine:
    return SimulationEngine(
        package=package,
        governor=MemoryGovernor(node_limit=50, max_nodes=max_nodes))


def action_kinds(statistics) -> dict:
    kinds: dict = {}
    for action in statistics.degradation_actions:
        kinds[action["action"]] = kinds.get(action["action"], 0) + 1
    return kinds


class TestDegradationLadder:
    def test_completes_under_budget_via_pruning(self):
        circuit = fringe_circuit()
        reference = SimulationEngine().simulate(circuit,
                                                SequentialStrategy())
        assert reference.statistics.peak_state_nodes > 200  # needs degrading

        policy = DegradationPolicy(fidelity_floor=0.9)
        result = tight_engine().simulate(circuit, SequentialStrategy(),
                                         degradation=policy)
        # the engine collected before judging the budget, so pruning is
        # the only action left
        kinds = action_kinds(result.statistics)
        assert list(kinds) == ["prune"]
        # tracked cumulative fidelity respected the floor ...
        assert policy.cumulative_fidelity >= 0.9
        assert result.statistics.cumulative_fidelity == \
            policy.cumulative_fidelity
        # ... and the per-prune product tracks the true end-to-end
        # fidelity closely on this shallow circuit
        inner = sum(reference.amplitude(i).conjugate() * result.amplitude(i)
                    for i in range(1 << circuit.num_qubits))
        true_fidelity = abs(inner) ** 2
        assert true_fidelity >= 0.9
        assert abs(true_fidelity - policy.cumulative_fidelity) < 0.01

    def test_iterative_run_prunes_and_stays_flat(self,
                                                 recursive_apply_calls):
        # pruning rebuilds the state as object nodes; the engine puts it
        # back on the flat store, so the rest of the run never reaches the
        # object-node local-gate core
        circuit = fringe_circuit()
        policy = DegradationPolicy(fidelity_floor=0.9)
        package = Package(kernel="iterative", dense_blocks=False)
        result = tight_engine(package=package).simulate(
            circuit, SequentialStrategy(), degradation=policy)
        assert action_kinds(result.statistics).get("prune", 0) > 0
        assert recursive_apply_calls == []
        assert type(result.state) is FlatEdge
        dense = simulate_statevector(circuit)
        inner = sum(result.amplitude(i).conjugate() * dense[i]
                    for i in range(len(dense)))
        assert abs(inner) ** 2 >= 0.9

    def test_tight_floor_aborts_instead_of_lying(self):
        """When pruning cannot stay above the floor, the run raises
        MemoryBudgetExceeded -- after having pruned as far as it may."""
        policy = DegradationPolicy(fidelity_floor=0.9999)
        with pytest.raises(MemoryBudgetExceeded):
            tight_engine().simulate(fringe_circuit(), SequentialStrategy(),
                                    degradation=policy)
        assert policy.cumulative_fidelity >= 0.9999
        kinds = {action["action"] for action in policy.actions}
        assert kinds == {"prune"}  # pruned within the floor, then gave up

    def test_inert_without_hard_budget(self):
        """No max_nodes -> the policy is never consulted."""
        policy = DegradationPolicy()
        result = SimulationEngine().simulate(
            fringe_circuit(), SequentialStrategy(), degradation=policy)
        assert result.statistics.degradation_actions == []
        assert policy.cumulative_fidelity == 1.0

    def test_degrade_events_traced(self, tmp_path):
        from repro.simulation import JsonlTraceSink

        trace_path = str(tmp_path / "degrade.jsonl")
        sink = JsonlTraceSink(trace_path)
        try:
            tight_engine().simulate(fringe_circuit(), SequentialStrategy(),
                                    degradation=DegradationPolicy(
                                        fidelity_floor=0.9),
                                    trace=sink)
        finally:
            sink.close()
        events = load_trace(trace_path)
        degrades = [e for e in events if e.get("event") == "degrade"]
        assert degrades
        for event in degrades:
            assert event["action"] == "prune"
            assert event["edges_cut"] > 0
            assert 0.0 < event["cumulative_fidelity"] <= 1.0
        summary = trace_summary(events)
        assert summary["degrade_events"] == len(degrades)
        assert summary["degrade_fidelity"] >= 0.9


class TestDegradationAcrossResume:
    def test_cumulative_floor_survives_checkpoint(self, tmp_path):
        """The fidelity already spent before a crash still counts against
        the floor after resuming -- also from a checkpoint whose payloads
        carry keys this version no longer writes."""
        import json

        from repro.simulation import load_checkpoint

        circuit = fringe_circuit()
        path = str(tmp_path / "degraded.ckpt")
        policy = DegradationPolicy(fidelity_floor=0.9)
        tight_engine().simulate(circuit, SequentialStrategy(),
                                degradation=policy,
                                checkpoint_path=path, checkpoint_every=10)
        checkpoint = load_checkpoint(path)
        assert checkpoint.degradation is not None
        stored = checkpoint.degradation["cumulative_fidelity"]
        assert 0.0 < stored < 1.0  # the run pruned before its checkpoint

        # a checkpoint from before the degradation policy lost its table
        # shrinking and the governor its growth option and slot counter
        legacy_path = str(tmp_path / "legacy.ckpt")
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        payload["degradation"]["tables_shrunk"] = True
        payload["governor"].update(growth_factor=1.5, flat_slots_freed=0)
        with open(legacy_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)

        for source in (checkpoint, legacy_path):
            fresh = DegradationPolicy(fidelity_floor=0.9)
            tight_engine().resume(source, circuit, degradation=fresh)
            # the resumed policy started from the stored fidelity, not
            # from 1.0: only its own prunes moved it since
            spent = 1.0
            for action in fresh.actions:
                spent *= action["fidelity"]
            assert fresh.cumulative_fidelity == pytest.approx(
                stored * spent, rel=1e-12)
            assert fresh.cumulative_fidelity >= 0.9


class TestDegradationPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            DegradationPolicy(fidelity_floor=0.0)
        with pytest.raises(ValueError):
            DegradationPolicy(fidelity_floor=1.5)

    def test_state_dict_round_trip(self):
        policy = DegradationPolicy(fidelity_floor=0.8)
        policy.record({"action": "prune", "fidelity": 0.95})
        policy.record({"action": "prune", "fidelity": 0.9})

        state = policy.state_dict()
        restored = DegradationPolicy(fidelity_floor=0.8)
        restored.load_state_dict(state)
        assert restored.cumulative_fidelity == policy.cumulative_fidelity

    def test_allows_prune_tracks_floor(self):
        policy = DegradationPolicy(fidelity_floor=0.9)
        assert policy.allows_prune()
        policy.record({"action": "prune", "fidelity": 0.85})
        assert not policy.allows_prune()
