"""Runtime variable reordering: policy, engine wiring, result remapping.

The headline guarantee: on the qubit-pairing worst case (every qubit
entangled with a partner half the register away -- exponential DDs under
the natural order, linear once pairs interleave) a governed run that sifts
under memory pressure completes within a hard node budget that *aborts*
the unsifted run, and the result still matches the dense baseline at
fidelity >= 1 - 1e-9 -- amplitudes, probabilities, samples and checkpoints
all transparently remapped through the recorded permutation.
"""

import json
from random import Random

import numpy as np
import pytest

from repro.algorithms.pairing import (PairingInstance, interleaved_order,
                                      pairing_circuit)
from repro.algorithms.supremacy import supremacy_circuit
from repro.baseline import simulate_statevector
from repro.dd.kernel import FlatEdge
from repro.dd.package import Package
from repro.simulation import (Checkpoint, MemoryBudgetExceeded,
                              MemoryGovernor, ReorderPolicy,
                              SequentialStrategy, SimulationEngine,
                              load_checkpoint, reorder_from_spec,
                              strategy_from_spec)

FIDELITY_FLOOR = 1 - 1e-9


def dd_fidelity(result, dense) -> float:
    """|<dd|dense>|^2 -- ``result.amplitude`` already remaps through the
    run's permutation, so this is order-independent by construction."""
    inner = sum(result.amplitude(i).conjugate() * dense[i]
                for i in range(len(dense)))
    return abs(inner) ** 2


class TestPairingWorkload:
    def test_circuit_shape(self):
        instance = pairing_circuit(3, tail_layers=2)
        assert isinstance(instance, PairingInstance)
        assert instance.num_qubits == 6
        assert instance.circuit.name == "pairing_3"
        # 3 H + 3 CX + 2 layers of 6 T gates
        assert instance.circuit.num_operations() == 18

    def test_interleaved_order_pairs_partners(self):
        order = interleaved_order(3)
        # qubit i and qubit i + pairs land on adjacent levels
        for i in range(3):
            assert abs(order[i] - order[i + 3]) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            pairing_circuit(0)
        with pytest.raises(ValueError):
            pairing_circuit(2, tail_layers=-1)


class TestReorderPolicy:
    def test_spec_parsing(self):
        assert reorder_from_spec(None) is None
        assert reorder_from_spec("off") is None
        assert reorder_from_spec("none") is None
        assert reorder_from_spec("  ") is None
        assert reorder_from_spec("governor").mode == "governor"
        assert reorder_from_spec("pressure").mode == "governor"
        policy = reorder_from_spec("every=7")
        assert (policy.mode, policy.every) == ("every", 7)
        ready = ReorderPolicy(mode="every", every=3)
        assert reorder_from_spec(ready) is ready
        assert reorder_from_spec(policy.spec()).every == 7

    @pytest.mark.parametrize("spec", ["sometimes", "every=", "every=x",
                                      "every=0", "every=-2"])
    def test_malformed_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            reorder_from_spec(spec)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            ReorderPolicy(mode="always")
        with pytest.raises(ValueError):
            ReorderPolicy(mode="every")  # missing every=
        with pytest.raises(ValueError):
            ReorderPolicy(mode="governor", every=4)
        with pytest.raises(ValueError):
            ReorderPolicy(max_growth=0.5)
        with pytest.raises(ValueError):
            ReorderPolicy(min_interval=-1)

    def test_cadence_trigger(self):
        policy = ReorderPolicy(mode="every", every=5)
        assert not policy.should_reorder(4, pressure=False)
        assert policy.should_reorder(5, pressure=False)
        policy.note_sift(5, 100, 50)
        assert not policy.should_reorder(9, pressure=True)  # pressure ignored
        assert policy.should_reorder(10, pressure=False)

    def test_pressure_trigger_and_cooldown(self):
        policy = ReorderPolicy(mode="governor", min_interval=10)
        assert not policy.should_reorder(100, pressure=False)
        assert policy.should_reorder(100, pressure=True)
        policy.note_sift(100, 80, 40)
        assert not policy.should_reorder(105, pressure=True)  # cooling down
        assert policy.should_reorder(111, pressure=True)

    def test_engine_rejects_bad_spec(self):
        circuit = pairing_circuit(2).circuit
        with pytest.raises(ValueError, match="reorder"):
            SimulationEngine().simulate(circuit, SequentialStrategy(),
                                        reorder="sometimes")


class TestGovernorTriggeredSift:
    """The acceptance scenario: a node budget only the sifted run fits."""

    BUDGET = MemoryGovernor  # constructed per test; instances are stateful

    @pytest.fixture(scope="class")
    def circuit(self):
        return pairing_circuit(5, tail_layers=2).circuit

    @pytest.fixture(scope="class")
    def dense(self, circuit):
        return simulate_statevector(circuit)

    def test_unsifted_run_exceeds_budget(self, circuit):
        engine = SimulationEngine(
            governor=MemoryGovernor(node_limit=40, max_nodes=40))
        with pytest.raises(MemoryBudgetExceeded):
            engine.simulate(circuit, SequentialStrategy())

    def test_sifted_run_completes_under_budget(self, circuit, dense):
        engine = SimulationEngine(
            governor=MemoryGovernor(node_limit=40, max_nodes=40))
        result = engine.simulate(circuit, SequentialStrategy(),
                                 reorder="governor")
        assert result.statistics.reorders >= 1
        assert result.statistics.reorder_nodes_saved > 0
        # sifting must discover the interleaved pairing order
        assert result.permutation == interleaved_order(5)
        assert dd_fidelity(result, dense) >= FIDELITY_FLOOR
        assert result.statistics.final_state_nodes <= 2 * circuit.num_qubits
        engine.package.assert_invariants([result.state])

    def test_trace_records_reorder_events(self, circuit):
        events = []
        engine = SimulationEngine(
            governor=MemoryGovernor(node_limit=40, max_nodes=40))
        engine.simulate(circuit, SequentialStrategy(), reorder="governor",
                        trace=events.append)
        reorders = [e for e in events if e["event"] == "reorder"]
        assert reorders
        for event in reorders:
            assert event["reason"] == "pressure"
            assert event["nodes_after"] < event["nodes_before"]
            assert json.dumps(event)  # JSONL-serialisable
        # at least one sift must report the non-identity permutation
        assert any(event["permutation"] is not None for event in reorders)


class TestCadenceSift:
    @pytest.mark.parametrize("spec", ["sequential", "k=3", "smax=16",
                                      "adaptive", "repeating:sequential"])
    def test_every_k_matches_dense(self, spec):
        circuit = pairing_circuit(4, tail_layers=2).circuit
        dense = simulate_statevector(circuit)
        engine = SimulationEngine()
        result = engine.simulate(
            circuit, strategy_from_spec(spec),
            reorder=ReorderPolicy(mode="every", every=6, min_nodes=2))
        assert result.statistics.reorders >= 1
        assert dd_fidelity(result, dense) >= FIDELITY_FLOOR
        engine.package.assert_invariants([result.state])

    @pytest.mark.parametrize("config", [
        dict(kernel="iterative"),
        dict(kernel="iterative", dense_blocks=False),
    ])
    def test_iterative_kernel_materializes_and_sifts(
            self, config, recursive_apply_calls):
        # the sift only understands the object node graph; the engine
        # must solidify/convert the flat state first, then put the sifted
        # state back on the flat store and keep simulating there
        circuit = pairing_circuit(4, tail_layers=2).circuit
        dense = simulate_statevector(circuit)
        engine = SimulationEngine(package=Package(**config))
        result = engine.simulate(
            circuit, SequentialStrategy(),
            reorder=ReorderPolicy(mode="every", every=6, min_nodes=2))
        assert result.statistics.reorders >= 1
        assert dd_fidelity(result, dense) >= FIDELITY_FLOOR
        assert recursive_apply_calls == []
        assert type(result.state) is FlatEdge

    def test_min_nodes_skips_but_advances_clock(self):
        # default min_nodes=8 never fires on a 2-qubit state, yet the
        # cadence clock keeps ticking: no sift is ever *recorded*
        circuit = pairing_circuit(1, tail_layers=4).circuit
        result = SimulationEngine().simulate(circuit, SequentialStrategy(),
                                             reorder="every=2")
        assert result.statistics.reorders == 0
        assert result.permutation is None


class TestResultRemapping:
    @pytest.fixture(scope="class")
    def runs(self):
        circuit = pairing_circuit(4, tail_layers=1).circuit
        # one shared package so fidelity_with can compare the two results
        package = Package()
        plain = SimulationEngine(package=package).simulate(
            circuit, SequentialStrategy())
        sifted = SimulationEngine(package=package).simulate(
            circuit, SequentialStrategy(),
            reorder=ReorderPolicy(mode="every", every=8, min_nodes=2))
        dense = simulate_statevector(circuit)
        return plain, sifted, dense

    def test_probabilities_match_dense(self, runs):
        _, sifted, dense = runs
        assert sifted.permutation is not None
        probs = sifted.probabilities()
        assert np.allclose(probs, np.abs(dense) ** 2, atol=1e-9)

    def test_samples_land_in_dense_support(self, runs):
        _, sifted, dense = runs
        support = {i for i, amp in enumerate(dense) if abs(amp) > 1e-12}
        counts = sifted.sample(200, Random(13))
        assert set(counts) <= support

    def test_fidelity_with_across_permutations(self, runs):
        plain, sifted, _ = runs
        assert plain.permutation is None
        assert sifted.fidelity_with(plain) == pytest.approx(1.0, abs=1e-9)

    def test_logical_state_restores_natural_order(self, runs):
        plain, sifted, dense = runs
        logical = sifted.logical_state()
        package = sifted.package
        for index in range(len(dense)):
            assert package.amplitude(logical, index) \
                == pytest.approx(dense[index], abs=1e-9)


class TestCheckpointResume:
    def test_permutation_survives_checkpoint_roundtrip(self, tmp_path):
        circuit = pairing_circuit(5, tail_layers=2).circuit
        dense = simulate_statevector(circuit)
        path = str(tmp_path / "reorder.ckpt")
        engine = SimulationEngine(
            governor=MemoryGovernor(node_limit=40, max_nodes=40))
        result = engine.simulate(circuit, SequentialStrategy(),
                                 reorder="governor", checkpoint_path=path,
                                 checkpoint_every=25)
        assert result.permutation == interleaved_order(5)

        checkpoint = load_checkpoint(path)
        assert checkpoint.version == 2
        assert checkpoint.permutation == interleaved_order(5)

        # resume on a completely fresh engine; budget stays in force
        resumed = SimulationEngine(
            governor=MemoryGovernor(node_limit=40, max_nodes=40)).resume(
                checkpoint, circuit, reorder="governor")
        assert resumed.permutation == interleaved_order(5)
        assert dd_fidelity(resumed, dense) >= FIDELITY_FLOOR
        assert resumed.statistics.operations_applied == \
            circuit.num_operations()

    def test_resumed_iterative_run_stays_flat(self, tmp_path,
                                              recursive_apply_calls):
        # a checkpoint stores object nodes; the resumed run must put the
        # state back on the flat store and keep simulating there
        circuit = supremacy_circuit(3, 3, 8, 1).circuit
        path = str(tmp_path / "iterative.ckpt")

        def interrupt(index: int) -> None:
            if index == 10:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            SimulationEngine(package=Package(kernel="iterative")).simulate(
                circuit, SequentialStrategy(), checkpoint_path=path,
                on_op=interrupt)
        resumed = SimulationEngine(
            package=Package(kernel="iterative")).resume(path, circuit)
        assert recursive_apply_calls == []
        assert type(resumed.state) is FlatEdge
        assert resumed.statistics.operations_applied == \
            circuit.num_operations()
        assert dd_fidelity(resumed, simulate_statevector(circuit)) >= \
            FIDELITY_FLOOR

    def test_version1_checkpoint_loads_without_permutation(self, tmp_path):
        circuit = pairing_circuit(2).circuit
        path = str(tmp_path / "v1.ckpt")
        SimulationEngine().simulate(circuit, SequentialStrategy(),
                                    checkpoint_path=path, checkpoint_every=3)
        payload = json.loads(open(path).read())
        payload["version"] = 1
        del payload["permutation"]
        path1 = str(tmp_path / "downgraded.ckpt")
        with open(path1, "w") as handle:
            json.dump(payload, handle)
        checkpoint = load_checkpoint(path1)
        assert checkpoint.version == 1
        assert checkpoint.permutation is None
        resumed = SimulationEngine().resume(checkpoint, circuit)
        assert resumed.permutation is None

    def test_corrupt_permutation_rejected(self, tmp_path):
        circuit = pairing_circuit(2).circuit
        path = str(tmp_path / "ok.ckpt")
        SimulationEngine().simulate(circuit, SequentialStrategy(),
                                    checkpoint_path=path, checkpoint_every=3)
        payload = json.loads(open(path).read())
        payload["permutation"] = [0, 0, 1, 2]
        bad = str(tmp_path / "bad.ckpt")
        with open(bad, "w") as handle:
            json.dump(payload, handle)
        with pytest.raises(ValueError, match="permutation"):
            load_checkpoint(bad)


class TestAxisPlumbing:
    def test_construct_sweep_cell_rejects_reorder(self):
        from repro.simulation.sweep import SweepTask, _simulate_task
        task = SweepTask(name="shor_construct", kind="construct",
                         metadata={"modulus": 15, "base": 7},
                         reorder="governor")
        with pytest.raises(ValueError, match="construct"):
            _simulate_task(task)

    def test_shor_instance_rejects_reorder(self):
        from repro.analysis.instances import shor_suite
        instance = shor_suite("quick")[0]
        with pytest.raises(ValueError, match="reorder"):
            instance.run(SequentialStrategy(), reorder="governor")

    def test_qasm_sweep_cell_accepts_reorder(self):
        from repro.circuit.qasm import to_qasm
        from repro.simulation.sweep import SweepTask, _simulate_task
        circuit = pairing_circuit(3, tail_layers=1).circuit
        task = SweepTask(name="pairing_3", kind="qasm",
                         qasm=to_qasm(circuit), reorder="every=4")
        stats = _simulate_task(task)
        assert stats.operations_applied == circuit.num_operations()
