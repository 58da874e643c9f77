"""The core claim of the library: every strategy computes the same state,
with the work distributed between MxV and MxM multiplications as designed."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.baseline import simulate_statevector
from repro.circuit import QuantumCircuit
from repro.dd import vector_to_numpy
from repro.simulation import (KOperationsStrategy, MaxSizeStrategy,
                              RepeatingBlockStrategy, SequentialStrategy,
                              SimulationEngine, strategy_from_spec)

from ..conftest import circuits


def all_strategies():
    return [SequentialStrategy(), KOperationsStrategy(1),
            KOperationsStrategy(3), KOperationsStrategy(16),
            MaxSizeStrategy(1), MaxSizeStrategy(8), MaxSizeStrategy(512),
            RepeatingBlockStrategy(),
            RepeatingBlockStrategy(inner=KOperationsStrategy(4))]


def bell_plus_circuit() -> QuantumCircuit:
    qc = QuantumCircuit(3)
    qc.h(0).cx(0, 1).cx(1, 2).t(2).h(1)
    return qc


class TestAgreement:
    @pytest.mark.parametrize("strategy", all_strategies(),
                             ids=lambda s: s.describe())
    def test_matches_dense_baseline(self, strategy):
        circuit = bell_plus_circuit()
        engine = SimulationEngine()
        result = engine.simulate(circuit, strategy)
        assert np.allclose(vector_to_numpy(result.state, 3),
                           simulate_statevector(circuit), atol=1e-9)

    @given(circuits(max_qubits=4, max_operations=10),
           st.sampled_from(["sequential", "k=2", "k=5", "smax=4",
                            "smax=64", "repeating", "repeating:k=3"]))
    def test_property_all_strategies_agree(self, circuit, spec):
        engine = SimulationEngine()
        result = engine.simulate(circuit, strategy_from_spec(spec))
        dense = simulate_statevector(circuit)
        assert np.allclose(vector_to_numpy(result.state, circuit.num_qubits),
                           dense, atol=1e-6)

    def test_repeated_block_strategies_agree(self):
        qc = QuantumCircuit(3)
        qc.h(0)
        body = QuantumCircuit(3)
        body.cx(0, 1).t(1).cx(1, 2).h(2)
        qc.add_repeated_block(body, 5)
        qc.x(0)
        dense = simulate_statevector(qc)
        for strategy in all_strategies():
            engine = SimulationEngine()
            result = engine.simulate(qc, strategy)
            assert np.allclose(vector_to_numpy(result.state, 3), dense,
                               atol=1e-8), strategy.describe()

    def test_empty_circuit_returns_initial_state(self):
        engine = SimulationEngine()
        circuit = QuantumCircuit(2)
        result = engine.simulate(circuit, KOperationsStrategy(4))
        assert result.probability(0) == pytest.approx(1.0)


class TestWorkDistribution:
    def test_sequential_does_only_mv(self):
        engine = SimulationEngine()
        stats = engine.simulate(bell_plus_circuit(),
                                SequentialStrategy()).statistics
        assert stats.matrix_vector_mults == 5
        assert stats.matrix_matrix_mults == 0
        assert stats.operations_applied == 5

    def test_k_operations_groups(self):
        engine = SimulationEngine()
        stats = engine.simulate(bell_plus_circuit(),
                                KOperationsStrategy(2)).statistics
        # 5 ops in groups of 2: 3 MxV applications, 2 MxM combinations
        assert stats.matrix_vector_mults == 3
        assert stats.matrix_matrix_mults == 2

    def test_k_equals_one_is_sequential(self):
        engine = SimulationEngine()
        stats = engine.simulate(bell_plus_circuit(),
                                KOperationsStrategy(1)).statistics
        assert stats.matrix_vector_mults == 5
        assert stats.matrix_matrix_mults == 0

    def test_k_larger_than_circuit_is_single_application(self):
        engine = SimulationEngine()
        stats = engine.simulate(bell_plus_circuit(),
                                KOperationsStrategy(100)).statistics
        assert stats.matrix_vector_mults == 1
        assert stats.matrix_matrix_mults == 4

    def test_max_size_one_applies_every_gate(self):
        engine = SimulationEngine()
        stats = engine.simulate(bell_plus_circuit(),
                                MaxSizeStrategy(1)).statistics
        # every single-gate DD already exceeds 1 node -> degenerates to
        # (roughly) sequential application
        assert stats.matrix_vector_mults == 5

    def test_max_size_huge_combines_everything(self):
        engine = SimulationEngine()
        stats = engine.simulate(bell_plus_circuit(),
                                MaxSizeStrategy(10 ** 6)).statistics
        assert stats.matrix_vector_mults == 1
        assert stats.matrix_matrix_mults == 4

    def test_repeating_block_combines_once(self):
        qc = QuantumCircuit(2)
        body = QuantumCircuit(2)
        body.h(0).cx(0, 1).t(1)
        qc.add_repeated_block(body, 10)
        engine = SimulationEngine()
        stats = engine.simulate(qc, RepeatingBlockStrategy()).statistics
        assert stats.matrix_matrix_mults == 2       # combine 3 ops once
        assert stats.matrix_vector_mults == 10      # one apply per repetition
        assert stats.reused_block_applications == 9
        assert stats.operations_applied == 30

    def test_identical_blocks_reuse_cache(self):
        qc = QuantumCircuit(2)
        body = QuantumCircuit(2)
        body.h(0).cx(0, 1)
        block = body.repeated(3)
        qc.append(block)
        qc.x(0)
        qc.append(block)  # the same block object appears twice
        engine = SimulationEngine()
        stats = engine.simulate(qc, RepeatingBlockStrategy()).statistics
        assert stats.matrix_matrix_mults == 1  # combined exactly once
        assert stats.reused_block_applications == 2 + 3

    def test_peak_matrix_nodes_tracked(self):
        engine = SimulationEngine()
        stats = engine.simulate(bell_plus_circuit(),
                                KOperationsStrategy(5)).statistics
        assert stats.peak_matrix_nodes > 0

    def test_wall_time_recorded(self):
        engine = SimulationEngine()
        stats = engine.simulate(bell_plus_circuit()).statistics
        assert stats.wall_time_seconds > 0


class TestValidation:
    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            KOperationsStrategy(0)

    def test_smax_must_be_positive(self):
        with pytest.raises(ValueError):
            MaxSizeStrategy(0)

    def test_nested_repeating_rejected(self):
        with pytest.raises(ValueError):
            RepeatingBlockStrategy(inner=RepeatingBlockStrategy())

    def test_describe_mentions_parameters(self):
        assert "k=7" in KOperationsStrategy(7).describe()
        assert "s_max=42" in MaxSizeStrategy(42).describe()
        assert "sequential" in RepeatingBlockStrategy().describe()


class TestSpecParsing:
    @pytest.mark.parametrize("spec,expected_type", [
        ("sequential", SequentialStrategy),
        ("sota", SequentialStrategy),
        ("k=8", KOperationsStrategy),
        ("smax=64", MaxSizeStrategy),
        ("repeating", RepeatingBlockStrategy),
    ])
    def test_specs(self, spec, expected_type):
        assert isinstance(strategy_from_spec(spec), expected_type)

    def test_repeating_with_inner(self):
        strategy = strategy_from_spec("repeating:smax=32")
        assert isinstance(strategy.inner, MaxSizeStrategy)
        assert strategy.inner.s_max == 32

    def test_unknown_spec_rejected(self):
        with pytest.raises(ValueError):
            strategy_from_spec("magic")

    @pytest.mark.parametrize("spec", ["k=abc", "smax=", "adaptive=x",
                                      "k=", "smax=4.5", "repeating:k=abc"])
    def test_malformed_parameter_names_the_spec(self, spec):
        # regression: these used to surface as bare int()/float() errors
        # that never mentioned which spec was wrong
        with pytest.raises(ValueError, match="malformed strategy spec"):
            strategy_from_spec(spec)

    def test_adaptive_specs(self):
        from repro.simulation import AdaptiveStrategy
        assert isinstance(strategy_from_spec("adaptive"), AdaptiveStrategy)
        assert strategy_from_spec("adaptive=0.25").ratio == 0.25


class TestMetamorphicEquivalence:
    """Metamorphic relations across strategies: the strategy is a free
    variable of the simulation (states agree to fidelity 1 - 1e-9 inside a
    shared package), and the MxV/MxM split follows Eq. 1 / Eq. 2 exactly."""

    SPECS = ["sequential", "k=2", "k=3", "k=4", "smax=4", "smax=256",
             "adaptive", "repeating:sequential"]

    @staticmethod
    def _random_circuit(seed: int, rotations: bool = True):
        from ..test_differential import random_circuit
        return random_circuit(5, 30, seed=seed, rotations=rotations)

    @pytest.mark.parametrize("seed", [101, 202])
    def test_all_strategies_agree_in_shared_package(self, seed):
        from repro.dd.package import Package
        circuit = self._random_circuit(seed)
        package = Package()
        reference = None
        for spec in self.SPECS:
            engine = SimulationEngine(package=package)
            state = engine.simulate(circuit, strategy_from_spec(spec)).state
            if reference is None:
                reference = state
            else:
                # shared unique tables make the states directly comparable
                assert package.fidelity(reference, state) >= 1 - 1e-9, spec

    def test_eq1_accounting_sequential(self):
        # Eq. 1: |G| matrix-vector multiplications, no matrix-matrix
        circuit = self._random_circuit(303, rotations=False)
        g = circuit.num_operations()
        stats = SimulationEngine().simulate(
            circuit, SequentialStrategy()).statistics
        assert stats.matrix_vector_mults == g
        assert stats.matrix_matrix_mults == 0
        assert stats.operations_applied == g

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_eq2_accounting_k_operations(self, k):
        # Eq. 2: ceil(|G|/k) MxV and |G| - ceil(|G|/k) MxM
        circuit = self._random_circuit(404, rotations=False)
        g = circuit.num_operations()
        stats = SimulationEngine().simulate(
            circuit, KOperationsStrategy(k)).statistics
        expected_mxv = math.ceil(g / k)
        assert stats.matrix_vector_mults == expected_mxv
        assert stats.matrix_matrix_mults == g - expected_mxv
        assert stats.operations_applied == g

    @pytest.mark.parametrize("spec", ["sequential", "k=2", "k=3", "k=4",
                                      "smax=4", "smax=256", "adaptive"])
    def test_every_operation_enters_exactly_one_multiplication(self, spec):
        # invariant behind both equations for every non-reusing strategy:
        # each gate is multiplied in exactly once, either into the state
        # (MxV) or into a combined matrix (MxM)
        circuit = self._random_circuit(505)
        g = circuit.num_operations()
        stats = SimulationEngine().simulate(
            circuit, strategy_from_spec(spec)).statistics
        assert stats.matrix_vector_mults + stats.matrix_matrix_mults == g


class TestCheckpointInterfaces:
    """spec()/state_dict(): the strategy side of the checkpoint contract."""

    @pytest.mark.parametrize("spec", ["sequential", "k=5", "smax=64",
                                      "adaptive=0.5", "repeating:k=3"])
    def test_spec_round_trips_through_parser(self, spec):
        strategy = strategy_from_spec(spec)
        again = strategy_from_spec(strategy.spec())
        assert type(again) is type(strategy)
        assert again.spec() == strategy.spec()

    def test_k_operations_state_dict_round_trip(self):
        strategy = KOperationsStrategy(4)
        strategy._pending_count = 3
        restored = strategy_from_spec(strategy.spec())
        restored.load_state_dict(strategy.state_dict())
        assert restored.state_dict() == strategy.state_dict()

    def test_adaptive_state_dict_round_trip(self):
        from repro.simulation import AdaptiveStrategy

        strategy = AdaptiveStrategy(ratio=0.25)
        strategy._state_nodes = 17
        restored = strategy_from_spec(strategy.spec())
        assert isinstance(restored, AdaptiveStrategy)
        restored.load_state_dict(strategy.state_dict())
        assert restored.state_dict() == strategy.state_dict()

    def test_repeating_delegates_to_inner(self):
        strategy = RepeatingBlockStrategy(inner=KOperationsStrategy(4))
        strategy.inner._pending_count = 2
        state = strategy.state_dict()
        restored = strategy_from_spec(strategy.spec())
        restored.load_state_dict(state)
        assert restored.state_dict() == state

    def test_sequential_state_dict_is_empty(self):
        assert SequentialStrategy().state_dict() == {}

    def test_sequential_rejects_pending_restore(self):
        with pytest.raises(ValueError, match="does not accumulate"):
            SequentialStrategy().restore_pending(None, None)
