"""End-to-end integration tests across all layers of the library.

These exercise the workflows a downstream user would run: build an
algorithm circuit, simulate it under several strategies, verify physics-level
ground truth, and round-trip through QASM -- with no mocking anywhere.
"""

import math
from random import Random

import numpy as np
import pytest

from repro import (KOperationsStrategy, MaxSizeStrategy, Package,
                   QuantumCircuit, RepeatingBlockStrategy, SequentialStrategy,
                   SimulationEngine)
from repro.simulation import MemoryGovernor
from repro.algorithms import (ShorOrderFinder, factor, grover_circuit,
                              multiplicative_order, qft_circuit,
                              supremacy_circuit)
from repro.baseline import simulate_statevector
from repro.circuit import from_qasm, to_qasm
from repro.dd import sample_counts, vector_to_numpy


class TestCrossStrategyConsistency:
    """All four strategies are interchangeable end to end."""

    STRATEGIES = [SequentialStrategy(), KOperationsStrategy(6),
                  MaxSizeStrategy(48), RepeatingBlockStrategy()]

    def test_on_grover(self):
        instance = grover_circuit(7, 29)
        package = Package()
        results = [SimulationEngine(package).simulate(instance.circuit, s)
                   for s in self.STRATEGIES]
        for other in results[1:]:
            assert results[0].fidelity_with(other) == pytest.approx(1.0)

    def test_on_supremacy(self):
        instance = supremacy_circuit(3, 3, 8, seed=9)
        package = Package()
        results = [SimulationEngine(package).simulate(instance.circuit, s)
                   for s in self.STRATEGIES]
        for other in results[1:]:
            assert results[0].fidelity_with(other) == pytest.approx(1.0)

    def test_on_qft(self):
        circuit = qft_circuit(6)
        package = Package()
        results = [SimulationEngine(package).simulate(circuit, s)
                   for s in self.STRATEGIES]
        for other in results[1:]:
            assert results[0].fidelity_with(other) == pytest.approx(1.0)
        # QFT of |0> is the uniform superposition
        assert results[0].probability(17) == pytest.approx(1 / 64)


class TestPhysicsGroundTruth:
    def test_ghz_state(self):
        qc = QuantumCircuit(6, name="ghz")
        qc.h(0)
        for i in range(5):
            qc.cx(i, i + 1)
        result = SimulationEngine().simulate(qc, MaxSizeStrategy(16))
        assert result.probability(0) == pytest.approx(0.5)
        assert result.probability(63) == pytest.approx(0.5)
        # GHZ states are the best case for DDs: linear size
        assert result.state_nodes() == 6 + 5

    def test_grover_finds_needle_by_sampling(self):
        instance = grover_circuit(9, 333)
        result = SimulationEngine().simulate(instance.circuit,
                                             RepeatingBlockStrategy())
        counts = sample_counts(result.package, result.state, 50, Random(8))
        assert counts.get(333, 0) >= 48

    def test_shor_full_pipeline_factorises(self):
        outcome = factor(33, mode="construct", seed=5)
        assert outcome.succeeded
        assert sorted(outcome.factors) == [3, 11]
        assert any(a.order is not None for a in outcome.attempts)

    def test_shor_order_statistics_match_theory(self):
        """Measured phases concentrate on multiples of 1/r."""
        modulus, base = 21, 2
        r = multiplicative_order(base, modulus)
        good = 0
        for seed in range(8):
            result = ShorOrderFinder(modulus, base, mode="construct",
                                     seed=seed).run()
            phase = result.measured_phase
            distance = min(abs(phase - s / r) for s in range(r + 1))
            if distance < 1 / (1 << (result.precision_bits // 2)):
                good += 1
        assert good >= 6  # the vast majority of runs land near s/r


class TestQasmInterop:
    def test_supremacy_circuit_round_trips_through_qasm(self):
        instance = supremacy_circuit(2, 3, 8, seed=2)
        recovered = from_qasm(to_qasm(instance.circuit))
        assert np.allclose(simulate_statevector(instance.circuit),
                           simulate_statevector(recovered))

    def test_qasm_import_simulates_on_dd(self):
        text = """
            OPENQASM 2.0;
            qreg q[3];
            h q[0]; h q[1]; h q[2];
            ccx q[0],q[1],q[2];
            cp(pi/4) q[0],q[2];
        """
        circuit = from_qasm(text)
        result = SimulationEngine().simulate(circuit, KOperationsStrategy(2))
        dense = simulate_statevector(circuit)
        assert np.allclose(vector_to_numpy(result.state, 3), dense)


class TestDenseAgreementSweep:
    """DD simulation equals dense simulation across one whole workload mix."""

    @pytest.mark.parametrize("builder", [
        lambda: grover_circuit(5, 11).circuit,
        lambda: supremacy_circuit(2, 4, 8, seed=4).circuit,
        lambda: qft_circuit(5),
        lambda: qft_circuit(5, inverse=True),
    ])
    def test_matches_dense(self, builder):
        circuit = builder()
        result = SimulationEngine().simulate(circuit, MaxSizeStrategy(32))
        assert np.allclose(
            vector_to_numpy(result.state, circuit.num_qubits),
            simulate_statevector(circuit), atol=1e-8)


class TestMemoryDiscipline:
    def test_long_simulation_with_small_gc_limit(self):
        instance = supremacy_circuit(3, 3, 10, seed=6)
        tight = SimulationEngine(governor=MemoryGovernor(node_limit=200))
        loose = SimulationEngine(governor=MemoryGovernor(node_limit=None))
        a = tight.simulate(instance.circuit)
        b = loose.simulate(instance.circuit)
        va = vector_to_numpy(a.state, 9)
        vb = vector_to_numpy(b.state, 9)
        assert np.allclose(va, vb, atol=1e-8)
        assert tight.package.live_node_count() \
            <= loose.package.live_node_count()
