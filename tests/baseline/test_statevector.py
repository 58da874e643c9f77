"""The dense numpy comparator itself must be trustworthy."""

import math
from random import Random

import numpy as np
import pytest

from repro.baseline import (StatevectorSimulator, apply_operation,
                            simulate_statevector)
from repro.baseline.statevector import sample_probabilities
from repro.circuit import Operation, QuantumCircuit


class TopDraw:
    """An rng whose every draw is the largest float below 1."""

    def random(self):
        return math.nextafter(1.0, 0.0)


class TestApplyOperation:
    def test_x_flips_target(self):
        state = np.zeros(4, dtype=complex)
        state[0] = 1
        apply_operation(state, Operation("x", 1), 2)
        assert state[2] == 1

    def test_controlled_gate_respects_control(self):
        state = np.zeros(4, dtype=complex)
        state[0] = 1
        apply_operation(state, Operation("x", 1, controls=(0,)), 2)
        assert state[0] == 1  # control off: unchanged
        state = np.zeros(4, dtype=complex)
        state[1] = 1
        apply_operation(state, Operation("x", 1, controls=(0,)), 2)
        assert state[3] == 1

    def test_negative_control(self):
        state = np.zeros(4, dtype=complex)
        state[0] = 1
        apply_operation(state, Operation("x", 1, controls=((0, 0),)), 2)
        assert state[2] == 1

    def test_hadamard_normalisation(self):
        state = np.zeros(2, dtype=complex)
        state[0] = 1
        apply_operation(state, Operation("h", 0), 1)
        assert np.allclose(np.abs(state), [2 ** -0.5] * 2)

    def test_non_contiguous_state_rejected(self):
        # the update goes through a reshaped view; a strided array would
        # be reshaped into a copy and the caller's state left untouched
        state = np.zeros(8, dtype=complex)[::2]
        with pytest.raises(ValueError, match="contiguous"):
            apply_operation(state, Operation("h", 0), 2)

    def test_qubit_outside_register_rejected(self):
        state = np.zeros(4, dtype=complex)
        state[0] = 1
        with pytest.raises(ValueError, match="exceeds"):
            apply_operation(state, Operation("x", 2), 2)
        with pytest.raises(ValueError, match="exceeds"):
            apply_operation(state, Operation("x", 0, controls=(3,)), 2)
        assert state[0] == 1

    @pytest.mark.parametrize("num_qubits", [1, 2, 3, 5])
    def test_bit_identical_to_index_arrays(self, num_qubits):
        """Axis slicing does the same arithmetic as the gather/scatter
        update it replaced, so amplitudes must match exactly -- including
        gates whose target and controls cover the whole register."""
        rng = Random(num_qubits)
        state = np.zeros(1 << num_qubits, dtype=complex)
        state[rng.randrange(1 << num_qubits)] = 1
        reference = state.copy()
        for _ in range(60):
            qubits = rng.sample(range(num_qubits),
                                rng.randint(1, num_qubits))
            gate = rng.choice(["h", "t", "sx", "rx", "ry"])
            params = (rng.uniform(0, 6),) if gate in ("rx", "ry") else ()
            operation = Operation(gate, qubits[0],
                                  tuple((q, rng.randint(0, 1))
                                        for q in qubits[1:]), params)
            apply_operation(state, operation, num_qubits)
            gather_scatter(reference, operation)
        assert np.array_equal(state, reference)


def gather_scatter(state, operation):
    """Reference update through index arrays (no views)."""
    u = operation.matrix()
    indices = np.arange(state.shape[0])
    selected = ((indices >> operation.target) & 1) == 0
    for qubit, value in operation.controls:
        selected &= ((indices >> qubit) & 1) == value
    i0 = indices[selected]
    i1 = i0 | (1 << operation.target)
    a0 = state[i0]
    a1 = state[i1]
    state[i0] = u[0, 0] * a0 + u[0, 1] * a1
    state[i1] = u[1, 0] * a0 + u[1, 1] * a1


class TestSimulator:
    def test_bell_state(self):
        qc = QuantumCircuit(2)
        qc.h(0).cx(0, 1)
        state = simulate_statevector(qc)
        assert np.allclose(np.abs(state) ** 2, [0.5, 0, 0, 0.5])

    def test_initial_basis_state(self):
        qc = QuantumCircuit(3)
        qc.x(0)
        state = simulate_statevector(qc, initial_index=0b100)
        assert abs(state[0b101]) == pytest.approx(1.0)

    def test_size_mismatch_rejected(self):
        simulator = StatevectorSimulator(2)
        qc = QuantumCircuit(3)
        with pytest.raises(ValueError):
            simulator.run(qc)

    def test_probabilities(self):
        simulator = StatevectorSimulator(1)
        simulator.apply(Operation("h", 0))
        assert np.allclose(simulator.probabilities(), [0.5, 0.5])

    def test_measure_collapses(self):
        simulator = StatevectorSimulator(2)
        simulator.apply(Operation("h", 0))
        simulator.apply(Operation("x", 1, controls=(0,)))
        outcome = simulator.measure_qubit(0, Random(5))
        expected_index = 3 if outcome else 0
        assert abs(simulator.state[expected_index]) == pytest.approx(1.0)

    def test_measure_statistics(self):
        ones = 0
        for seed in range(100):
            simulator = StatevectorSimulator(1)
            simulator.apply(Operation("h", 0))
            ones += simulator.measure_qubit(0, Random(seed))
        assert 25 < ones < 75

    def test_sample(self):
        simulator = StatevectorSimulator(2)
        simulator.apply(Operation("h", 0))
        counts = simulator.sample(100, Random(2))
        assert sum(counts.values()) == 100
        assert set(counts) <= {0, 1}

    def test_sample_stays_inside_register(self):
        # seven rx/ry layers leave probabilities that sum to 1 - 1.1e-15;
        # searching the raw cumulative sum sent the top draw to index 4
        simulator = StatevectorSimulator(2)
        for _ in range(7):
            simulator.apply(Operation("rx", 0, params=(0.3,)))
            simulator.apply(Operation("ry", 1, params=(1.1,)))
        assert simulator.probabilities().sum() < 1.0
        assert simulator.sample(3, TopDraw()) == {3: 3}

    def test_sample_skips_zero_probability_tail(self):
        # the normalised cumulative sum ends at 1 - 2.2e-16 here, so the
        # top draw runs past it; it must land on the last outcome that
        # can occur, not on the zero-probability basis state after it
        probabilities = [0.39729834349081705, 0.14698535255311235,
                         0.3660418526163628, 0.0896744513397079, 0.0]
        assert sample_probabilities(probabilities, 2, TopDraw()) == {3: 2}

    def test_norm_preserved_through_circuit(self):
        qc = QuantumCircuit(3)
        qc.h(0).cx(0, 1).t(2).ccx(0, 1, 2).sx(1)
        state = simulate_statevector(qc)
        assert np.linalg.norm(state) == pytest.approx(1.0)
