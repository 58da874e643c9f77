"""Hypothesis property tests at the circuit level."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.baseline import simulate_statevector
from repro.circuit import QuantumCircuit, from_qasm, to_qasm
from repro.circuit.optimization import optimise
from repro.verification import check_equivalence

from ..conftest import circuits


def _phase_sandwich(theta: float) -> QuantumCircuit:
    qc = QuantumCircuit(1)
    qc.h(0)
    qc.p(theta, 0)
    qc.h(0)
    return qc


class TestStructuralProperties:
    @given(circuits(max_qubits=3, max_operations=8))
    def test_double_inverse_is_original(self, qc):
        assert qc.inverse().inverse() == qc

    @given(circuits(max_qubits=3, max_operations=8))
    def test_inverse_preserves_operation_count(self, qc):
        assert qc.inverse().num_operations() == qc.num_operations()

    @given(circuits(max_qubits=3, max_operations=6),
           circuits(max_qubits=3, max_operations=6))
    def test_compose_concatenates(self, a, b):
        target = QuantumCircuit(3)
        target.compose(_widen(a, 3))
        count_after_a = target.num_operations()
        target.compose(_widen(b, 3))
        assert target.num_operations() \
            == count_after_a + b.num_operations()

    @given(circuits(max_qubits=3, max_operations=8),
           st.integers(min_value=0, max_value=4))
    def test_repeated_block_operation_count(self, qc, repetitions):
        host = QuantumCircuit(qc.num_qubits)
        host.add_repeated_block(qc, repetitions)
        assert host.num_operations() \
            == qc.num_operations() * repetitions

    @given(circuits(max_qubits=3, max_operations=8))
    def test_depth_at_most_operations(self, qc):
        assert qc.depth() <= qc.num_operations()


class TestSemanticProperties:
    @given(circuits(max_qubits=3, max_operations=8))
    def test_optimise_is_idempotent(self, qc):
        once = optimise(qc)
        twice = optimise(once)
        assert list(once.operations()) == list(twice.operations())

    @given(circuits(max_qubits=3, max_operations=6))
    def test_inverse_undoes_circuit_semantically(self, qc):
        combined = QuantumCircuit(qc.num_qubits)
        combined.compose(qc)
        combined.compose(qc.inverse())
        for index in (0, (1 << qc.num_qubits) - 1):
            out = simulate_statevector(combined, index)
            assert abs(out[index]) == pytest.approx(1.0, abs=1e-6)

    @given(circuits(max_qubits=3, max_operations=8))
    def test_qasm_round_trip_equivalence(self, qc):
        try:
            text = to_qasm(qc)
        except Exception:
            return  # circuits with features outside the QASM subset
        recovered = from_qasm(text)
        assert np.allclose(simulate_statevector(qc),
                           simulate_statevector(recovered), atol=1e-7)

    @given(circuits(max_qubits=3, max_operations=8))
    def test_unitarity_of_every_random_circuit(self, qc):
        size = 1 << qc.num_qubits
        unitary = np.zeros((size, size), dtype=complex)
        for column in range(size):
            unitary[:, column] = simulate_statevector(qc, column)
        assert np.allclose(unitary @ unitary.conj().T, np.eye(size),
                           atol=1e-7)

    # h; p(theta); h with a tolerance-scale theta leaves miter weights of
    # exactly the complex-table tolerance
    @given(circuits(max_qubits=3, max_operations=6))
    @example(_phase_sandwich(1e-10))
    @example(_phase_sandwich(-1e-10))
    @example(_phase_sandwich(1.5e-10))
    def test_miter_and_pointer_methods_agree(self, qc):
        mutated = QuantumCircuit(qc.num_qubits)
        mutated.compose(qc)
        mutated.x(0)
        for other in (qc, mutated):
            miter = check_equivalence(qc, other, method="miter").equivalent
            pointer = check_equivalence(qc, other,
                                        method="pointer").equivalent
            assert miter == pointer


def _widen(circuit: QuantumCircuit, num_qubits: int) -> QuantumCircuit:
    wide = QuantumCircuit(num_qubits, name=circuit.name)
    wide.extend(circuit.instructions)
    return wide
