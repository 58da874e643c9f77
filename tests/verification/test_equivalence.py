"""DD-based equivalence checking."""

import math

import numpy as np
import pytest
from hypothesis import given

from repro.circuit import QuantumCircuit, from_qasm, to_qasm
from repro.dd import matrix_to_numpy
from repro.simulation import SimulationEngine
from repro.verification import (EquivalenceResult, check_equivalence,
                                circuit_unitary_dd)

from ..conftest import circuits


class TestCircuitUnitary:
    def test_empty_circuit_is_identity(self):
        engine = SimulationEngine()
        unitary = circuit_unitary_dd(engine, QuantumCircuit(3))
        assert unitary.node is engine.package.identity(3).node

    def test_matches_dense_composition(self):
        from repro.baseline import simulate_statevector
        qc = QuantumCircuit(3)
        qc.h(0).cx(0, 1).t(2).ccx(0, 2, 1)
        engine = SimulationEngine()
        unitary = matrix_to_numpy(circuit_unitary_dd(engine, qc), 3)
        for column in range(8):
            assert np.allclose(unitary[:, column],
                               simulate_statevector(qc, column))

    def test_unitary_of_unitary_circuit_is_unitary(self):
        qc = QuantumCircuit(2)
        qc.h(0).sx(1).cp(0.7, 0, 1)
        engine = SimulationEngine()
        dense = matrix_to_numpy(circuit_unitary_dd(engine, qc), 2)
        assert np.allclose(dense @ dense.conj().T, np.eye(4))


class TestEquivalent:
    @pytest.mark.parametrize("method", ["miter", "pointer"])
    def test_identical_circuits(self, method):
        qc = QuantumCircuit(2)
        qc.h(0).cx(0, 1)
        result = check_equivalence(qc, qc, method=method)
        assert result.equivalent
        assert result.global_phase == pytest.approx(1.0)

    @pytest.mark.parametrize("method", ["miter", "pointer"])
    def test_hxh_equals_z(self, method):
        a = QuantumCircuit(1)
        a.h(0).x(0).h(0)
        b = QuantumCircuit(1)
        b.z(0)
        assert check_equivalence(a, b, method=method).equivalent

    def test_swap_decompositions(self):
        a = QuantumCircuit(2)
        a.swap(0, 1)
        b = QuantumCircuit(2)
        b.cx(1, 0).cx(0, 1).cx(1, 0)
        assert check_equivalence(a, b).equivalent

    def test_global_phase_detected(self):
        a = QuantumCircuit(1)
        a.rz(math.pi, 0)       # diag(-i, i) = -i * Z
        b = QuantumCircuit(1)
        b.z(0)
        up_to_phase = check_equivalence(a, b)
        assert up_to_phase.equivalent
        assert up_to_phase.global_phase == pytest.approx(-1j)
        exact = check_equivalence(a, b, up_to_global_phase=False)
        assert not exact.equivalent

    def test_qasm_round_trip_equivalence(self):
        qc = QuantumCircuit(3)
        qc.h(0).cp(math.pi / 8, 0, 2).ccx(0, 1, 2).sdg(1)
        assert check_equivalence(qc, from_qasm(to_qasm(qc))).equivalent

    @given(circuits(max_qubits=3, max_operations=8))
    def test_circuit_equivalent_to_double_inverse(self, qc):
        assert check_equivalence(qc, qc.inverse().inverse(),
                                 method="pointer").equivalent


class TestNotEquivalent:
    @pytest.mark.parametrize("method", ["miter", "pointer"])
    def test_different_gates(self, method):
        a = QuantumCircuit(1)
        a.x(0)
        b = QuantumCircuit(1)
        b.y(0)
        assert not check_equivalence(a, b, method=method).equivalent

    def test_different_qubit_counts(self):
        assert not check_equivalence(QuantumCircuit(2),
                                     QuantumCircuit(3)).equivalent

    def test_close_but_not_equal_rotations(self):
        a = QuantumCircuit(1)
        a.rz(0.5, 0)
        b = QuantumCircuit(1)
        b.rz(0.5001, 0)
        assert not check_equivalence(a, b).equivalent

    @pytest.mark.parametrize("method", ["miter", "pointer"])
    def test_small_phase_is_not_absorbed_by_the_slack(self, method):
        phased = QuantumCircuit(1)
        phased.p(1e-5, 0)
        assert not check_equivalence(phased, QuantumCircuit(1),
                                     method=method).equivalent

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            check_equivalence(QuantumCircuit(1), QuantumCircuit(1),
                              method="telepathy")

    def test_result_is_falsy_when_not_equivalent(self):
        a = QuantumCircuit(1)
        a.x(0)
        result = check_equivalence(a, QuantumCircuit(1))
        assert not result
