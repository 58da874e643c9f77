"""The backend protocol, registry, and cross-backend agreement."""

import numpy as np
import pytest

from repro.backends import (ArrayResult, Backend, BackendCapabilities,
                            available_backends, backend_description,
                            create_backend, register_backend,
                            unregister_backend)
from repro.baseline import simulate_statevector
from repro.circuit.circuit import QuantumCircuit
from repro.circuit.qasm import from_qasm

FIDELITY_FLOOR = 1 - 1e-9

GHZ_QASM = """
OPENQASM 2.0;
qreg q[3];
h q[0];
cx q[0],q[1];
cx q[1],q[2];
"""

MIXED_QASM = """
OPENQASM 2.0;
include "qelib1.inc";
qreg q[4];
h q[0];
cx q[0],q[1];
rz(0.7) q[1];
t q[2];
ccx q[0],q[1],q[3];
ry(1.1) q[2];
cz q[2],q[3];
sdg q[0];
"""

BUILTINS = ("dd", "dd-iterative", "dd-matrix", "dense")


def fidelity_to_dense(result, circuit) -> float:
    dense = simulate_statevector(circuit)
    inner = sum(result.amplitude(i).conjugate() * dense[i]
                for i in range(1 << circuit.num_qubits))
    return abs(inner) ** 2


class TestRegistry:
    def test_builtins_registered(self):
        for name in BUILTINS:
            assert name in available_backends()
            assert backend_description(name)

    def test_unknown_name_lists_registered(self):
        with pytest.raises(ValueError, match="dd-iterative"):
            create_backend("no-such-backend")

    def test_duplicate_registration_refused_without_replace(self):
        from repro.backends import DenseBackend
        with pytest.raises(ValueError, match="already registered"):
            register_backend("dense", DenseBackend)

    def test_unknown_factory_option_names_backend(self):
        with pytest.raises(ValueError, match="dense"):
            create_backend("dense", bogus_option=1)

    def test_register_unregister_roundtrip(self):
        from repro.backends import DenseBackend
        register_backend("temp-dense", DenseBackend)
        try:
            assert "temp-dense" in available_backends()
            backend = create_backend("temp-dense")
            # an alias resolves, but the adapter keeps its own identity
            assert backend.name == "dense"
        finally:
            unregister_backend("temp-dense")
        assert "temp-dense" not in available_backends()


class TestProtocol:
    @pytest.mark.parametrize("name", BUILTINS)
    def test_agrees_with_dense_baseline(self, name):
        circuit = from_qasm(MIXED_QASM)
        result = create_backend(name).run(circuit)
        assert fidelity_to_dense(result, circuit) >= FIDELITY_FLOOR
        assert result.statistics.backend == name
        assert result.statistics.circuit_name == circuit.name

    @pytest.mark.parametrize("name", BUILTINS)
    def test_initial_basis_state(self, name):
        circuit = QuantumCircuit(2, name="idle")
        circuit.x(0)
        result = create_backend(name).run(circuit, initial_index=0b10)
        assert abs(result.probability(0b11) - 1.0) < 1e-9

    def test_probabilities_normalise(self):
        circuit = from_qasm(MIXED_QASM)
        for name in BUILTINS:
            probabilities = create_backend(name).run(circuit).probabilities()
            assert abs(sum(probabilities) - 1.0) < 1e-9

    def test_sampling_identical_across_backends(self):
        from random import Random
        circuit = from_qasm(MIXED_QASM)
        counts = [create_backend(name).run(circuit).sample(64, Random(5))
                  for name in ("dense", "dd-iterative", "dd")]
        assert counts[0] == counts[1] == counts[2]

    def test_fidelity_with_cross_backend(self):
        circuit = from_qasm(GHZ_QASM)
        a = create_backend("dd").run(circuit)
        b = create_backend("dense").run(circuit)
        assert a.fidelity_with(b) >= FIDELITY_FLOOR
        assert b.fidelity_with(a) >= FIDELITY_FLOOR


class TestCapabilityValidation:
    def test_strategy_rejected_on_streaming_backends(self):
        circuit = from_qasm(GHZ_QASM)
        for name in ("dense", "dd", "dd-iterative"):
            with pytest.raises(ValueError, match="strateg"):
                create_backend(name).run(circuit, strategy="k=2")

    def test_dd_matrix_honours_strategy(self):
        circuit = from_qasm(MIXED_QASM)
        result = create_backend("dd-matrix").run(circuit, strategy="k=2")
        assert result.statistics.matrix_matrix_mults > 0
        assert fidelity_to_dense(result, circuit) >= FIDELITY_FLOOR

    def test_reorder_rejected_on_dense(self):
        circuit = from_qasm(GHZ_QASM)
        with pytest.raises(ValueError, match="reorder"):
            create_backend("dense").run(circuit, reorder="governor")

    def test_qubit_cap_enforced(self):
        circuit = QuantumCircuit(30, name="too-wide")
        circuit.h(0)
        with pytest.raises(ValueError, match="capped"):
            create_backend("dense").run(circuit)

    def test_capabilities_descriptor(self):
        for name in BUILTINS:
            capabilities = create_backend(name).capabilities()
            assert isinstance(capabilities, BackendCapabilities)
            assert capabilities.description
            payload = capabilities.as_dict()
            assert set(payload) >= {"strategies", "reorder", "checkpoint",
                                    "max_qubits"}


class TestArrayResult:
    def test_shape_validated(self):
        from repro.simulation.statistics import SimulationStatistics
        with pytest.raises(ValueError, match="does not match"):
            ArrayResult(np.zeros(3, dtype=complex), 2,
                        SimulationStatistics())

    def test_qubit_mismatch_in_fidelity(self):
        ghz = from_qasm(GHZ_QASM)
        small = QuantumCircuit(2, name="small")
        small.h(0)
        a = create_backend("dense").run(ghz)
        b = create_backend("dense").run(small)
        with pytest.raises(ValueError, match="mismatch"):
            a.fidelity_with(b)


class TestCustomBackend:
    """Registration of out-of-tree backends (the extension point)."""

    def test_custom_backend_joins_pool(self):
        class Stub(Backend):
            name = "stub"

            def capabilities(self):
                return BackendCapabilities(description="stub")

            def run(self, circuit, strategy=None, initial_index=0,
                    **run_options):
                from repro.simulation.statistics import SimulationStatistics
                vector = np.zeros(1 << circuit.num_qubits, dtype=complex)
                vector[0] = 1.0
                return ArrayResult(vector, circuit.num_qubits,
                                   SimulationStatistics())

        register_backend("stub", Stub, replace=True)
        try:
            circuit = QuantumCircuit(2, name="noop")
            result = create_backend("stub").run(circuit)
            assert result.probability(0) == 1.0
        finally:
            unregister_backend("stub")

    def test_abstract_base_not_instantiable(self):
        with pytest.raises(TypeError):
            Backend()
