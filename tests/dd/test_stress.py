"""Stress and failure-injection tests for the DD package.

Caches and garbage collection are pure optimisations: the package must
produce bit-identical results when they are crippled.  These tests inject
pathological configurations (tiny caches, constant eviction, aggressive GC,
coarse tolerances, deep registers) and verify semantics survive.
"""

import numpy as np
import pytest

from repro.circuit import QuantumCircuit
from repro.dd import (Package, matrix_from_numpy, matrix_to_numpy,
                      vector_from_numpy, vector_to_numpy)
from repro.simulation import MemoryGovernor, SimulationEngine


def crippled_package(slots: int = 1) -> Package:
    """A package whose compute tables overwrite on almost every insert."""
    from repro.dd.compute_table import ComputeTable
    package = Package()
    tables = package.tables
    for name in ("add_vec", "add_mat", "mult_mv", "mult_mm", "kron_vec",
                 "kron_mat", "conj_t", "inner", "apply_gate"):
        setattr(tables, name, ComputeTable(name, slots=slots))
    return package


class TestCacheEviction:
    def test_multiplication_correct_under_constant_eviction(self):
        rng = np.random.default_rng(1)
        m = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        v = rng.normal(size=16) + 1j * rng.normal(size=16)
        package = crippled_package()
        result = package.multiply_matrix_vector(
            matrix_from_numpy(package, m), vector_from_numpy(package, v))
        assert np.allclose(vector_to_numpy(result, 4), m @ v, atol=1e-8)

    def test_matrix_product_correct_under_constant_eviction(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        b = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        package = crippled_package()
        result = package.multiply_matrix_matrix(
            matrix_from_numpy(package, a), matrix_from_numpy(package, b))
        assert np.allclose(matrix_to_numpy(result, 3), a @ b, atol=1e-8)

    def test_whole_simulation_under_constant_eviction(self):
        from repro.algorithms import supremacy_circuit
        from repro.baseline import simulate_statevector
        instance = supremacy_circuit(2, 3, 8, seed=5)
        engine = SimulationEngine(crippled_package())
        result = engine.simulate(instance.circuit)
        assert np.allclose(vector_to_numpy(result.state, 6),
                           simulate_statevector(instance.circuit),
                           atol=1e-8)

    def test_evictions_actually_happened(self):
        package = crippled_package()
        rng = np.random.default_rng(3)
        m = rng.normal(size=(8, 8))
        package.multiply_matrix_vector(
            matrix_from_numpy(package, m),
            vector_from_numpy(package, rng.normal(size=8)))
        assert package.tables.mult_mv.collisions > 0 \
            or package.tables.add_vec.collisions > 0


class TestAggressiveGarbageCollection:
    def test_gc_after_every_gate(self):
        from repro.baseline import simulate_statevector
        qc = QuantumCircuit(4)
        qc.h(0).cx(0, 1).t(1).cx(1, 2).sx(3).ccx(0, 2, 3).h(2)
        engine = SimulationEngine(governor=MemoryGovernor(node_limit=1))

        def keep_limit_at_one(index: int) -> None:
            # the first futile collection grows the limit past the working
            # set; pin it back so the next gate collects too
            engine.governor.limit = 1

        result = engine.simulate(qc, on_op=keep_limit_at_one)
        assert result.statistics.gc.collections == qc.num_operations()
        assert np.allclose(vector_to_numpy(result.state, 4),
                           simulate_statevector(qc), atol=1e-9)

    def test_gc_with_empty_roots_leaves_identity_cache(self):
        package = Package()
        package.identity(6)
        package.basis_state(6, 5)
        package.garbage_collect([])
        assert np.allclose(matrix_to_numpy(package.identity(6), 6),
                           np.eye(64))

    def test_repeated_gc_is_idempotent(self):
        package = Package()
        state = package.basis_state(5, 21)
        package.garbage_collect([state])
        first = package.live_node_count()
        package.garbage_collect([state])
        assert package.live_node_count() == first


class TestDeepRegisters:
    def test_64_qubit_basis_state(self):
        package = Package()
        index = int("10" * 32, 2)
        state = package.basis_state(64, index)
        assert package.amplitude(state, index) == 1
        assert package.count_nodes(state) == 64

    def test_64_qubit_ghz(self):
        from repro.dd import ghz_state
        package = Package()
        state = ghz_state(package, 64)
        assert package.squared_norm(state) == pytest.approx(1.0)
        assert abs(package.amplitude(state, (1 << 64) - 1)) \
            == pytest.approx(2 ** -0.5)

    def test_wide_gate_application(self):
        package = Package()
        from repro.dd import build_gate_dd
        h = [[2 ** -0.5, 2 ** -0.5], [2 ** -0.5, -(2 ** -0.5)]]
        gate = build_gate_dd(package, h, 48, 24)
        state = package.multiply_matrix_vector(gate,
                                               package.zero_state(48))
        assert package.squared_norm(state) == pytest.approx(1.0)
        assert package.count_nodes(state) == 48


class TestCoarseTolerance:
    def test_coarse_tolerance_still_simulates_correctly(self):
        # 1e-4 tolerance merges aggressively but must not corrupt a short
        # Clifford+T circuit whose amplitudes are well separated
        from repro.baseline import simulate_statevector
        qc = QuantumCircuit(3)
        qc.h(0).cx(0, 1).t(1).cx(1, 2).h(2)
        engine = SimulationEngine(Package(tolerance=1e-4))
        result = engine.simulate(qc)
        assert np.allclose(vector_to_numpy(result.state, 3),
                           simulate_statevector(qc), atol=1e-3)

    def test_fine_tolerance_distinguishes_close_rotations(self):
        package = Package(tolerance=1e-13)
        qc_a = QuantumCircuit(1)
        qc_a.rz(0.5, 0)
        qc_b = QuantumCircuit(1)
        qc_b.rz(0.5 + 1e-9, 0)
        engine = SimulationEngine(package)
        a = engine.simulate(qc_a, initial_state=package.basis_state(1, 1))
        b = engine.simulate(qc_b, initial_state=package.basis_state(1, 1))
        assert a.amplitude(1) != b.amplitude(1)


class TestNumericalRobustness:
    def test_long_product_of_rotations_keeps_unit_norm(self):
        package = Package()
        engine = SimulationEngine(package)
        qc = QuantumCircuit(2)
        for k in range(200):
            qc.rz(0.1 + k * 1e-3, 0)
            qc.rx(0.07, 1)
            qc.cx(0, 1)
        result = engine.simulate(qc)
        assert package.squared_norm(result.state) == pytest.approx(
            1.0, abs=1e-7)

    def test_repeated_hadamards_return_exactly(self):
        package = Package()
        engine = SimulationEngine(package)
        qc = QuantumCircuit(1)
        for _ in range(100):
            qc.h(0)
        result = engine.simulate(qc)
        # even number of H -> |0> exactly (tolerance snapping keeps it clean)
        assert result.probability(0) == pytest.approx(1.0, abs=1e-9)
        assert result.state_nodes() == 1
