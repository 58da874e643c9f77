"""Applying one gate to a state DD (``Package.apply_gate``).

An object-node state takes the paper-literal step (the full n-qubit gate
DD times the state); the iterative kernel's local path must be
indistinguishable from it up to the complex table's tolerance.  The
property test below checks fidelity >= 1 - 1e-10 on randomized circuits of
random (multi-)controlled single-qubit unitaries.
"""

from itertools import islice

import numpy as np
import pytest

from repro.algorithms.grover import grover_circuit
from repro.circuit import QuantumCircuit
from repro.dd import (Package, build_gate_dd, vector_from_numpy,
                      vector_to_numpy)
from repro.simulation import SimulationEngine

H = ((2 ** -0.5, 2 ** -0.5), (2 ** -0.5, -(2 ** -0.5)))
X = ((0, 1), (1, 0))


def _random_unitary_2x2(rng):
    q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    return q


def _random_state(package, rng, n):
    amplitudes = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    amplitudes /= np.linalg.norm(amplitudes)
    return vector_from_numpy(package, amplitudes)


def _matrix_path(package, state, matrix, n, target, controls=None):
    gate = build_gate_dd(package, matrix, n, target, controls)
    return package.multiply_matrix_vector(gate, state)


class TestAgainstMatrixPathway:
    def test_randomized_circuits_fidelity(self):
        """The flat kernel's local path: fidelity >= 1 - 1e-10 against
        the gate DD times the object-node state."""
        rng = np.random.default_rng(2019)
        for trial in range(40):
            n = int(rng.integers(1, 6))
            package = Package(kernel="iterative", dense_blocks=False)
            matrix = _random_state(package, rng, n)
            fast = package.flat.import_vector(matrix)
            for _ in range(int(rng.integers(3, 10))):
                u = _random_unitary_2x2(rng)
                target = int(rng.integers(n))
                others = [q for q in range(n) if q != target]
                rng.shuffle(others)
                controls = {q: int(rng.integers(2))
                            for q in others[:rng.integers(0, len(others) + 1)]}
                fast = package.apply_gate(fast, u, target, controls)
                matrix = _matrix_path(package, matrix, u, n, target, controls)
            assert package.fidelity(fast, matrix) >= 1 - 1e-10, \
                f"trial {trial} diverged"
            # both pathways stay normalised
            assert package.squared_norm(fast) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("n,marked,options,ops", [
        pytest.param(10, 513, {}, None, id="513"),
        pytest.param(10, 535, {}, None, id="535"),
        pytest.param(17, 2 ** 17 - 3,
                     {"kernel": "iterative", "dense_blocks": False}, 130,
                     id="grover17-iterative"),
    ])
    def test_node_counts_match_after_every_op(self, n, marked, options,
                                              ops):
        """Node for node, not just up to fidelity.  Raw weight products
        in a local path's structural copy drift the complex table's
        representatives until shared nodes split: on these Grover-10
        instances the counts then first differed at op 1111 and 893 of
        ~1400, and on Grover-17 at op 95 (38 against 36 nodes).  Short
        random circuits never run long enough to show it.  Grover-17 runs
        its first ``ops`` operations on the flat kernel's local path."""
        fast_pkg, matrix_pkg = Package(**options), Package()
        fast = fast_pkg.basis_state(n, 0)
        matrix = matrix_pkg.basis_state(n, 0)
        operations = grover_circuit(n, marked).circuit.operations()
        for index, op in enumerate(islice(operations, ops)):
            u, controls = op.matrix(), op.control_map()
            fast = fast_pkg.apply_gate(fast, u, op.target, controls)
            matrix = _matrix_path(matrix_pkg, matrix, u, n, op.target,
                                  controls)
            assert fast_pkg.count_nodes(fast) == \
                matrix_pkg.count_nodes(matrix), f"op {index}"

    def test_engine_matches_flat_kernel_on_grover17(self):
        """The default engine's Eq. 1 steps (gate DD times state) keep
        the flat kernel's local path's node count after each of
        Grover-17's first 130 operations."""
        n, ops = 17, 130
        circuit = QuantumCircuit(n)
        for op in islice(grover_circuit(n, 2 ** n - 3).circuit.operations(),
                         ops):
            circuit.append(op)
        events = []
        SimulationEngine().simulate(circuit, trace=events.append)
        engine_counts = [e["state_nodes"] for e in events
                         if e["event"] == "step"]
        flat_pkg = Package(kernel="iterative", dense_blocks=False)
        flat = flat_pkg.basis_state(n, 0)
        flat_counts = []
        for op in circuit.operations():
            flat = flat_pkg.apply_gate(flat, op.matrix(), op.target,
                                       op.control_map())
            flat_counts.append(flat_pkg.count_nodes(flat))
        assert len(engine_counts) == ops
        assert engine_counts == flat_counts

    @pytest.mark.parametrize("target", [0, 1, 2, 3])
    def test_uncontrolled_on_every_level(self, package, target):
        rng = np.random.default_rng(target)
        state = _random_state(package, rng, 4)
        fast = package.apply_gate(state, H, target)
        assert np.allclose(vector_to_numpy(fast, 4),
                           vector_to_numpy(
                               _matrix_path(package, state, H, 4, target), 4),
                           atol=1e-10)

    def test_control_above_target(self, package):
        state = package.basis_state(3, 0b100)
        result = package.apply_gate(state, X, 0, {2: 1})
        assert package.amplitude(result, 0b101) == pytest.approx(1)

    def test_control_below_target(self, package):
        # control on qubit 0, target qubit 2: only |..1> branch flips
        rng = np.random.default_rng(5)
        state = _random_state(package, rng, 3)
        fast = package.apply_gate(state, X, 2, {0: 1})
        ref = _matrix_path(package, state, X, 3, 2, {0: 1})
        assert np.allclose(vector_to_numpy(fast, 3), vector_to_numpy(ref, 3),
                           atol=1e-10)

    def test_negative_control(self, package):
        state = package.basis_state(2, 0b00)
        result = package.apply_gate(state, X, 1, {0: 0})
        assert package.amplitude(result, 0b10) == pytest.approx(1)

    def test_mixed_controls_both_sides(self, package):
        rng = np.random.default_rng(9)
        state = _random_state(package, rng, 5)
        controls = {0: 1, 1: 0, 4: 1}
        fast = package.apply_gate(state, H, 2, controls)
        ref = _matrix_path(package, state, H, 5, 2, controls)
        assert np.allclose(vector_to_numpy(fast, 5), vector_to_numpy(ref, 5),
                           atol=1e-10)


class TestEdgesAndErrors:
    def test_zero_state_input(self, package):
        assert package.apply_gate(package.zero, H, 0) is package.zero

    def test_result_interns_into_unique_table(self, package):
        state = package.basis_state(2, 0)
        a = package.apply_gate(state, H, 1)
        b = package.apply_gate(state, H, 1)
        assert a.node is b.node and a.weight == b.weight

    def test_target_out_of_range(self, package):
        state = package.basis_state(2, 0)
        with pytest.raises(ValueError):
            package.apply_gate(state, H, 2)

    def test_target_cannot_be_control(self, package):
        state = package.basis_state(2, 0)
        with pytest.raises(ValueError):
            package.apply_gate(state, X, 1, {1: 1})

    def test_control_out_of_range(self, package):
        state = package.basis_state(2, 0)
        with pytest.raises(ValueError):
            package.apply_gate(state, X, 0, {5: 1})

    def test_recursion_counter_increments(self):
        # the local path lives on the iterative kernel
        package = Package(kernel="iterative")
        state = package.basis_state(3, 0)
        before = package.counters.apply_gate_recursions
        package.apply_gate(state, H, 0)
        assert package.counters.apply_gate_recursions > before

    def test_cache_hit_on_repeat(self):
        package = Package(kernel="iterative")
        state = package.basis_state(4, 0b1010)
        package.apply_gate(state, H, 1)
        hits_before = package.cache_stats()["compute"]["apply_gate"]["hits"]
        package.apply_gate(state, H, 1)
        assert package.cache_stats()["compute"]["apply_gate"]["hits"] > \
            hits_before

    def test_object_state_takes_one_matrix_vector_step(self, package):
        state = package.basis_state(3, 0b010)
        before = package.counters.snapshot()
        result = package.apply_gate(state, H, 1, {0: 0})
        spent = package.counters.delta(before)
        assert spent.apply_gate_recursions == 0
        assert spent.mult_mv_recursions > 0
        reference = _matrix_path(package, state, H, 3, 1, {0: 0})
        assert result.node is reference.node
        assert result.weight == reference.weight
