"""Construction-level tests for the DD package: nodes, states, identity."""

from random import Random

import numpy as np
import pytest

from repro.circuit import Operation
from repro.dd import Package, build_gate_dd, vector_to_numpy, matrix_to_numpy
from repro.dd.edge import Edge
from repro.dd.kernel import FlatEdge
from repro.dd.node import TERMINAL
from repro.dd.serialization import deserialize_dd, serialize_dd


class TestBasisStates:
    def test_zero_state_amplitudes(self, package):
        state = package.zero_state(3)
        dense = vector_to_numpy(state, 3)
        assert dense[0] == 1
        assert np.count_nonzero(dense) == 1

    @pytest.mark.parametrize("index", [0, 1, 5, 7])
    def test_basis_state_places_single_one(self, package, index):
        state = package.basis_state(3, index)
        dense = vector_to_numpy(state, 3)
        assert dense[index] == 1
        assert np.count_nonzero(dense) == 1

    def test_basis_state_node_count_is_linear(self, package):
        state = package.basis_state(10, 0b1010101010)
        assert package.count_nodes(state) == 10

    def test_basis_state_out_of_range_rejected(self, package):
        with pytest.raises(ValueError):
            package.basis_state(3, 8)

    def test_basis_state_zero_qubits_rejects_nonzero_index(self, package):
        # regression: the old `num_qubits > 0` clause let this slip through
        with pytest.raises(ValueError):
            package.basis_state(0, 5)
        state = package.basis_state(0, 0)  # the only valid 0-qubit index
        assert state.weight == 1

    def test_negative_qubits_rejected(self, package):
        with pytest.raises(ValueError):
            package.basis_state(-1, 0)

    def test_zero_qubit_state_is_terminal(self, package):
        state = package.zero_state(0)
        assert state.node is TERMINAL
        assert state.weight == 1

    def test_same_basis_state_shares_structure(self, package):
        a = package.basis_state(4, 9)
        b = package.basis_state(4, 9)
        assert a.node is b.node


class TestIdentity:
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_identity_matrix_values(self, package, n):
        dense = matrix_to_numpy(package.identity(n), n)
        assert np.allclose(dense, np.eye(1 << n))

    def test_identity_is_linear_in_nodes(self, package):
        # The property the whole paper rests on (Sec. III).
        assert package.count_nodes(package.identity(16)) == 16

    def test_identity_cached(self, package):
        assert package.identity(5).node is package.identity(5).node

    def test_identity_prefix_shared(self, package):
        big = package.identity(6)
        small = package.identity(3)
        # The 3-qubit identity is literally the lower part of the 6-qubit one.
        node = big.node
        for _ in range(3):
            node = node.edges[0].node
        assert node is small.node


class TestNormalisation:
    def test_node_weights_bounded_by_one(self, package):
        from repro.dd import vector_from_numpy
        rng = np.random.default_rng(5)
        vec = rng.normal(size=16) + 1j * rng.normal(size=16)
        state = vector_from_numpy(package, vec)
        stack = [state.node]
        seen = set()
        while stack:
            node = stack.pop()
            if id(node) in seen or node.level == -1:
                continue
            seen.add(id(node))
            for edge in node.edges:
                assert abs(edge.weight) <= 1 + 1e-9
                stack.append(edge.node)

    def test_all_zero_children_collapse_to_zero_edge(self, package):
        edge = package.make_vector_node(0, (package.zero, package.zero))
        assert edge.weight == 0
        assert edge.node is TERMINAL

    def test_first_max_weight_becomes_one(self, package):
        one = package.terminal_edge(1)
        half = package.terminal_edge(0.5)
        edge = package.make_vector_node(0, (half, one))
        # normalised by the largest magnitude: child 1 gets weight 1
        assert edge.node.edges[1].weight == 1
        assert abs(edge.node.edges[0].weight - 0.5) < 1e-12

    def test_uniquing_merges_equal_nodes(self, package):
        a = package.make_vector_node(
            0, (package.terminal_edge(0.6), package.terminal_edge(0.8)))
        b = package.make_vector_node(
            0, (package.terminal_edge(0.6), package.terminal_edge(0.8)))
        assert a.node is b.node

    def test_scaled_nodes_share(self, package):
        a = package.make_vector_node(
            0, (package.terminal_edge(0.3), package.terminal_edge(0.4)))
        b = package.make_vector_node(
            0, (package.terminal_edge(0.6), package.terminal_edge(0.8)))
        # same direction, different scale: one shared node, different weights
        assert a.node is b.node
        assert abs(b.weight / a.weight - 2.0) < 1e-9


class TestAmplitude:
    def test_amplitude_matches_dense(self, package):
        from repro.dd import vector_from_numpy
        rng = np.random.default_rng(3)
        vec = rng.normal(size=8) + 1j * rng.normal(size=8)
        state = vector_from_numpy(package, vec)
        for i in range(8):
            assert abs(package.amplitude(state, i) - vec[i]) < 1e-9

    def test_amplitude_of_zero_edge(self, package):
        assert package.amplitude(package.zero, 0) == 0


class TestMetrics:
    def test_count_nodes_zero_edge(self, package):
        assert package.count_nodes(package.zero) == 0

    def test_count_nodes_terminal(self, package):
        assert package.count_nodes(package.one) == 0

    def test_live_node_count_grows(self, package):
        before = package.live_node_count()
        package.basis_state(6, 33)
        assert package.live_node_count() > before

    def test_counters_snapshot_delta(self, package):
        before = package.counters.snapshot()
        a = package.basis_state(3, 1)
        b = package.basis_state(3, 2)
        package.add_vectors(a, b)
        delta = package.counters.delta(before)
        assert delta.add_recursions > 0
        assert delta.total_recursions() >= delta.add_recursions


def reference_count(edge) -> int:
    """Distinct internal nodes on non-zero paths, by a plain set walk."""
    seen = set()
    stack = [edge]
    while stack:
        current = stack.pop()
        node = current.node
        if current.weight == 0 or node.level == -1 or node in seen:
            continue
        seen.add(node)
        stack.extend(node.edges)
    return len(seen)


def random_operations(rng: Random, num_qubits: int, count: int):
    """``count`` random 1-qubit gates with up to two mixed-polarity controls."""
    for _ in range(count):
        target = rng.randrange(num_qubits)
        others = [q for q in range(num_qubits) if q != target]
        controls = tuple((q, rng.randrange(2))
                         for q in rng.sample(others, rng.randrange(3)))
        gate = rng.choice(["h", "x", "t", "sx", "sy", "ry"])
        params = (rng.uniform(0, 3),) if gate == "ry" else ()
        yield Operation(gate, target, controls, params)


def random_state(package: Package, num_qubits: int = 8, count: int = 60,
                 seed: int = 8):
    """A state with real node sharing, built by explicit gate DDs."""
    state = package.zero_state(num_qubits)
    for op in random_operations(Random(seed), num_qubits, count):
        matrix = build_gate_dd(package, op.matrix(), num_qubits, op.target,
                               op.control_map())
        state = package.multiply_matrix_vector(matrix, state)
    return state


class TestCountNodes:
    """``count_nodes`` counts one level at a time and stores a root's
    count (an object root's on the root, a flat root's in the kernel);
    every count must stay exact."""

    @pytest.mark.parametrize("options", [
        pytest.param({}, id="False"),
        # flat states: FlatKernel.count_nodes, checked against the
        # materialised object nodes
        pytest.param({"kernel": "iterative", "dense_blocks": False},
                     id="iterative"),
    ])
    def test_matches_reference_walk_after_every_gate(self, options):
        package = Package(**options)
        num_qubits = 8
        state = package.zero_state(num_qubits)
        states = []
        for index, op in enumerate(random_operations(Random(8), num_qubits,
                                                     120)):
            matrix = build_gate_dd(package, op.matrix(), num_qubits,
                                   op.target, op.control_map())
            state = package.multiply_matrix_vector(matrix, state)
            states.append(state)
            # products of up to 6 gates, as a combining strategy builds
            product = matrix if index % 6 == 0 \
                else package.multiply_matrix_matrix(matrix, product)
            for edge in (state, matrix, product):
                expected = reference_count(edge)
                # the second count reads what the first one stored
                assert package.count_nodes(edge) == expected, f"op {index}"
                assert package.count_nodes(edge) == expected, f"op {index}"
        assert reference_count(state) > 20  # the walk saw real sharing
        # counts stored up to 120 operations ago are still exact
        for index, kept in enumerate(states):
            expected = reference_count(kept)
            for _ in range(2):
                assert package.count_nodes(kept) == expected, \
                    f"state after op {index}"
        # a collection renumbers the flat store: every count stays exact
        package.garbage_collect(states)
        for index, kept in enumerate(states):
            assert package.count_nodes(kept) == reference_count(kept), \
                f"state after op {index}, after the collection"

    def test_second_count_reads_the_stored_count(self):
        package = Package()
        state = random_state(package)
        root = state.node
        assert root.size == 0  # not counted yet
        count = package.count_nodes(state)
        assert root.size == count == reference_count(state)
        # A walk would recount; the stored value comes back untouched.
        root.size = count + 1000
        assert package.count_nodes(state) == count + 1000

    def test_second_count_of_a_flat_root_reads_the_stored_count(self):
        package = Package(kernel="iterative", dense_blocks=False)
        state = random_state(package)
        stored = package.flat._sizes
        count = package.count_nodes(state)
        assert stored[state.index] == count == reference_count(state)
        # A walk would recount; the stored value comes back untouched.
        stored[state.index] = count + 1000
        assert package.count_nodes(state) == count + 1000
        # A collection renumbers the flat store and drops stored counts.
        assert package.garbage_collect([state]) > 0
        assert package.count_nodes(state) == count

    def test_count_kept_through_garbage_collection(self):
        package = Package()
        state = random_state(package)
        count = package.count_nodes(state)
        assert package.garbage_collect([state]) > 0
        assert package.count_nodes(state) == count == reference_count(state)
        # Collected without being a root: the same DD built again is a
        # fresh node, counted afresh, and the old one keeps its count.
        package.garbage_collect([])
        rebuilt = random_state(package)
        assert rebuilt.node is not state.node
        assert rebuilt.node.size == 0
        assert package.count_nodes(rebuilt) == count
        assert package.count_nodes(state) == count

    def test_count_of_a_materialised_flat_state(self):
        package = Package(kernel="iterative", dense_blocks=False)
        state = random_state(package)
        assert type(state) is FlatEdge
        count = package.count_nodes(state)
        materialised = Edge(state.node, state.weight)
        for _ in range(2):
            assert package.count_nodes(materialised) == count
        assert materialised.node.size == count == reference_count(state)

    @pytest.mark.parametrize("fresh", [False, True],
                             ids=["same-package", "fresh-package"])
    def test_count_of_a_deserialised_copy(self, fresh):
        package = Package()
        state = random_state(package)
        count = package.count_nodes(state)
        target = Package() if fresh else package
        copy = deserialize_dd(target, serialize_dd(state))
        # deserialising re-interns: the same package hands back the
        # counted node, a fresh one builds uncounted nodes
        assert (copy.node is state.node) is not fresh
        for _ in range(2):
            assert target.count_nodes(copy) == count == reference_count(copy)


class TestGarbageCollection:
    def test_unreachable_nodes_removed(self, package):
        keep = package.basis_state(5, 3)
        for i in range(20):
            package.basis_state(5, i)
        before = package.live_node_count()
        removed = package.garbage_collect([keep])
        assert removed > 0
        assert package.live_node_count() < before
        # The kept state still evaluates correctly.
        assert package.amplitude(keep, 3) == 1

    def test_identity_cache_survives_collection(self, package):
        ident = package.identity(4)
        package.garbage_collect([])
        dense = matrix_to_numpy(package.identity(4), 4)
        assert np.allclose(dense, np.eye(16))
        assert package.identity(4).node is ident.node

    def test_collected_package_still_functional(self, package):
        state = package.basis_state(4, 7)
        package.garbage_collect([state])
        h = [[2 ** -0.5, 2 ** -0.5], [2 ** -0.5, -(2 ** -0.5)]]
        from repro.dd import build_gate_dd
        gate = build_gate_dd(package, h, 4, 0)
        result = package.multiply_matrix_vector(gate, state)
        assert abs(package.squared_norm(result) - 1) < 1e-9
