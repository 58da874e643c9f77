"""Measurement, projection and sampling on state DDs."""

import gc
import math
import weakref
from random import Random

import numpy as np
import pytest
from hypothesis import given

from repro.dd import (Package, all_probabilities, measure_qubit,
                      project_qubit, qubit_probability, sample_bitstring,
                      sample_counts, vector_from_numpy, vector_to_numpy)

from ..conftest import unit_vectors


def bell_state(package):
    return vector_from_numpy(package,
                             np.array([1, 0, 0, 1]) / math.sqrt(2))


class TestQubitProbability:
    def test_basis_state_probabilities(self, package):
        state = package.basis_state(3, 0b101)
        assert qubit_probability(package, state, 0) == 1.0
        assert qubit_probability(package, state, 1) == 0.0
        assert qubit_probability(package, state, 2) == 1.0

    def test_bell_state_is_balanced(self, package):
        state = bell_state(package)
        assert abs(qubit_probability(package, state, 0) - 0.5) < 1e-12
        assert abs(qubit_probability(package, state, 1) - 0.5) < 1e-12

    def test_unnormalised_state_handled(self, package):
        state = vector_from_numpy(package, np.array([3, 0, 0, 4]))
        assert abs(qubit_probability(package, state, 0) - 16 / 25) < 1e-9

    def test_zero_state_rejected(self, package):
        with pytest.raises(ValueError):
            qubit_probability(package, package.zero, 0)

    def test_out_of_range_qubit_rejected(self, package):
        with pytest.raises(ValueError):
            qubit_probability(package, package.basis_state(2, 0), 5)

    @given(unit_vectors(3))
    def test_matches_dense_marginal(self, vec):
        package = Package()
        state = vector_from_numpy(package, vec)
        for qubit in range(3):
            expected = sum(abs(vec[i]) ** 2 for i in range(8)
                           if (i >> qubit) & 1)
            assert abs(qubit_probability(package, state, qubit)
                       - expected) < 1e-6


class TestProjection:
    def test_projection_collapses_bell_state(self, package):
        state = bell_state(package)
        collapsed = project_qubit(package, state, 0, 1)
        dense = vector_to_numpy(collapsed, 2)
        assert np.allclose(np.abs(dense), [0, 0, 0, 1])

    def test_projection_renormalises(self, package):
        state = bell_state(package)
        collapsed = project_qubit(package, state, 1, 0)
        assert abs(package.squared_norm(collapsed) - 1) < 1e-9

    def test_projection_without_renormalise(self, package):
        state = bell_state(package)
        collapsed = project_qubit(package, state, 1, 0, renormalise=False)
        assert abs(package.squared_norm(collapsed) - 0.5) < 1e-9

    def test_projection_onto_unsupported_branch_is_zero(self, package):
        state = package.basis_state(2, 0)
        collapsed = project_qubit(package, state, 0, 1)
        assert collapsed.weight == 0

    def test_invalid_value_rejected(self, package):
        with pytest.raises(ValueError):
            project_qubit(package, package.basis_state(1, 0), 0, 2)

    @given(unit_vectors(3))
    def test_projection_matches_dense(self, vec):
        package = Package()
        state = vector_from_numpy(package, vec)
        qubit, value = 1, 1
        mass = sum(abs(vec[i]) ** 2 for i in range(8) if (i >> qubit) & 1)
        if mass < 1e-6:
            return
        expected = np.array([vec[i] if ((i >> qubit) & 1) == value else 0
                             for i in range(8)]) / math.sqrt(mass)
        collapsed = project_qubit(package, state, qubit, value)
        assert np.allclose(vector_to_numpy(collapsed, 3), expected,
                           atol=1e-6)


class TestMeasureQubit:
    def test_deterministic_outcome(self, package):
        state = package.basis_state(3, 0b010)
        outcome, collapsed, probability = measure_qubit(
            package, state, 1, Random(0))
        assert outcome == 1
        assert probability == pytest.approx(1.0)
        assert abs(package.amplitude(collapsed, 0b010)) == pytest.approx(1.0)

    def test_statistics_of_balanced_measurement(self, package):
        state = bell_state(package)
        rng = Random(123)
        outcomes = [measure_qubit(package, state, 0, rng)[0]
                    for _ in range(400)]
        ones = sum(outcomes)
        assert 140 < ones < 260  # ~N(200, 10)

    def test_collapse_is_consistent_with_outcome(self, package):
        state = bell_state(package)
        outcome, collapsed, _ = measure_qubit(package, state, 0, Random(7))
        assert qubit_probability(package, collapsed, 0) == pytest.approx(
            float(outcome))


class TestSampling:
    def test_sample_bitstring_respects_support(self, package):
        state = bell_state(package)
        rng = Random(5)
        for _ in range(50):
            assert sample_bitstring(package, state, rng) in (0, 3)

    def test_sample_counts_total(self, package):
        state = bell_state(package)
        counts = sample_counts(package, state, 100, Random(9))
        assert sum(counts.values()) == 100
        assert set(counts) <= {0, 3}

    def test_sampling_distribution(self, package):
        vec = np.array([math.sqrt(0.8), 0, 0, math.sqrt(0.2)])
        state = vector_from_numpy(package, vec)
        counts = sample_counts(package, state, 1000, Random(11))
        assert counts.get(0, 0) > counts.get(3, 0)
        assert 700 < counts.get(0, 0) < 900

    def test_sample_zero_vector_rejected(self, package):
        with pytest.raises(ValueError):
            sample_bitstring(package, package.zero, Random(0))


class TestAllProbabilities:
    def test_sums_to_one(self, package):
        state = bell_state(package)
        probabilities = all_probabilities(package, state, 2)
        assert abs(sum(probabilities) - 1) < 1e-9

    @given(unit_vectors(2))
    def test_matches_dense(self, vec):
        package = Package()
        state = vector_from_numpy(package, vec)
        probabilities = all_probabilities(package, state, 2)
        assert np.allclose(probabilities, np.abs(vec) ** 2, atol=1e-6)


class TestNoReferenceCycles:
    """Recursive helpers must not leave reference cycles behind: the engine
    and Shor's order finder run with the cyclic collector paused, so only
    reference counting frees a dropped package or memo there."""

    @pytest.mark.parametrize("helper", ["measure", "sample", "outer",
                                        "permutation"])
    def test_frees_package_and_memos_without_the_cyclic_collector(
            self, helper):
        from repro.dd import build_gate_dd, build_permutation_dd

        was_enabled = gc.isenabled()
        gc.disable()
        gc.collect()
        try:
            package = Package()
            alive = weakref.ref(package)
            hadamard = build_gate_dd(package, [[1, 1], [1, -1]], 3, 2)
            state = package.multiply_matrix_vector(
                hadamard, package.basis_state(3, 0b011))
            if helper == "measure":
                measure_qubit(package, state, 2, Random(3))
            elif helper == "sample":
                sample_bitstring(package, state, Random(3))
            elif helper == "outer":
                package.outer_product(state, state)
            else:
                build_permutation_dd(package, [2, 0, 3, 1], 2)
            del package, hadamard, state
            assert alive() is None
            assert gc.collect() == 0  # no memo left behind in a cycle
        finally:
            if was_enabled:
                gc.enable()

    @pytest.mark.parametrize("entry", [
        "iterative_package", "vector_from_numpy", "matrix_from_numpy",
        "build_diagonal_dd", "build_two_level_dd",
        "prune_small_contributions", "swap_adjacent_levels",
        "partial_trace", "diagonal_expectation", "import_vector",
        "import_matrix", "iterative_sota_run", "iterative_smax16_run",
        "vector_to_numpy", "matrix_to_numpy", "serialize_dd", "purity"])
    def test_entry_point_frees_the_package_without_the_cyclic_collector(
            self, entry):
        was_enabled = gc.isenabled()
        gc.disable()
        gc.collect()
        try:
            package, kernel = _exercise(entry)
            assert package() is None
            assert kernel is None or kernel() is None
            assert gc.collect() == 0  # no memo left behind in a cycle
        finally:
            if was_enabled:
                gc.enable()


def _exercise(entry: str) -> tuple:
    """Run ``entry`` on a fresh package and drop everything it returned;
    give back weak references to the package and its flat kernel."""
    from repro.algorithms import grover_circuit
    from repro.dd import (build_diagonal_dd, build_gate_dd,
                          build_two_level_dd, diagonal_expectation,
                          matrix_from_numpy, matrix_to_numpy,
                          prune_small_contributions, serialize_dd,
                          swap_adjacent_levels)
    from repro.simulation import (MaxSizeStrategy, SequentialStrategy,
                                  SimulationEngine)
    from repro.simulation.density import (DensityMatrixSimulator,
                                          partial_trace)

    iterative = entry.startswith(("iterative", "import"))
    package = Package(kernel="iterative" if iterative else "recursive")
    # Built with none of the helpers under test, so each case fails only
    # on its own helper.
    c, s = math.cos(0.3), math.sin(0.3)
    state = package.basis_state(3, 0)
    for qubit in range(3):
        state = package.apply_gate(state, ((c, -s), (s, c)), qubit)
    if entry == "vector_from_numpy":
        vector_from_numpy(package, np.arange(1, 9) / math.sqrt(204))
    elif entry == "matrix_from_numpy":
        matrix_from_numpy(package, np.eye(4))
    elif entry == "build_diagonal_dd":
        build_diagonal_dd(package, [1, -1, 1, 1], 2)
    elif entry == "build_two_level_dd":
        build_two_level_dd(package, 3, 1, 6, [[0, 1], [1, 0]])
    elif entry == "prune_small_contributions":
        assert prune_small_contributions(package, state, 0.1).edges_cut
    elif entry == "swap_adjacent_levels":
        swap_adjacent_levels(package, state, 0)
    elif entry == "partial_trace":
        partial_trace(package, package.outer_product(state, state), 0)
    elif entry == "diagonal_expectation":
        diagonal_expectation(package, state, lambda index: index)
    elif entry == "import_vector":
        package.flat.import_vector(state.node.edges[0])
    elif entry == "import_matrix":
        package.flat.import_matrix(
            build_gate_dd(package, [[0, 1], [1, 0]], 3, 1))
    elif entry == "vector_to_numpy":
        vector_to_numpy(state, 3)
    elif entry == "matrix_to_numpy":
        matrix_to_numpy(package.outer_product(state, state), 3)
    elif entry == "serialize_dd":
        serialize_dd(state)
    elif entry == "purity":
        density = DensityMatrixSimulator(3, package)
        density.rho = package.outer_product(state, state)
        assert density.purity() == pytest.approx(1.0)
    elif entry != "iterative_package":
        strategy = SequentialStrategy() if entry == "iterative_sota_run" \
            else MaxSizeStrategy(16)
        SimulationEngine(package).simulate(grover_circuit(6, 13).circuit,
                                           strategy)
    kernel = weakref.ref(package.flat) if package.flat is not None else None
    return weakref.ref(package), kernel
