"""DD arithmetic (add, MxV, MxM, kron, adjoint, inner product) vs. numpy."""

import numpy as np
import pytest
from hypothesis import given

from repro.dd import (Package, matrix_from_numpy, matrix_to_numpy,
                      vector_from_numpy, vector_to_numpy)

from ..conftest import amplitudes, square_matrices


def _rng(seed=0):
    return np.random.default_rng(seed)


class TestAddition:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_vector_addition_matches_numpy(self, package, n):
        rng = _rng(n)
        x = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        y = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        result = package.add_vectors(vector_from_numpy(package, x),
                                     vector_from_numpy(package, y))
        assert np.allclose(vector_to_numpy(result, n), x + y)

    def test_matrix_addition_matches_numpy(self, package):
        rng = _rng(7)
        a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        b = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        result = package.add_matrices(matrix_from_numpy(package, a),
                                      matrix_from_numpy(package, b))
        assert np.allclose(matrix_to_numpy(result, 3), a + b)

    def test_add_zero_is_identity_element(self, package):
        x = package.basis_state(3, 5)
        assert package.add_vectors(x, package.zero) is x
        assert package.add_vectors(package.zero, x) is x

    def test_add_opposites_gives_zero(self, package):
        x = package.basis_state(2, 1)
        minus = package._scaled(x, -1)
        result = package.add_vectors(x, minus)
        assert result.weight == 0

    def test_add_same_node_cancelling_weights_is_zero_edge(self, package):
        # regression: the same-node branch in Package._add must map exact
        # cancellation to the canonical zero edge, not a zero-weight edge
        # onto a live node
        rng = _rng(11)
        x = rng.normal(size=8) + 1j * rng.normal(size=8)
        dx = vector_from_numpy(package, x)
        minus = package._scaled(dx, -1)
        result = package.add_vectors(dx, minus)
        assert result.weight == 0
        assert result.node is package.zero.node

    def test_add_same_node_partial_cancellation(self, package):
        x = package.basis_state(3, 6)
        half = package._scaled(x, -0.5)
        result = package.add_vectors(x, half)
        assert result.node is x.node
        assert abs(result.weight - 0.5) < 1e-12

    def test_add_same_node_doubles_weight(self, package):
        x = package.basis_state(2, 3)
        result = package.add_vectors(x, x)
        assert result.node is x.node
        assert abs(result.weight - 2) < 1e-12

    @pytest.mark.parametrize("kernel", ["recursive", "iterative"])
    def test_unequal_widths_rejected(self, kernel):
        package = Package(kernel=kernel)
        with pytest.raises(ValueError, match="same qubits"):
            package.add_vectors(package.basis_state(3, 1),
                                package.basis_state(2, 1))
        with pytest.raises(ValueError, match="same qubits"):
            package.add_matrices(package.identity(3), package.identity(2))
        # a zero operand has no width to check
        x = package.basis_state(3, 1)
        assert package.add_vectors(x, package.zero) is x

    @given(amplitudes(2), amplitudes(2))
    def test_addition_commutes(self, x, y):
        package = Package()
        dx = vector_from_numpy(package, x)
        dy = vector_from_numpy(package, y)
        xy = vector_to_numpy(package.add_vectors(dx, dy), 2)
        yx = vector_to_numpy(package.add_vectors(dy, dx), 2)
        assert np.allclose(xy, yx, atol=1e-7)


class TestMatrixVector:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_numpy(self, package, n):
        rng = _rng(10 + n)
        m = rng.normal(size=(1 << n, 1 << n)) \
            + 1j * rng.normal(size=(1 << n, 1 << n))
        v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        result = package.multiply_matrix_vector(
            matrix_from_numpy(package, m), vector_from_numpy(package, v))
        assert np.allclose(vector_to_numpy(result, n), m @ v)

    def test_zero_matrix_gives_zero(self, package):
        v = package.basis_state(2, 1)
        assert package.multiply_matrix_vector(package.zero, v).weight == 0

    def test_zero_vector_gives_zero(self, package):
        m = package.identity(2)
        assert package.multiply_matrix_vector(m, package.zero).weight == 0

    def test_identity_is_neutral(self, package):
        rng = _rng(2)
        v = rng.normal(size=8) + 1j * rng.normal(size=8)
        dv = vector_from_numpy(package, v)
        result = package.multiply_matrix_vector(package.identity(3), dv)
        assert result.node is dv.node
        assert abs(result.weight - dv.weight) < 1e-9

    def test_level_mismatch_rejected(self, package):
        with pytest.raises(ValueError):
            package.multiply_matrix_vector(package.identity(2),
                                           package.basis_state(3, 0))

    @given(square_matrices(2), amplitudes(2))
    def test_random_matches_numpy(self, m, v):
        package = Package()
        result = package.multiply_matrix_vector(
            matrix_from_numpy(package, m), vector_from_numpy(package, v))
        assert np.allclose(vector_to_numpy(result, 2), m @ v, atol=1e-6)

    @given(square_matrices(2), amplitudes(2), amplitudes(2))
    def test_linearity(self, m, x, y):
        package = Package()
        dm = matrix_from_numpy(package, m)
        lhs = package.multiply_matrix_vector(
            dm, package.add_vectors(vector_from_numpy(package, x),
                                    vector_from_numpy(package, y)))
        rhs = package.add_vectors(
            package.multiply_matrix_vector(dm, vector_from_numpy(package, x)),
            package.multiply_matrix_vector(dm, vector_from_numpy(package, y)))
        assert np.allclose(vector_to_numpy(lhs, 2), vector_to_numpy(rhs, 2),
                           atol=1e-6)


class TestMatrixMatrix:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_numpy(self, package, n):
        rng = _rng(20 + n)
        a = rng.normal(size=(1 << n, 1 << n)) \
            + 1j * rng.normal(size=(1 << n, 1 << n))
        b = rng.normal(size=(1 << n, 1 << n)) \
            + 1j * rng.normal(size=(1 << n, 1 << n))
        result = package.multiply_matrix_matrix(
            matrix_from_numpy(package, a), matrix_from_numpy(package, b))
        assert np.allclose(matrix_to_numpy(result, n), a @ b)

    def test_identity_absorbs(self, package):
        rng = _rng(4)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        da = matrix_from_numpy(package, a)
        left = package.multiply_matrix_matrix(package.identity(2), da)
        right = package.multiply_matrix_matrix(da, package.identity(2))
        assert np.allclose(matrix_to_numpy(left, 2), a)
        assert np.allclose(matrix_to_numpy(right, 2), a)

    @given(square_matrices(2), square_matrices(2), amplitudes(2))
    def test_associativity_with_vector(self, a, b, v):
        """(A B) v == A (B v) -- the identity Eq. 1 vs Eq. 2 relies on."""
        package = Package()
        da = matrix_from_numpy(package, a)
        db = matrix_from_numpy(package, b)
        dv = vector_from_numpy(package, v)
        eq2 = package.multiply_matrix_vector(
            package.multiply_matrix_matrix(da, db), dv)
        eq1 = package.multiply_matrix_vector(
            da, package.multiply_matrix_vector(db, dv))
        assert np.allclose(vector_to_numpy(eq1, 2), vector_to_numpy(eq2, 2),
                           atol=1e-6)

    def test_counters_distinguish_mm_from_mv(self, package):
        a = package.identity(3)
        v = package.basis_state(3, 0)
        before = package.counters.snapshot()
        package.multiply_matrix_matrix(a, a)
        mid = package.counters.snapshot()
        package.multiply_matrix_vector(a, v)
        end = package.counters.snapshot()
        assert mid.delta(before).mult_mm_recursions > 0
        assert mid.delta(before).mult_mv_recursions == 0
        assert end.delta(mid).mult_mv_recursions > 0


class TestKronecker:
    def test_vector_kron_matches_numpy(self, package):
        rng = _rng(31)
        x = rng.normal(size=4) + 1j * rng.normal(size=4)
        y = rng.normal(size=8) + 1j * rng.normal(size=8)
        result = package.kron_vectors(vector_from_numpy(package, x),
                                      vector_from_numpy(package, y))
        assert np.allclose(vector_to_numpy(result, 5), np.kron(x, y))

    def test_matrix_kron_matches_numpy(self, package):
        rng = _rng(32)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        result = package.kron_matrices(matrix_from_numpy(package, a),
                                       matrix_from_numpy(package, b))
        assert np.allclose(matrix_to_numpy(result, 3), np.kron(a, b))

    def test_kron_with_zero(self, package):
        x = package.basis_state(2, 1)
        assert package.kron_vectors(x, package.zero).weight == 0
        assert package.kron_vectors(package.zero, x).weight == 0

    def test_kron_with_scalar(self, package):
        x = package.basis_state(2, 1)
        doubled = package.kron_vectors(package.terminal_edge(2), x)
        assert doubled.node is x.node
        assert abs(doubled.weight - 2) < 1e-12

    def test_kron_of_basis_states_concatenates(self, package):
        top = package.basis_state(2, 0b10)
        bottom = package.basis_state(3, 0b011)
        combined = package.kron_vectors(top, bottom)
        assert abs(package.amplitude(combined, 0b10011) - 1) < 1e-12


class TestAdjointAndInner:
    def test_conjugate_transpose_matches_numpy(self, package):
        rng = _rng(41)
        a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        result = package.conjugate_transpose(matrix_from_numpy(package, a))
        assert np.allclose(matrix_to_numpy(result, 3), a.conj().T)

    def test_adjoint_is_involution(self, package):
        rng = _rng(42)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        da = matrix_from_numpy(package, a)
        twice = package.conjugate_transpose(package.conjugate_transpose(da))
        assert np.allclose(matrix_to_numpy(twice, 2), a)

    def test_inner_product_matches_numpy(self, package):
        rng = _rng(43)
        x = rng.normal(size=8) + 1j * rng.normal(size=8)
        y = rng.normal(size=8) + 1j * rng.normal(size=8)
        value = package.inner_product(vector_from_numpy(package, x),
                                      vector_from_numpy(package, y))
        assert abs(value - np.vdot(x, y)) < 1e-8

    def test_squared_norm_of_basis_state(self, package):
        assert abs(package.squared_norm(package.basis_state(4, 9)) - 1) < 1e-12

    def test_fidelity_of_orthogonal_states(self, package):
        a = package.basis_state(3, 1)
        b = package.basis_state(3, 2)
        assert package.fidelity(a, b) == 0
        assert abs(package.fidelity(a, a) - 1) < 1e-12

    def test_inner_product_size_mismatch_rejected(self, package):
        with pytest.raises(ValueError):
            package.inner_product(package.basis_state(2, 0),
                                  package.basis_state(3, 0))

    @given(amplitudes(3))
    def test_unitary_preserves_norm(self, v):
        package = Package()
        from repro.dd import build_gate_dd
        h = [[2 ** -0.5, 2 ** -0.5], [2 ** -0.5, -(2 ** -0.5)]]
        gate = build_gate_dd(package, h, 3, 1)
        dv = vector_from_numpy(package, v)
        result = package.multiply_matrix_vector(gate, dv)
        assert abs(package.squared_norm(result)
                   - package.squared_norm(dv)) < 1e-6
