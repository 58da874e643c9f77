"""Variable reordering: adjacent swaps, permutations, sifting."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dd import (Package, matrix_from_numpy, matrix_to_numpy,
                      vector_from_numpy, vector_to_numpy)
from repro.dd.edge import Edge
from repro.dd.node import TERMINAL, VectorNode
from repro.dd.reordering import (apply_index_permutation, permute_qubits,
                                 sift, swap_adjacent_levels)

from ..conftest import amplitudes


def swapped_bits(index: int, a: int, b: int) -> int:
    bit_a = (index >> a) & 1
    bit_b = (index >> b) & 1
    result = index & ~((1 << a) | (1 << b))
    return result | (bit_a << b) | (bit_b << a)


class TestAdjacentSwapVector:
    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_swap_matches_dense_reindexing(self, package, level):
        rng = np.random.default_rng(level)
        vec = rng.normal(size=16) + 1j * rng.normal(size=16)
        state = vector_from_numpy(package, vec)
        swapped = swap_adjacent_levels(package, state, level)
        dense = vector_to_numpy(swapped, 4)
        for index in range(16):
            assert dense[swapped_bits(index, level, level + 1)] \
                == pytest.approx(vec[index], abs=1e-9)

    def test_swap_is_involution(self, package):
        rng = np.random.default_rng(9)
        vec = rng.normal(size=8) + 1j * rng.normal(size=8)
        state = vector_from_numpy(package, vec)
        twice = swap_adjacent_levels(
            package, swap_adjacent_levels(package, state, 1), 1)
        assert np.allclose(vector_to_numpy(twice, 3), vec)

    def test_swap_handles_zero_stubs(self, package):
        state = package.basis_state(3, 0b011)
        swapped = swap_adjacent_levels(package, state, 1)
        assert abs(package.amplitude(swapped, 0b101) - 1) < 1e-12

    def test_swap_of_zero_edge(self, package):
        assert swap_adjacent_levels(package, package.zero, 0).weight == 0

    def test_out_of_range_rejected(self, package):
        state = package.basis_state(2, 0)
        with pytest.raises(ValueError):
            swap_adjacent_levels(package, state, 1)
        with pytest.raises(ValueError):
            swap_adjacent_levels(package, state, -1)

    def test_symmetric_state_unchanged_in_size(self, package):
        # GHZ is symmetric under any qubit swap
        vec = np.zeros(8)
        vec[0] = vec[7] = 2 ** -0.5
        state = vector_from_numpy(package, vec)
        swapped = swap_adjacent_levels(package, state, 1)
        assert np.allclose(vector_to_numpy(swapped, 3), vec)

    @given(amplitudes(3), st.integers(0, 1))
    def test_property_swap_reindexes(self, vec, level):
        package = Package()
        state = vector_from_numpy(package, vec)
        swapped = swap_adjacent_levels(package, state, level)
        dense = vector_to_numpy(swapped, 3)
        for index in range(8):
            assert dense[swapped_bits(index, level, level + 1)] \
                == pytest.approx(vec[index], abs=1e-6)


class TestAdjacentSwapMatrix:
    def test_matrix_swap_reindexes_rows_and_columns(self, package):
        rng = np.random.default_rng(4)
        mat = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        dd = matrix_from_numpy(package, mat)
        swapped = swap_adjacent_levels(package, dd, 0)
        dense = matrix_to_numpy(swapped, 3)
        for row in range(8):
            for col in range(8):
                assert dense[swapped_bits(row, 0, 1),
                             swapped_bits(col, 0, 1)] \
                    == pytest.approx(mat[row, col], abs=1e-9)

    def test_identity_invariant_under_swap(self, package):
        ident = package.identity(4)
        swapped = swap_adjacent_levels(package, ident, 2)
        assert swapped.node is ident.node

    def test_cx_swap_flips_control_and_target(self, package):
        from repro.dd import build_gate_dd
        cx_up = build_gate_dd(package, [[0, 1], [1, 0]], 2, 1, {0: 1})
        cx_down = build_gate_dd(package, [[0, 1], [1, 0]], 2, 0, {1: 1})
        assert swap_adjacent_levels(package, cx_up, 0).node is cx_down.node


def gapped_vector_edge() -> Edge:
    """A corrupt 3-qubit state DD whose root child skips level 1.

    Built from raw node constructors on purpose: the package's own builders
    never produce vector-level gaps, which is exactly why the reordering
    toolkit must refuse them instead of silently reading them as identity.
    """
    leaf = VectorNode(0, (Edge(TERMINAL, 1 + 0j), Edge(TERMINAL, 0j)))
    root = VectorNode(2, (Edge(leaf, 1 + 0j), Edge(TERMINAL, 0j)))
    return Edge(root, 1 + 0j)


class TestLevelGaps:
    """Vector DDs never legally skip a level: every swap, permutation and
    sift refuses a gapped state instead of reading the gap as identity."""

    @pytest.mark.parametrize("level", [0, 1])
    def test_gapped_vector_swap_rejected(self, package, level):
        with pytest.raises(ValueError, match="skips level 1"):
            swap_adjacent_levels(package, gapped_vector_edge(), level)

    def test_short_vector_root_rejected_with_size(self, package):
        # A 2-level state declared as 3 qubits is a gap at the root.
        state = package.basis_state(2, 0b10)
        with pytest.raises(ValueError, match="skips level 2"):
            swap_adjacent_levels(package, state, 0, size=3)

    def test_gapped_vector_permute_rejected(self, package):
        state = package.basis_state(2, 0b01)
        with pytest.raises(ValueError, match="skips level"):
            permute_qubits(package, state, [1, 0, 2], size=3)

    def test_gapped_vector_sift_rejected(self, package):
        with pytest.raises(ValueError, match="skips level"):
            sift(package, gapped_vector_edge(), num_qubits=3)


class TestPermutation:
    def test_apply_index_permutation(self):
        # move bit0 -> position 2, bit1 -> 0, bit2 -> 1
        assert apply_index_permutation(0b001, [2, 0, 1]) == 0b100
        assert apply_index_permutation(0b110, [2, 0, 1]) == 0b011

    @given(amplitudes(3), st.permutations([0, 1, 2]))
    def test_property_permutation_reindexes(self, vec, perm):
        package = Package()
        state = vector_from_numpy(package, vec)
        permuted = permute_qubits(package, state, list(perm))
        dense = vector_to_numpy(permuted, 3)
        for index in range(8):
            assert dense[apply_index_permutation(index, perm)] \
                == pytest.approx(vec[index], abs=1e-6)

    def test_identity_permutation_is_noop(self, package):
        state = package.basis_state(4, 11)
        assert permute_qubits(package, state, [0, 1, 2, 3]).node \
            is state.node

    def test_inverse_permutation_round_trips(self, package):
        rng = np.random.default_rng(6)
        vec = rng.normal(size=16) + 1j * rng.normal(size=16)
        state = vector_from_numpy(package, vec)
        perm = [2, 0, 3, 1]
        inverse = [perm.index(i) for i in range(4)]
        back = permute_qubits(
            package, permute_qubits(package, state, perm), inverse)
        assert np.allclose(vector_to_numpy(back, 4), vec, atol=1e-9)

    def test_invalid_permutation_rejected(self, package):
        state = package.basis_state(3, 0)
        with pytest.raises(ValueError):
            permute_qubits(package, state, [0, 0, 1])


def paired_qubit_state(package, half: int):
    """Uniform superposition over indices where bit i == bit (i + half).

    Exponentially many nodes under the natural order (the first ``half``
    levels must remember all bits), linear once pairs are adjacent.
    """
    size = 1 << (2 * half)
    vec = np.zeros(size)
    for x in range(1 << half):
        vec[x | (x << half)] = 1.0
    vec /= np.linalg.norm(vec)
    return vector_from_numpy(package, vec)


class TestSifting:
    def test_sifting_shrinks_paired_state(self, package):
        half = 4
        state = paired_qubit_state(package, half)
        before = package.count_nodes(state)
        sifted, permutation = sift(package, state)
        after = package.count_nodes(sifted)
        assert after < before / 2
        assert sorted(permutation) == list(range(2 * half))

    def test_sifting_preserves_amplitudes(self, package):
        half = 3
        state = paired_qubit_state(package, half)
        sifted, permutation = sift(package, state)
        original = vector_to_numpy(state, 2 * half)
        reordered = vector_to_numpy(sifted, 2 * half)
        for index in range(1 << (2 * half)):
            assert reordered[apply_index_permutation(index, permutation)] \
                == pytest.approx(original[index], abs=1e-9)

    def test_sifting_never_grows_result(self, package):
        rng = np.random.default_rng(8)
        vec = rng.normal(size=32) + 1j * rng.normal(size=32)
        state = vector_from_numpy(package, vec)
        sifted, _ = sift(package, state)
        assert package.count_nodes(sifted) <= package.count_nodes(state)

    def test_sifting_trivial_inputs(self, package):
        zero_result, zero_perm = sift(package, package.zero)
        assert zero_result.weight == 0
        single = package.basis_state(1, 1)
        result, perm = sift(package, single)
        assert perm == [0]
        assert result.node is single.node

    def test_num_qubits_pins_permutation_length(self, package):
        # Zero and terminal edges have no height of their own; the caller's
        # num_qubits= must still yield a full-length identity permutation.
        _, perm = sift(package, package.zero, num_qubits=5)
        assert perm == [0, 1, 2, 3, 4]
        _, perm = sift(package, package.zero, num_qubits=0)
        assert perm == []
        single = package.basis_state(1, 0)
        _, perm = sift(package, single, num_qubits=1)
        assert perm == [0]

    def test_num_qubits_validation(self, package):
        with pytest.raises(ValueError, match="num_qubits"):
            sift(package, package.zero, num_qubits=-1)
        with pytest.raises(ValueError, match="taller"):
            sift(package, package.basis_state(3, 5), num_qubits=2)

    @pytest.mark.parametrize("max_growth", [1.0, 1.1, 2.0])
    def test_max_growth_abandon_keeps_contract(self, package, max_growth):
        # Early-abandoned sweeps must still return a full permutation and a
        # diagram no larger than the input; max_growth=1.0 abandons any
        # sweep on its first growing swap, the historically buggy path.
        rng = np.random.default_rng(11)
        vec = rng.normal(size=64) + 1j * rng.normal(size=64)
        state = vector_from_numpy(package, vec)
        sifted, permutation = sift(package, state, max_growth=max_growth)
        assert sorted(permutation) == list(range(6))
        assert package.count_nodes(sifted) <= package.count_nodes(state)
        dense = vector_to_numpy(sifted, 6)
        for index in range(64):
            assert dense[apply_index_permutation(index, permutation)] \
                == pytest.approx(vec[index], abs=1e-9)

    @given(amplitudes(3), st.permutations([0, 1, 2]))
    def test_property_permute_then_sift_round_trips(self, vec, perm):
        # Direction contract across the full pipeline: scramble with
        # permute_qubits, sift back, and the composed measurement remap
        # must recover every dense amplitude.
        package = Package()
        state = vector_from_numpy(package, vec)
        scrambled = permute_qubits(package, state, list(perm))
        sifted, sift_perm = sift(package, scrambled, num_qubits=3)
        total = [sift_perm[perm[q]] for q in range(3)]
        dense = vector_to_numpy(sifted, 3)
        for index in range(8):
            assert dense[apply_index_permutation(index, total)] \
                == pytest.approx(vec[index], abs=1e-6)
