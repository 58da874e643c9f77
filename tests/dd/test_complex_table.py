"""Unit tests for the complex-number interning table."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dd.complex_table import DEFAULT_TOLERANCE, ComplexTable, polar_str


class TestLookup:
    def test_exact_value_round_trips(self):
        table = ComplexTable()
        value = complex(0.25, -0.75)
        assert table.lookup(value) == value

    def test_repeated_lookup_returns_same_object(self):
        table = ComplexTable()
        first = table.lookup(complex(0.3, 0.4))
        second = table.lookup(complex(0.3, 0.4))
        assert first == second

    def test_nearby_values_share_representative(self):
        table = ComplexTable(tolerance=1e-10)
        first = table.lookup(complex(0.5, 0.5))
        second = table.lookup(complex(0.5 + 1e-12, 0.5 - 1e-12))
        assert second == first

    def test_distant_values_stay_distinct(self):
        table = ComplexTable(tolerance=1e-10)
        first = table.lookup(complex(0.5, 0.0))
        second = table.lookup(complex(0.5 + 1e-6, 0.0))
        assert first != second

    def test_near_zero_snaps_to_exact_zero(self):
        table = ComplexTable()
        assert table.lookup(complex(1e-14, -1e-14)) == 0j

    def test_near_one_snaps_to_exact_one(self):
        table = ComplexTable()
        assert table.lookup(complex(1 + 1e-13, 1e-13)) == 1 + 0j

    def test_bucket_boundary_values_merge(self):
        # Values straddling a bucket boundary must still find each other via
        # the neighbour search.
        tolerance = 1e-10
        table = ComplexTable(tolerance=tolerance)
        boundary = 7 * tolerance
        a = table.lookup(complex(boundary - tolerance * 0.4, 0.0))
        b = table.lookup(complex(boundary + tolerance * 0.4, 0.0))
        assert a == b

    def test_nan_rejected(self):
        table = ComplexTable()
        with pytest.raises(ValueError):
            table.lookup(complex(float("nan"), 0.0))

    def test_invalid_tolerance_rejected(self):
        with pytest.raises(ValueError):
            ComplexTable(tolerance=0.0)

    @given(st.floats(-2, 2, allow_nan=False), st.floats(-2, 2, allow_nan=False))
    def test_lookup_is_within_tolerance_of_input(self, re, im):
        table = ComplexTable()
        result = table.lookup(complex(re, im))
        assert abs(result.real - re) < table.tolerance
        assert abs(result.imag - im) < table.tolerance

    @given(st.floats(-2, 2, allow_nan=False), st.floats(-2, 2, allow_nan=False))
    def test_lookup_is_idempotent(self, re, im):
        table = ComplexTable()
        once = table.lookup(complex(re, im))
        twice = table.lookup(once)
        assert once == twice


class TestPredicates:
    def test_is_zero(self):
        table = ComplexTable()
        assert table.is_zero(1e-12)
        assert not table.is_zero(1e-6)

    def test_is_one(self):
        table = ComplexTable()
        assert table.is_one(1 + 1e-12j)
        assert not table.is_one(1.001)

    def test_approx_equal(self):
        table = ComplexTable()
        assert table.approx_equal(0.5 + 0.5j, 0.5 + 1e-13 + 0.5j)
        assert not table.approx_equal(0.5, 0.6)


class TestHousekeeping:
    def test_clear_resets_statistics(self):
        table = ComplexTable()
        table.lookup(0.123 + 0.456j)
        table.clear()
        assert table.hits == 0
        # zero and one are re-seeded
        assert table.lookup(0j) == 0j
        assert table.lookup(1 + 0j) == 1 + 0j

    def test_cleared_table_equals_fresh(self):
        table = ComplexTable()
        table.lookup(0.123 + 0.456j)
        table.clear()
        fresh = ComplexTable()
        assert table.state_dict() == fresh.state_dict()
        # the first noisy sqrt(1/2) after a clear snaps to the anchor
        noisy = complex(math.sqrt(0.5) - 1e-11, 0)
        assert table.lookup(noisy) == complex(math.sqrt(0.5), 0)

    def test_len_counts_entries(self):
        table = ComplexTable()
        before = len(table)
        table.lookup(0.111 + 0.222j)
        assert len(table) == before + 1

    def test_default_tolerance_sane(self):
        assert 0 < DEFAULT_TOLERANCE < 1e-6


def test_polar_str_mentions_magnitude_and_angle():
    text = polar_str(complex(0, 1))
    assert "1" in text and "0.5" in text  # magnitude 1 at angle 0.5 pi


def test_sqrt_half_is_preseeded():
    table = ComplexTable()
    value = table.lookup(complex(math.sqrt(0.5), 0))
    assert value == complex(math.sqrt(0.5), 0)
