"""Tests for TTShape: validation, arithmetic, index codecs."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tt import TTShape


def small_shape(rank=4):
    return TTShape.with_uniform_rank(60, 8, (3, 4, 5), (2, 2, 2), rank)


class TestConstruction:
    def test_valid(self):
        s = small_shape()
        assert s.d == 3
        assert s.padded_rows == 60

    def test_rejects_single_core(self):
        with pytest.raises(ValueError):
            TTShape(4, 2, (4,), (2,), (1, 1))

    def test_rejects_factor_length_mismatch(self):
        with pytest.raises(ValueError):
            TTShape(60, 8, (3, 4, 5), (2, 4), (1, 4, 4, 1))

    def test_rejects_bad_rank_length(self):
        with pytest.raises(ValueError):
            TTShape(60, 8, (3, 4, 5), (2, 2, 2), (1, 4, 1))
        for rank in (0, -2):
            with pytest.raises(ValueError, match="rank must be >= 1"):
                small_shape(rank=rank)

    def test_rejects_nonunit_boundary_ranks(self):
        with pytest.raises(ValueError):
            TTShape(60, 8, (3, 4, 5), (2, 2, 2), (2, 4, 4, 1))

    def test_rejects_row_underflow(self):
        with pytest.raises(ValueError):
            TTShape(100, 8, (3, 4, 5), (2, 2, 2), (1, 4, 4, 1))

    def test_rejects_col_product_mismatch(self):
        with pytest.raises(ValueError):
            TTShape(60, 9, (3, 4, 5), (2, 2, 2), (1, 4, 4, 1))

    def test_padding_allowed(self):
        s = TTShape(55, 8, (3, 4, 5), (2, 2, 2), (1, 4, 4, 1))
        assert s.padded_rows == 60
        assert s.num_rows == 55


class TestDerived:
    def test_core_shapes_paper_vs_storage(self):
        s = small_shape(rank=4)
        assert s.paper_core_shape(0) == (1, 3, 2, 4)
        assert s.core_shape(0) == (3, 1, 2, 4)
        assert s.paper_core_shape(2) == (4, 5, 2, 1)
        assert s.core_shape(2) == (5, 4, 2, 1)

    def test_num_params(self):
        s = small_shape(rank=4)
        expected = 3 * 1 * 2 * 4 + 4 * 4 * 2 * 4 + 5 * 4 * 2 * 1
        assert s.num_params() == expected

    def test_compression_ratio_uses_true_rows(self):
        s = TTShape(55, 8, (3, 4, 5), (2, 2, 2), (1, 2, 2, 1))
        assert s.compression_ratio() == pytest.approx(55 * 8 / s.num_params())

    def test_rank_clipping(self):
        # Boundary after first core supports at most 3*2=6 on the left.
        s = TTShape.with_uniform_rank(60, 8, (3, 4, 5), (2, 2, 2), rank=1000)
        assert s.ranks[1] == 6

    def test_suggested_covers_rows(self):
        s = TTShape.suggested(142572, 16, d=3, rank=32)
        assert s.padded_rows >= 142572
        assert math.prod(s.col_factors) == 16

    def test_describe_mentions_params(self):
        assert "params=" in small_shape().describe()


class TestIndexCodec:
    def test_roundtrip_all_indices(self):
        s = small_shape()
        idx = np.arange(60)
        decoded = s.decode_indices(idx)
        assert decoded.shape == (3, 60)
        np.testing.assert_array_equal(
            np.ravel_multi_index(decoded, s.row_factors), idx)

    def test_decode_is_mixed_radix(self):
        s = small_shape()
        # index = i1*(4*5) + i2*5 + i3
        decoded = s.decode_indices(np.array([2 * 20 + 3 * 5 + 4]))
        np.testing.assert_array_equal(decoded[:, 0], [2, 3, 4])

    def test_decode_bounds(self):
        s = small_shape()
        with pytest.raises(IndexError):
            s.decode_indices(np.array([60]))
        with pytest.raises(IndexError):
            s.decode_indices(np.array([-1]))

    def test_per_core_index_ranges(self):
        s = small_shape()
        decoded = s.decode_indices(np.arange(60))
        for k, m in enumerate(s.row_factors):
            assert decoded[k].min() >= 0
            assert decoded[k].max() == m - 1

    @given(st.integers(min_value=2, max_value=9), st.integers(min_value=2, max_value=9),
           st.integers(min_value=2, max_value=9))
    @settings(max_examples=40)
    def test_roundtrip_random_factors(self, m1, m2, m3):
        total = m1 * m2 * m3
        s = TTShape(total, 4, (m1, m2, m3), (2, 2, 1), (1, 2, 2, 1))
        idx = np.arange(total)
        np.testing.assert_array_equal(
            np.ravel_multi_index(s.decode_indices(idx), s.row_factors), idx)
