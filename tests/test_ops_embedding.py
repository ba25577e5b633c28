"""Tests for the dense EmbeddingBag baseline and segment_sum."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ops import EmbeddingBag
from repro.ops.embedding import segment_sum
from tests.helpers import numeric_grad_check, random_csr


class TestSegmentSum:
    def test_basic(self):
        rows = np.arange(6.0).reshape(3, 2)
        out = segment_sum(rows, np.array([0, 2, 3]))
        np.testing.assert_allclose(out, [[0 + 2, 1 + 3], [4, 5]])

    def test_empty_segment_is_zero(self):
        rows = np.ones((2, 3))
        out = segment_sum(rows, np.array([0, 0, 2, 2]))
        np.testing.assert_allclose(out, [[0, 0, 0], [2, 2, 2], [0, 0, 0]])

    def test_no_rows(self):
        out = segment_sum(np.zeros((0, 4)), np.array([0, 0]))
        np.testing.assert_allclose(out, np.zeros((1, 4)))

    @given(st.integers(min_value=0, max_value=30), st.integers(min_value=1, max_value=8),
           st.integers(min_value=0, max_value=2 ** 31))
    @settings(max_examples=60)
    def test_matches_loop(self, n, m, seed):
        rng = np.random.default_rng(seed)
        rows = rng.normal(size=(n, 3))
        cuts = np.sort(rng.integers(0, n + 1, size=m - 1)) if m > 1 else np.array([], dtype=int)
        offsets = np.concatenate([[0], cuts, [n]]).astype(np.int64)
        out = segment_sum(rows, offsets)
        for i in range(m):
            np.testing.assert_allclose(
                out[i], rows[offsets[i]:offsets[i + 1]].sum(axis=0), atol=1e-9
            )


class TestEmbeddingBag:
    def test_default_init_bounds(self):
        emb = EmbeddingBag(100, 8, rng=0)
        bound = 1.0 / np.sqrt(100)
        assert np.all(np.abs(emb.weight.data) <= bound)

    def test_sum_pooling(self):
        emb = EmbeddingBag(10, 4, rng=0)
        idx = np.array([1, 2, 3])
        out = emb.forward(idx, np.array([0, 2, 3]))
        np.testing.assert_allclose(out[0], emb.weight.data[1] + emb.weight.data[2])
        np.testing.assert_allclose(out[1], emb.weight.data[3])

    def test_mean_pooling(self):
        emb = EmbeddingBag(10, 4, mode="mean", rng=0)
        idx = np.array([1, 2])
        out = emb.forward(idx, np.array([0, 2]))
        np.testing.assert_allclose(out[0], emb.weight.data[[1, 2]].mean(axis=0))

    def test_per_sample_weights(self):
        emb = EmbeddingBag(10, 4, rng=0)
        idx = np.array([1, 2])
        out = emb.forward(idx, np.array([0, 2]), np.array([2.0, -1.0]))
        np.testing.assert_allclose(out[0], 2 * emb.weight.data[1] - emb.weight.data[2])

    def test_empty_bag_zero_output(self):
        emb = EmbeddingBag(10, 4, rng=0)
        out = emb.forward(np.array([5]), np.array([0, 0, 1]))
        np.testing.assert_allclose(out[0], 0.0)

    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError):
            EmbeddingBag(10, 4, mode="max")

    def test_rejects_out_of_range(self):
        emb = EmbeddingBag(10, 4, rng=0)
        with pytest.raises(ValueError):
            emb.forward(np.array([10]), np.array([0, 1]))

    def test_out_of_range_is_index_error(self):
        """An out-of-range id raises IndexError (it is also a ValueError
        for backward compatibility) instead of NumPy silently wrapping
        negative indices to the end of the table."""
        emb = EmbeddingBag(10, 4, rng=0)
        with pytest.raises(IndexError):
            emb.forward(np.array([10]), np.array([0, 1]))
        with pytest.raises(IndexError):
            emb.forward(np.array([-1]), np.array([0, 1]))

    def test_negative_index_does_not_wrap(self):
        emb = EmbeddingBag(10, 4, rng=0)
        # Before validation, -1 would silently pool row 9.
        with pytest.raises(IndexError):
            emb.forward(np.array([1, -1]), np.array([0, 2]))

    def test_lookup_validates_range(self):
        emb = EmbeddingBag(10, 4, rng=0)
        with pytest.raises(IndexError):
            emb.lookup(np.array([10]))
        with pytest.raises(IndexError):
            emb.lookup(np.array([-3]))

    def test_lookup_rejects_float_ids(self):
        emb = EmbeddingBag(10, 4, rng=0)
        with pytest.raises(TypeError):
            emb.lookup(np.array([1.5, 2.0]))

    def test_weight_mismatch_rejected(self):
        emb = EmbeddingBag(10, 4, rng=0)
        with pytest.raises(ValueError):
            emb.forward(np.array([1, 2]), np.array([0, 2]), np.array([1.0]))

    @pytest.mark.parametrize("mode", ["sum", "mean"])
    def test_gradient(self, mode):
        rng = np.random.default_rng(5)
        emb = EmbeddingBag(12, 3, mode=mode, rng=0)
        idx, off = random_csr(rng, 12, 6)
        alpha = rng.normal(size=idx.size) if mode == "sum" else None
        r = rng.normal(size=(6, 3))

        def loss():
            return float((emb.forward(idx, off, alpha) * r).sum())

        emb.forward(idx, off, alpha)
        emb.backward(r)
        numeric_grad_check(emb.weight.data, emb.weight.dense_grad(), loss, samples=25)

    def test_duplicate_indices_accumulate(self):
        emb = EmbeddingBag(5, 2, rng=0)
        idx = np.array([3, 3, 3])
        emb.forward(idx, np.array([0, 3]))
        emb.backward(np.ones((1, 2)))
        np.testing.assert_allclose(emb.weight.dense_grad()[3], [3.0, 3.0])
        assert emb.weight.dense_grad()[[0, 1, 2, 4]].sum() == 0

    def test_touched_rows_recorded(self):
        emb = EmbeddingBag(10, 2, rng=0)
        emb.forward(np.array([7, 2, 7]), np.array([0, 3]))
        emb.backward(np.ones((1, 2)))
        rows, vals = emb.weight.grad
        np.testing.assert_array_equal(rows, [2, 7])
        np.testing.assert_array_equal(vals, [[1.0, 1.0], [2.0, 2.0]])

    def test_lookup(self):
        emb = EmbeddingBag(10, 4, rng=0)
        np.testing.assert_allclose(emb.lookup(np.array([3, 3])), emb.weight.data[[3, 3]])
