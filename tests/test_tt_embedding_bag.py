"""Tests for TTEmbeddingBag — forward (Alg. 1), backward (Alg. 2), pooling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import pooling_workload
from repro.cache import CachedTTEmbeddingBag
from repro.tt import TTEmbeddingBag, TTShape
from repro.tt.kernels import tt_lookup_reference
from repro.utils.dtypes import dtype_policy
from tests.helpers import numeric_grad_check, random_csr


@pytest.fixture
def shape():
    return TTShape.with_uniform_rank(60, 8, (3, 4, 5), (2, 2, 2), rank=5)


@pytest.fixture
def emb(shape):
    return TTEmbeddingBag(60, 8, shape=shape, rng=0)


class TestForward:
    def test_lookup_matches_reference(self, emb, shape):
        rng = np.random.default_rng(0)
        idx = rng.integers(0, 60, size=40)
        ref = tt_lookup_reference([p.data for p in emb.cores], shape, idx)
        np.testing.assert_allclose(emb.lookup(idx), ref, atol=1e-12)

    def test_lookup_matches_materialize(self, emb):
        idx = np.arange(60)
        np.testing.assert_allclose(emb.lookup(idx), emb.materialize(), atol=1e-12)

    def test_empty_lookup(self, emb):
        assert emb.lookup(np.array([], dtype=np.int64)).shape == (0, 8)

    def test_default_offsets_one_per_bag(self, emb):
        idx = np.array([1, 2, 3])
        out = emb.forward(idx)
        np.testing.assert_allclose(out, emb.lookup(idx))

    def test_sum_pooling(self, emb):
        idx = np.array([4, 7, 9])
        out = emb.forward(idx, np.array([0, 2, 3]))
        rows = emb.lookup(idx)
        np.testing.assert_allclose(out[0], rows[0] + rows[1], atol=1e-12)
        np.testing.assert_allclose(out[1], rows[2], atol=1e-12)

    def test_mean_pooling(self, shape):
        emb = TTEmbeddingBag(60, 8, shape=shape, mode="mean", rng=0)
        idx = np.array([4, 7])
        out = emb.forward(idx, np.array([0, 2]))
        rows = emb.lookup(idx)
        np.testing.assert_allclose(out[0], rows.mean(axis=0), atol=1e-12)

    def test_per_sample_weights(self, emb):
        idx = np.array([4, 7])
        out = emb.forward(idx, np.array([0, 2]), np.array([2.0, -1.0]))
        rows = emb.lookup(idx)
        np.testing.assert_allclose(out[0], 2 * rows[0] - rows[1], atol=1e-12)

    def test_empty_bag(self, emb):
        out = emb.forward(np.array([1]), np.array([0, 0, 1]))
        np.testing.assert_allclose(out[0], 0.0)

    def test_dedup_same_result(self, shape):
        plain = TTEmbeddingBag(60, 8, shape=shape, rng=3, dedup=False)
        dedup = TTEmbeddingBag(60, 8, shape=shape, rng=3, dedup=True)
        idx = np.array([5, 5, 5, 9, 9, 1])
        off = np.array([0, 3, 6])
        np.testing.assert_allclose(
            plain.forward(idx, off), dedup.forward(idx, off), atol=1e-12
        )

    def test_rejects_out_of_range(self, emb):
        with pytest.raises(ValueError):
            emb.forward(np.array([60]), np.array([0, 1]))

    def test_rejects_weight_length_mismatch(self, emb):
        with pytest.raises(ValueError):
            emb.forward(np.array([1, 2]), np.array([0, 2]), np.array([1.0]))

    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError):
            TTEmbeddingBag(60, 8, mode="max")

    def test_shape_table_mismatch_rejected(self, shape):
        with pytest.raises(ValueError):
            TTEmbeddingBag(61, 8, shape=shape)


class TestReadsAreTheForwardBytes:
    """A read (``lookup_bags``) contracts each distinct row once, at the
    read split, through fresh buffers; a ``dedup=False`` training forward
    contracts every lookup at ``d - 1`` through pooled ones. A row's bytes
    depend on its id and the shape alone, so the two agree byte for byte.
    Shapes are the benchmark's: ``d = 3``, col ``(2, 2, 4)``, rank 32."""

    @staticmethod
    def _shape(num_rows):
        shape = TTShape.suggested(num_rows, 16, d=3, rank=32)
        assert shape.col_factors == (2, 2, 4)
        return shape

    @staticmethod
    def _zipf_bags(num_rows):
        idx, off = pooling_workload(num_rows, 64, 10, rng=1)  # P = 10
        assert np.unique(idx).size < idx.size  # duplicates to collapse
        return idx, off

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("num_rows", [30_000, 1_000_000])
    def test_tt(self, num_rows, dtype):
        with dtype_policy(dtype):
            emb = TTEmbeddingBag(num_rows, 16, shape=self._shape(num_rows),
                                 dedup=False, rng=0)
        idx, off = self._zipf_bags(num_rows)
        read = emb.lookup_bags(idx, off)
        assert read.dtype == np.dtype(dtype)
        assert read.tobytes() == emb.forward(idx, off).tobytes()

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_populated_cached_tt(self, dtype):
        num_rows = 30_000
        with dtype_policy(dtype):
            emb = CachedTTEmbeddingBag(
                num_rows, 16, shape=self._shape(num_rows), cache_size=16,
                warmup_steps=0, refresh_interval=None, dedup=False, rng=0)
        idx, off = self._zipf_bags(num_rows)
        emb.tracker.record(idx)
        emb.populate()
        mask, _ = emb._membership(idx)
        assert 0 < mask.sum() < idx.size  # both hits and misses are read
        read = emb.lookup_bags(idx, off)
        assert read.tobytes() == emb.forward(idx, off).tobytes()


class TestBackward:
    @pytest.mark.parametrize("store", [True, False])
    @pytest.mark.parametrize("dedup", [True, False])
    def test_gradients_all_variants(self, shape, store, dedup):
        rng = np.random.default_rng(10)
        emb = TTEmbeddingBag(60, 8, shape=shape, rng=1,
                             store_intermediates=store, dedup=dedup)
        idx, off = random_csr(rng, 60, 7)
        alpha = rng.normal(size=idx.size)
        r = rng.normal(size=(7, 8))

        def loss():
            return float((emb.forward(idx, off, alpha) * r).sum())

        emb.zero_grad()
        emb.forward(idx, off, alpha)
        emb.backward(r)
        for p in emb.cores:
            numeric_grad_check(p.data, p.dense_grad(), loss, samples=12)

    def test_mean_mode_gradient(self, shape):
        rng = np.random.default_rng(11)
        emb = TTEmbeddingBag(60, 8, shape=shape, mode="mean", rng=1)
        idx, off = random_csr(rng, 60, 5)
        r = rng.normal(size=(5, 8))

        def loss():
            return float((emb.forward(idx, off) * r).sum())

        emb.forward(idx, off)
        emb.backward(r)
        for p in emb.cores:
            numeric_grad_check(p.data, p.dense_grad(), loss, samples=10)

    def test_double_backward_raises(self, emb):
        """A second backward for one forward would silently double-count
        core gradients; it must raise and leave grads untouched."""
        emb.forward(np.array([1, 2]), np.array([0, 2]))
        emb.backward(np.ones((1, 8)))
        snapshot = [p.dense_grad().copy() for p in emb.cores]
        with pytest.raises(RuntimeError, match="twice"):
            emb.backward(np.ones((1, 8)))
        for p, s in zip(emb.cores, snapshot):
            assert np.array_equal(p.dense_grad(), s)
        # A new forward re-arms backward.
        emb.forward(np.array([1]), np.array([0, 1]))
        emb.backward(np.ones((1, 8)))

    def test_duplicate_index_gradient_accumulates(self, emb):
        idx = np.array([5, 5])
        emb.forward(idx, np.array([0, 2]))
        emb.backward(np.ones((1, 8)))
        g2 = [p.dense_grad().copy() for p in emb.cores]
        emb.zero_grad()
        emb.forward(np.array([5]), np.array([0, 1]))
        emb.backward(np.ones((1, 8)))
        for got, single in zip(g2, (p.dense_grad() for p in emb.cores)):
            np.testing.assert_allclose(got, 2 * single, atol=1e-12)

    def test_touched_rows_recorded(self, emb, shape):
        idx = np.array([0, 59])
        emb.forward(idx, np.array([0, 2]))
        emb.backward(np.ones((1, 8)))
        decoded = shape.decode_indices(idx)
        for k, p in enumerate(emb.cores):
            np.testing.assert_array_equal(p.grad.rows, np.unique(decoded[k]))

    def test_gradient_matches_dense_reconstruction_path(self, shape):
        """Core grads agree with autodiff through the materialised table."""
        rng = np.random.default_rng(12)
        emb = TTEmbeddingBag(60, 8, shape=shape, rng=2)
        idx = rng.integers(0, 60, size=20)
        off = np.arange(21, dtype=np.int64)
        r = rng.normal(size=(20, 8))
        emb.forward(idx, off)
        emb.backward(r)

        # Finite-difference the loss L = sum(table[idx] * r) through
        # materialize() on one entry per core as an independent oracle.
        eps = 1e-6
        for p in emb.cores:
            flat = p.data.reshape(-1)
            j = rng.integers(0, flat.size)
            orig = flat[j]
            flat[j] = orig + eps
            lp = float((emb.materialize()[idx] * r).sum())
            flat[j] = orig - eps
            lm = float((emb.materialize()[idx] * r).sum())
            flat[j] = orig
            numeric = (lp - lm) / (2 * eps)
            assert numeric == pytest.approx(p.dense_grad().reshape(-1)[j], rel=1e-4, abs=1e-7)


class TestInterop:
    def test_load_cores_validates(self, emb, shape):
        with pytest.raises(ValueError):
            emb.load_cores([p.data for p in emb.cores][:2])
        bad = [p.data.copy() for p in emb.cores]
        bad[1] = bad[1][:, :, :, :2]
        with pytest.raises(ValueError):
            emb.load_cores(bad)

    def test_compression_ratio(self, emb, shape):
        assert emb.compression_ratio() == pytest.approx(shape.compression_ratio())
        assert emb.num_parameters() == shape.num_params()

    def test_auto_shape_constructor(self):
        emb = TTEmbeddingBag(1000, 16, rank=8, d=3, rng=0)
        assert emb.shape.padded_rows >= 1000
        out = emb.lookup(np.array([0, 999]))
        assert out.shape == (2, 16)

    @given(st.integers(min_value=0, max_value=2 ** 31))
    @settings(max_examples=20, deadline=None)
    def test_property_pooling_linearity(self, seed):
        """forward(bag) == sum of single-index forwards (pooling is linear)."""
        rng = np.random.default_rng(seed)
        emb = TTEmbeddingBag(60, 8,
                             shape=TTShape.with_uniform_rank(60, 8, (3, 4, 5),
                                                             (2, 2, 2), 4),
                             rng=int(rng.integers(1 << 30)))
        idx = rng.integers(0, 60, size=6).astype(np.int64)
        bag = emb.forward(idx, np.array([0, 6]))
        singles = emb.forward(idx)
        np.testing.assert_allclose(bag[0], singles.sum(axis=0), atol=1e-10)


class TestTTGeneralDepth:
    """The kernels must work for any number of cores, not just d=3."""

    @pytest.mark.parametrize("d,row_factors,col_factors", [
        (2, (6, 10), (2, 4)),
        (4, (2, 3, 2, 5), (2, 2, 2, 1)),
        (5, (2, 2, 3, 2, 3), (2, 1, 2, 1, 2)),
    ])
    def test_forward_backward_any_depth(self, d, row_factors, col_factors):
        rows = int(np.prod(row_factors))
        dim = int(np.prod(col_factors))
        shape = TTShape.with_uniform_rank(rows, dim, row_factors, col_factors, 3)
        assert shape.d == d
        rng = np.random.default_rng(d)
        emb = TTEmbeddingBag(rows, dim, shape=shape, rng=0)
        # forward agrees with materialisation
        idx = rng.integers(0, rows, size=15)
        np.testing.assert_allclose(
            emb.lookup(idx), emb.materialize()[idx], atol=1e-11
        )
        # gradients correct
        idx, off = random_csr(rng, rows, 4)
        r = rng.normal(size=(4, dim))

        def loss():
            return float((emb.forward(idx, off) * r).sum())

        emb.forward(idx, off)
        emb.backward(r)
        for p in emb.cores:
            numeric_grad_check(p.data, p.dense_grad(), loss, samples=8)

    def test_nonuniform_ranks(self):
        shape = TTShape(60, 8, (3, 4, 5), (2, 2, 2), (1, 2, 7, 1))
        emb = TTEmbeddingBag(60, 8, shape=shape, rng=0)
        rng = np.random.default_rng(0)
        idx, off = random_csr(rng, 60, 4)
        r = rng.normal(size=(4, 8))

        def loss():
            return float((emb.forward(idx, off) * r).sum())

        emb.forward(idx, off)
        emb.backward(r)
        for p in emb.cores:
            numeric_grad_check(p.data, p.dense_grad(), loss, samples=8)
