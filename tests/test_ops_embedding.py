"""Tests for the dense EmbeddingBag baseline, pooling and lookup_tables."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.lowrank import LowRankEmbeddingBag
from repro.ops import EmbeddingBag
from repro.ops.embedding import lookup_tables, pool_bags, segment_sum
from repro.tt import TTEmbeddingBag
from repro.utils.validation import IndexOutOfRangeError
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


def offsets_of(counts) -> np.ndarray:
    return np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)


class TestPoolingIsPerBag:
    @given(st.lists(st.integers(0, 6), min_size=1, max_size=12),
           st.sampled_from([1, 3, 16]), st.sampled_from([np.float32, np.float64]),
           st.booleans(), st.sampled_from(["sum", "mean"]),
           st.integers(0, 2 ** 31))
    @settings(max_examples=150, deadline=None)
    def test_a_bag_pools_the_same_bytes_in_any_batch(self, counts, dim, dtype,
                                                     weighted, mode, seed):
        """Composition independence: a bag's pooled bytes are the same
        alone, in its batch, and in a shuffled subset of that batch."""
        rng = np.random.default_rng(seed)
        offsets = offsets_of(counts)
        rows = rng.normal(size=(offsets[-1], dim)).astype(dtype)
        alpha = rng.normal(size=offsets[-1]).astype(dtype) if weighted else None
        full, sizes = pool_bags(rows, offsets, alpha, mode)
        np.testing.assert_array_equal(sizes, counts)
        assert full.dtype == dtype
        spans = [slice(lo, hi) for lo, hi in zip(offsets[:-1], offsets[1:])]
        for bag, span in enumerate(spans):
            alone, _ = pool_bags(rows[span], offsets_of([counts[bag]]),
                                 None if alpha is None else alpha[span], mode)
            assert alone.tobytes() == full[bag].tobytes()
            if counts[bag] == 0:
                assert not full[bag].any()
        pick = rng.permutation(len(counts))[:max(1, len(counts) // 2)]
        sub, _ = pool_bags(
            np.concatenate([rows[spans[b]] for b in pick]),
            offsets_of([counts[b] for b in pick]),
            None if alpha is None else np.concatenate([alpha[spans[b]] for b in pick]),
            mode)
        assert sub.tobytes() == full[pick].tobytes()

    def test_float32_sums_within_the_recursive_summation_bound(self):
        """Every float32 bag is within Higham's bound of its exact sum.

        Summing ``k`` floats one after another commits at most ``k - 1``
        roundings, each relative ``u = 2**-24``, so the computed sum obeys
        ``|fl(s) - s| <= gamma_{k-1} * sum|x|`` with ``gamma_j = j*u / (1 -
        j*u)`` (Higham, *Accuracy and Stability of Numerical Algorithms*,
        Eq. 4.4). ``math.fsum`` gives ``s`` rounded once to float64, off by
        at most ``2**-53 * sum|x|``; ``gamma_k - gamma_{k-1} > u`` covers
        that, so the check is ``|fl(s) - fsum| <= gamma_k * sum|x|``. A
        bag computed as the difference of two prefix sums over its batch
        carries the rounding of every earlier bag and can break it.
        """
        u = 2.0 ** -24
        worst = 0.0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            counts = rng.poisson(10, size=128)
            offsets = offsets_of(counts)
            rows = rng.normal(0.0, 0.05, size=(offsets[-1], 16)).astype(np.float32)
            pooled, _ = pool_bags(rows, offsets, None, "sum")
            assert pooled.dtype == np.float32
            for bag, k in enumerate(counts.tolist()):
                x = rows[offsets[bag]:offsets[bag + 1]].astype(np.float64)
                exact = np.array([math.fsum(col) for col in x.T]) if k else np.zeros(16)
                gamma = k * u / (1.0 - k * u)
                bound = gamma * np.abs(x).sum(axis=0)
                err = np.abs(pooled[bag].astype(np.float64) - exact)
                assert (err <= bound).all(), (seed, bag, k)
                if k:
                    worst = max(worst, float((err / bound).max()))
        assert worst > 0.0  # the bound is exercised, not vacuous


class TestLookupTables:
    def tables(self, dim=4):
        return [EmbeddingBag(50, dim, rng=0),
                EmbeddingBag(7, dim, mode="mean", rng=1),
                TTEmbeddingBag(60, dim, rank=3, d=2, rng=2),
                LowRankEmbeddingBag(40, dim, rank=2, rng=3)]

    def bags(self, embs, num_bags, seed):
        rng = np.random.default_rng(seed)
        out = []
        for emb in embs:
            counts = rng.integers(0, 4, size=num_bags)
            out.append((rng.integers(0, emb.num_rows, size=int(counts.sum())),
                        offsets_of(counts)))
        return out

    @pytest.mark.parametrize("num_bags", [1, 9])
    def test_each_slice_is_that_tables_lookup_bags(self, num_bags):
        embs = self.tables()
        tables = self.bags(embs, num_bags, seed=num_bags)
        block, failed = lookup_tables(embs, tables)
        assert failed == {} and block.shape == (len(embs), num_bags, 4)
        for emb, (indices, offsets), got in zip(embs, tables, block):
            assert got.tobytes() == emb.lookup_bags(indices, offsets).tobytes()

    def test_a_failing_table_is_reported_and_the_rest_served(self):
        embs = self.tables()
        tables = self.bags(embs, 5, seed=0)
        bad_ids = tables[0][0].copy()
        bad_ids[0] = embs[0].num_rows
        tables[0] = (bad_ids, tables[0][1])
        tables[2] = (tables[2][0].astype(np.float64), tables[2][1])
        block, failed = lookup_tables(embs, tables)
        assert sorted(failed) == [0, 2]
        assert isinstance(failed[0], IndexOutOfRangeError)
        assert isinstance(failed[2], TypeError)
        assert not block[[0, 2]].any()
        for t in (1, 3):
            assert block[t].tobytes() == embs[t].lookup_bags(*tables[t]).tobytes()

    def test_a_raising_read_fails_its_table_only(self, monkeypatch):
        embs = self.tables()
        tables = self.bags(embs, 3, seed=1)

        def broken(indices):
            raise RuntimeError("backend down")

        monkeypatch.setattr(embs[1], "_read_rows", broken)
        block, failed = lookup_tables(embs, tables)
        assert list(failed) == [1] and "backend down" in repr(failed[1])
        assert block[0].tobytes() == embs[0].lookup_bags(*tables[0]).tobytes()

    def test_int32_ids_are_accepted(self):
        embs = self.tables()[:2]
        tables = [(i.astype(np.int32), o) for i, o in self.bags(embs, 4, seed=2)]
        block, failed = lookup_tables(embs, tables)
        assert failed == {}
        for emb, (indices, offsets), got in zip(embs, tables, block):
            assert got.tobytes() == emb.lookup_bags(indices, offsets).tobytes()

    def test_tables_must_share_their_bags(self):
        embs = self.tables()[:2]
        tables = self.bags(embs, 3, seed=3)
        with pytest.raises(ValueError):
            lookup_tables(embs, [tables[0], (tables[1][0], tables[1][1][:-1])])


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
