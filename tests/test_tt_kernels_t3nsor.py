"""Tests for low-level kernels and the T3nsor-style baseline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ops.module import coalesce_rows
from repro.tt import T3nsorEmbeddingBag, TTEmbeddingBag, TTShape
from repro.tt.kernels import (segmented_matmul, segmented_outer_add,
                              sorted_runs, tt_lookup_reference)
from tests.helpers import numeric_grad_check, random_csr


def scatter(m, pair):
    """The pair as an ``(m, ...)`` array (zeros off its rows)."""
    rows, vals = pair
    out = np.zeros((m, *vals.shape[1:]), dtype=vals.dtype)
    out[rows] = vals
    return out


class TestScatterAddRows:
    """``coalesce_rows``: the scatter-add of row-shaped values, returned as
    the coalesced ``(sorted unique rows, summed values)`` pair."""

    def test_basic(self):
        rows, vals = coalesce_rows(np.array([3, 1]),
                                   np.array([[3.0, 4.0], [1.0, 2.0]]))
        assert rows.dtype == np.int64 and rows.tolist() == [1, 3]
        np.testing.assert_array_equal(vals, [[1, 2], [3, 4]])

    def test_duplicates_combine(self):
        rows = np.array([2, 2, 2, 0])
        vals = np.arange(8.0).reshape(4, 2)
        got = coalesce_rows(rows, vals)
        assert got.rows.tolist() == [0, 2]
        np.testing.assert_array_equal(got.values[1], vals[:3].sum(axis=0))
        np.testing.assert_array_equal(got.values[0], vals[3])

    def test_nd_values(self):
        got = coalesce_rows(np.array([1, 1]), np.ones((2, 2, 2)))
        assert got.rows.tolist() == [1]
        np.testing.assert_array_equal(got.values, 2 * np.ones((1, 2, 2)))

    def test_empty(self):
        rows, vals = coalesce_rows(np.array([], dtype=np.int64), np.zeros((0, 2)))
        assert rows.shape == (0,) and vals.shape == (0, 2)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            coalesce_rows(np.array([0]), np.zeros((2, 2)))

    @given(st.integers(min_value=0, max_value=2 ** 31),
           st.integers(min_value=1, max_value=50))
    @settings(max_examples=50)
    def test_matches_add_at(self, seed, n):
        """Sums in input order from zero: the bytes of ``np.add.at``."""
        rng = np.random.default_rng(seed)
        rows = rng.integers(0, 6, size=n)
        vals = rng.normal(size=(n, 3))
        want = np.zeros((6, 3))
        np.add.at(want, rows, vals)
        got = coalesce_rows(rows, vals)
        assert got.rows.tolist() == sorted(set(rows.tolist()))
        assert scatter(6, got).tobytes() == want.tobytes()


def _segment_case(case: str, rng, n: int = 40, m: int = 7) -> np.ndarray:
    """Row-index patterns the segmented kernels must handle."""
    if case == "single":
        return np.array([3], dtype=np.int64)
    if case == "all_equal":
        return np.full(n, 2, dtype=np.int64)
    if case == "all_distinct":
        return rng.permutation(n).astype(np.int64)
    if case == "zipf":
        return np.minimum(rng.zipf(1.3, size=n) - 1, m - 1).astype(np.int64)
    if case == "first_last":
        return rng.choice(np.array([0, m - 1]), size=n).astype(np.int64)
    raise AssertionError(case)


SEGMENT_CASES = ["single", "all_equal", "all_distinct", "zipf", "first_last"]


def _draw(rng, shape, *, integer, dtype):
    vals = rng.integers(-4, 5, size=shape) if integer else rng.normal(size=shape)
    return vals.astype(dtype)


def _factors(rng, n, q, width_a, width_b, *, integer, dtype):
    return (_draw(rng, (n, q, width_a), integer=integer, dtype=dtype),
            _draw(rng, (n, q, width_b), integer=integer, dtype=dtype))


class TestSegmentedOuterAdd:
    """``(uniq, block)`` with ``block[i] = sum_s a[s].T @ b[s]`` over the
    samples of ``uniq[i]``, vs. the per-sample loop."""

    @staticmethod
    def naive(buf, rows, a, b):
        for s, j in enumerate(rows):
            buf[j] += (a[s].T @ b[s]).reshape(buf.shape[1:])

    @staticmethod
    def add(buf, rows, a, b, runs=None):
        """``buf[j] += ...`` through the returned pair."""
        uniq, block = segmented_outer_add(rows, a, b, runs)
        assert uniq.tolist() == sorted(set(rows.tolist()))
        buf[uniq] += block.reshape(-1, *buf.shape[1:])

    @pytest.mark.parametrize("case", SEGMENT_CASES)
    @pytest.mark.parametrize("q", [1, 3])
    def test_integer_inputs_bit_exact(self, case, q):
        rng = np.random.default_rng(0)
        rows = _segment_case(case, rng)
        m = max(7, int(rows.max()) + 1)
        a, b = _factors(rng, rows.size, q, 4, 5, integer=True, dtype=np.float64)
        got = rng.integers(-3, 4, size=(m, 2, 2, 5)).astype(np.float64)
        want = got.copy()
        self.add(got, rows, a, b)
        self.naive(want, rows, a, b)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("case", SEGMENT_CASES)
    @pytest.mark.parametrize("dtype,rtol", [(np.float64, 1e-12), (np.float32, 1e-4)])
    def test_gaussian_inputs_close(self, case, dtype, rtol):
        rng = np.random.default_rng(1)
        rows = _segment_case(case, rng)
        m = max(7, int(rows.max()) + 1)
        a, b = _factors(rng, rows.size, 2, 6, 3, integer=False, dtype=dtype)
        got = np.zeros((m, 6, 3), dtype=dtype)
        want = np.zeros((m, 6, 3), dtype=np.float64)
        self.add(got, rows, a, b)
        self.naive(want, rows, a.astype(np.float64), b.astype(np.float64))
        assert got.dtype == dtype
        np.testing.assert_allclose(got, want, rtol=rtol, atol=rtol)

    def test_strided_factors(self):
        # Callers may pass transposed views; the kernel must not care.
        rng = np.random.default_rng(2)
        rows = _segment_case("zipf", rng)
        a, b = _factors(rng, rows.size, 3, 4, 5, integer=True, dtype=np.float64)
        got, want = np.zeros((7, 4, 5)), np.zeros((7, 4, 5))
        self.add(got, rows, np.asfortranarray(a),
                 b.transpose(0, 2, 1).copy().transpose(0, 2, 1))
        self.naive(want, rows, a, b)
        assert got.tobytes() == want.tobytes()

    def test_untouched_slices_stay_untouched(self):
        """Untouched slices are not in the pair at all."""
        uniq, block = segmented_outer_add(np.array([3, 1, 1]), np.ones((3, 1, 2)),
                                          np.ones((3, 1, 2)))
        assert uniq.tolist() == [1, 3]
        np.testing.assert_array_equal(block, [2 * np.ones((2, 2)), np.ones((2, 2))])

    def test_empty(self):
        uniq, block = segmented_outer_add(np.array([], dtype=np.int64),
                                          np.zeros((0, 1, 2)), np.zeros((0, 1, 3)))
        assert uniq.shape == (0,) and block.shape == (0, 2, 3)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            segmented_outer_add(np.array([0, 1]),
                                np.zeros((2, 1, 2)), np.zeros((2, 3, 2)))
        with pytest.raises(ValueError):
            segmented_outer_add(np.array([0]),
                                np.zeros((2, 1, 2)), np.zeros((2, 1, 2)))


class TestSegmentedMatmul:
    """``out[s] = x[s] @ mats[rows[s]]`` vs. the gathered batched matmul."""

    @pytest.mark.parametrize("case", SEGMENT_CASES)
    @pytest.mark.parametrize("dtype,rtol", [(np.float64, 1e-12), (np.float32, 1e-4)])
    @pytest.mark.parametrize("integer", [True, False], ids=["lattice", "gauss"])
    def test_matches_gather(self, case, dtype, rtol, integer):
        rng = np.random.default_rng(3)
        rows = _segment_case(case, rng)
        m = max(7, int(rows.max()) + 1)
        x = _draw(rng, (rows.size, 3, 4), integer=integer, dtype=dtype)
        # A transposed view, as the sweep passes core slices.
        mats = _draw(rng, (m, 5, 2, 4), integer=integer,
                     dtype=dtype).transpose(0, 2, 3, 1)
        got = segmented_matmul(x, rows, mats)
        want = np.matmul(x[:, None], mats[rows])
        assert got.dtype == dtype and got.shape == (rows.size, 2, 3, 5)
        if integer:
            assert got.tobytes() == want.tobytes()
        else:
            np.testing.assert_allclose(got, want, rtol=rtol, atol=rtol)

    def test_result_independent_of_batch_mates(self):
        # Every sample is its own GEMM: dedup / batch composition cannot
        # change a bit of a sample's right partial.
        rng = np.random.default_rng(4)
        rows = _segment_case("zipf", rng)
        x = rng.normal(size=(rows.size, 3, 4))
        mats = rng.normal(size=(7, 2, 4, 5))
        full = segmented_matmul(x, rows, mats)
        for s in (0, 7, rows.size - 1):
            solo = segmented_matmul(x[s:s + 1], rows[s:s + 1], mats)
            assert solo.tobytes() == full[s:s + 1].tobytes()

    @pytest.mark.parametrize("case", SEGMENT_CASES)
    def test_shared_runs_and_out_change_nothing(self, case):
        """The planner passes one ``sorted_runs`` per core to every kernel
        and a pool view as ``out``; a transposed ``x`` is what the
        right-to-left sweep hands over. Same bytes as the plain call."""
        rng = np.random.default_rng(5)
        rows = _segment_case(case, rng)
        m = max(7, int(rows.max()) + 1)
        x = rng.normal(size=(rows.size, 4, 3)).transpose(0, 2, 1)
        mats = rng.normal(size=(m, 2, 4, 5))
        a, b = rng.normal(size=(2, rows.size, 3, 4))
        runs = sorted_runs(rows)
        want = segmented_matmul(np.ascontiguousarray(x), rows, mats)
        out = np.full(want.shape, np.nan)
        assert segmented_matmul(x, rows, mats, runs, out=out) is out
        assert out.tobytes() == want.tobytes()
        got = segmented_outer_add(rows, a, b, runs)
        plain = segmented_outer_add(rows, a, b)
        assert [x.tobytes() for x in got] == [x.tobytes() for x in plain]

    def test_sorted_runs_skips_the_permutation_when_sorted(self):
        for rows in (np.array([4]), np.array([2, 2, 2]), np.array([0, 3, 3, 9])):
            order, uniq, bounds = sorted_runs(rows)
            assert order is None
            assert uniq.tolist() == sorted(set(rows.tolist()))
            assert bounds[0] == 0 and bounds[-1] == rows.size
        order, uniq, bounds = sorted_runs(np.array([5, 1, 5, 0]))
        assert order.tolist() == [3, 1, 0, 2]          # stable
        assert uniq.tolist() == [0, 1, 5] and bounds == [0, 1, 2, 4]

    def test_empty_and_mismatch(self):
        mats = np.zeros((3, 2, 4, 5))
        out = segmented_matmul(np.zeros((0, 3, 4)), np.array([], dtype=np.int64), mats)
        assert out.shape == (0, 2, 3, 5)
        with pytest.raises(ValueError):
            segmented_matmul(np.zeros((2, 3, 4)), np.array([0]), mats)


class TestReferenceKernel:
    def test_reference_matches_materialize(self):
        shape = TTShape.with_uniform_rank(60, 8, (3, 4, 5), (2, 2, 2), 4)
        emb = TTEmbeddingBag(60, 8, shape=shape, rng=0)
        cores = [p.data for p in emb.cores]
        idx = np.arange(60)
        np.testing.assert_allclose(
            tt_lookup_reference(cores, shape, idx), emb.materialize(), atol=1e-12
        )


class TestT3nsorBaseline:
    @pytest.fixture
    def shape(self):
        return TTShape.with_uniform_rank(60, 8, (3, 4, 5), (2, 2, 2), rank=4)

    def test_forward_matches_ttrec_kernel(self, shape):
        """Same cores -> same lookups: only the strategy differs."""
        t3 = T3nsorEmbeddingBag(60, 8, shape=shape, rng=0)
        tt = TTEmbeddingBag(60, 8, shape=shape, rng=1)
        tt.load_cores([p.data.copy() for p in t3.cores])
        idx = np.array([0, 5, 59, 5])
        off = np.array([0, 2, 4])
        np.testing.assert_allclose(
            t3.forward(idx, off), tt.forward(idx, off), atol=1e-12
        )

    def test_peak_activation_is_full_table(self, shape):
        t3 = T3nsorEmbeddingBag(60, 8, shape=shape, rng=0)
        assert t3.peak_activation_elements == shape.padded_rows * 8

    def test_backward_gradients(self, shape):
        rng = np.random.default_rng(13)
        t3 = T3nsorEmbeddingBag(60, 8, shape=shape, rng=0)
        idx, off = random_csr(rng, 60, 5)
        r = rng.normal(size=(5, 8))

        def loss():
            return float((t3.forward(idx, off) * r).sum())

        t3.forward(idx, off)
        t3.backward(r)
        for p in t3.cores:
            numeric_grad_check(p.data, p.dense_grad(), loss, samples=10)

    def test_backward_matches_ttrec_backward(self, shape):
        """The two implementations compute identical core gradients."""
        rng = np.random.default_rng(14)
        t3 = T3nsorEmbeddingBag(60, 8, shape=shape, rng=0)
        tt = TTEmbeddingBag(60, 8, shape=shape, rng=1)
        tt.load_cores([p.data.copy() for p in t3.cores])
        idx, off = random_csr(rng, 60, 6, allow_empty=False)
        r = rng.normal(size=(6, 8))
        t3.forward(idx, off)
        t3.backward(r)
        tt.forward(idx, off)
        tt.backward(r)
        for a, b in zip(t3.cores, tt.cores):
            np.testing.assert_allclose(a.dense_grad(), b.dense_grad(), atol=1e-10)

    def test_mean_mode(self, shape):
        t3 = T3nsorEmbeddingBag(60, 8, shape=shape, mode="mean", rng=0)
        idx = np.array([3, 4])
        out = t3.forward(idx, np.array([0, 2]))
        full = t3.materialize()
        np.testing.assert_allclose(out[0], full[[3, 4]].mean(axis=0), atol=1e-12)

    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError):
            T3nsorEmbeddingBag(60, 8, mode="max")
