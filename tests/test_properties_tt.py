"""Deeper property-based tests for TT algebra invariants.

These pin mathematical identities the kernels must satisfy for *any*
cores and inputs — multilinearity in each core, scale equivariance,
gradient additivity across batches, and agreement between the three
independent evaluation paths (batched kernel, per-row reference, dense
reconstruction).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tt import TTEmbeddingBag, TTShape, tt_reconstruct, tt_svd
from repro.tt.kernels import tt_lookup_reference
from tests.helpers import tt_rows_at

SHAPE = TTShape.with_uniform_rank(60, 8, (3, 4, 5), (2, 2, 2), rank=4)


def fresh_emb(seed: int) -> TTEmbeddingBag:
    return TTEmbeddingBag(60, 8, shape=SHAPE, rng=seed)


seeds = st.integers(min_value=0, max_value=2 ** 31)


class TestMultilinearity:
    """The TT map is linear in each core separately."""

    @given(seeds, st.integers(min_value=0, max_value=2))
    @settings(max_examples=30, deadline=None)
    def test_scaling_one_core_scales_output(self, seed, core_idx):
        rng = np.random.default_rng(seed)
        emb = fresh_emb(seed)
        idx = rng.integers(0, 60, size=10)
        base = emb.lookup(idx)
        emb.cores[core_idx].data *= 2.5
        np.testing.assert_allclose(emb.lookup(idx), 2.5 * base, rtol=1e-10)

    @given(seeds, st.integers(min_value=0, max_value=2))
    @settings(max_examples=30, deadline=None)
    def test_additivity_in_one_core(self, seed, core_idx):
        rng = np.random.default_rng(seed)
        emb = fresh_emb(seed)
        idx = rng.integers(0, 60, size=8)
        delta = rng.normal(size=emb.cores[core_idx].data.shape)

        original = emb.cores[core_idx].data.copy()
        base = emb.lookup(idx)
        emb.cores[core_idx].data[...] = delta
        only_delta = emb.lookup(idx)
        emb.cores[core_idx].data[...] = original + delta
        combined = emb.lookup(idx)
        np.testing.assert_allclose(combined, base + only_delta, atol=1e-9)

    @given(seeds)
    @settings(max_examples=20, deadline=None)
    def test_global_scaling_is_product_of_core_scalings(self, seed):
        rng = np.random.default_rng(seed)
        emb = fresh_emb(seed)
        idx = rng.integers(0, 60, size=5)
        base = emb.lookup(idx)
        for p in emb.cores:
            p.data *= -1.0
        # (-1)^3 = -1 for d=3
        np.testing.assert_allclose(emb.lookup(idx), -base, rtol=1e-10)


class TestEvaluationPathAgreement:
    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_three_paths_agree(self, seed):
        rng = np.random.default_rng(seed)
        emb = fresh_emb(seed)
        idx = rng.integers(0, 60, size=12)
        fast = emb.lookup(idx)
        slow = tt_lookup_reference([p.data for p in emb.cores], SHAPE, idx)
        dense = emb.materialize()[idx]
        np.testing.assert_allclose(fast, slow, atol=1e-11)
        np.testing.assert_allclose(fast, dense, atol=1e-11)

    @given(seeds)
    @settings(max_examples=15, deadline=None)
    def test_svd_of_materialization_roundtrips(self, seed):
        """materialize -> tt_svd at the same ranks -> same table."""
        emb = fresh_emb(seed)
        table = emb.materialize()
        # The table has TT-rank <= SHAPE.ranks by construction, so a
        # same-rank TT-SVD reproduces it exactly.
        cores = tt_svd(table, SHAPE)
        np.testing.assert_allclose(tt_reconstruct(cores, SHAPE), table, atol=1e-9)


class TestGradientStructure:
    @given(seeds)
    @settings(max_examples=15, deadline=None)
    def test_grad_additivity_across_batches(self, seed):
        """backward(b1) + backward(b2) == backward over the union batch."""
        rng = np.random.default_rng(seed)
        emb = fresh_emb(seed)
        idx1 = rng.integers(0, 60, size=6)
        idx2 = rng.integers(0, 60, size=4)
        g1 = rng.normal(size=(6, 8))
        g2 = rng.normal(size=(4, 8))

        emb.zero_grad()
        emb.forward(idx1)
        emb.backward(g1)
        emb.forward(idx2)
        emb.backward(g2)
        accumulated = [p.dense_grad().copy() for p in emb.cores]

        emb.zero_grad()
        emb.forward(np.concatenate([idx1, idx2]))
        emb.backward(np.vstack([g1, g2]))
        for acc, union in zip(accumulated, (p.dense_grad() for p in emb.cores)):
            np.testing.assert_allclose(acc, union, atol=1e-10)

    @given(seeds)
    @settings(max_examples=15, deadline=None)
    def test_grad_linear_in_upstream(self, seed):
        rng = np.random.default_rng(seed)
        emb = fresh_emb(seed)
        idx = rng.integers(0, 60, size=5)
        g = rng.normal(size=(5, 8))

        emb.zero_grad()
        emb.forward(idx)
        emb.backward(g)
        base = [p.dense_grad().copy() for p in emb.cores]

        emb.zero_grad()
        emb.forward(idx)
        emb.backward(3.0 * g)
        for b, s in zip(base, (p.dense_grad() for p in emb.cores)):
            np.testing.assert_allclose(s, 3.0 * b, atol=1e-10)

    @given(seeds)
    @settings(max_examples=10, deadline=None)
    def test_untouched_core_slices_have_zero_grad(self, seed):
        rng = np.random.default_rng(seed)
        emb = fresh_emb(seed)
        idx = np.array([0])  # decodes to slice 0 of every core
        emb.zero_grad()
        emb.forward(idx)
        emb.backward(np.ones((1, 8)))
        for p in emb.cores:
            assert p.grad.rows.tolist() == [0]  # only slice 0 touched
            assert p.grad.values.any()


class TestCompressionMonotonicity:
    @given(st.integers(min_value=1, max_value=12))
    @settings(max_examples=12, deadline=None)
    def test_truncated_svd_error_matches_discarded_singular_mass(self, rank):
        """TT-SVD truncation error is governed by the discarded spectrum:
        the Frobenius error is bounded by sqrt(sum of discarded sigma^2)
        summed over unfoldings (Oseledets 2011, Thm 2.2)."""
        rng = np.random.default_rng(7)
        w = rng.normal(size=(60, 8))
        shape = TTShape.with_uniform_rank(60, 8, (3, 4, 5), (2, 2, 2), rank)
        rec = tt_reconstruct(tt_svd(w, shape), shape)
        err = np.linalg.norm(rec - w)

        # Oracle bound from the two unfoldings of the exact tensor.
        from repro.tt.decomposition import _matrix_to_tensor

        t = _matrix_to_tensor(w, shape)
        bound_sq = 0.0
        for split in (1, 2):
            rows = int(np.prod(t.shape[:split]))
            s = np.linalg.svd(t.reshape(rows, -1), compute_uv=False)
            r = shape.ranks[split]
            bound_sq += float((s[r:] ** 2).sum())
        assert err <= np.sqrt(bound_sq) + 1e-9


# --------------------------------------------------------------------- #
# Algorithm 2 through every TT operator vs. a per-sample reference
# --------------------------------------------------------------------- #

GRAD_SHAPES = {
    2: TTShape.with_uniform_rank(20, 6, (4, 5), (2, 3), rank=3),
    3: SHAPE,
    4: TTShape.with_uniform_rank(120, 16, (2, 3, 4, 5), (2, 2, 2, 2), rank=3),
}


def naive_core_grads(cores, shape, indices, grad_rows):
    """Per-sample ``L^T dO R^T`` accumulated with ``np.add.at`` (float64).

    Deliberately the formulation the production sweep no longer uses:
    one explicit ``(R_{k-1}, n_k, R_k)`` block per sample and core.
    """
    cores = [np.asarray(c, dtype=np.float64) for c in cores]
    grad_rows = np.asarray(grad_rows, dtype=np.float64)
    decoded = shape.decode_indices(np.asarray(indices, dtype=np.int64))
    grads = [np.zeros_like(c) for c in cores]
    for s in range(decoded.shape[1]):
        slices = [cores[k][decoded[k, s]] for k in range(shape.d)]
        for k in range(shape.d):
            left = np.ones((1, 1))  # (P_{k-1}, R_{k-1})
            for sl in slices[:k]:
                left = (left @ sl.reshape(sl.shape[0], -1)).reshape(-1, sl.shape[2])
            right = np.ones((1, 1))  # (R_k, Q_k)
            for sl in reversed(slices[k + 1:]):
                right = (sl.reshape(-1, sl.shape[2]) @ right).reshape(sl.shape[0], -1)
            d_out = grad_rows[s].reshape(left.shape[0], shape.col_factors[k],
                                         right.shape[1])
            block = np.einsum("pr,pjq,tq->rjt", left, d_out, right)
            np.add.at(grads[k], decoded[k, s:s + 1], block[None])
    return grads


def _pooled_batch(shape, seed, *, integer):
    """Duplicate-heavy weighted bags plus the per-index upstream gradient."""
    from tests.helpers import random_csr

    rng = np.random.default_rng(seed)
    indices, offsets = random_csr(rng, shape.num_rows, 12, max_bag=5)
    indices[: indices.size // 3] = indices[0]
    if integer:
        weights = rng.integers(-2, 3, size=indices.size).astype(np.float64)
        grad_out = rng.integers(-3, 4, size=(offsets.size - 1, shape.dim)).astype(np.float64)
    else:
        weights = rng.normal(size=indices.size)
        grad_out = rng.normal(size=(offsets.size - 1, shape.dim))
    bag_ids = np.repeat(np.arange(offsets.size - 1), np.diff(offsets))
    return indices, offsets, weights, grad_out, grad_out[bag_ids] * weights[:, None]


def _integer_cores(shape, rng):
    return [rng.integers(-2, 3, size=shape.core_shape(k)).astype(np.float64)
            for k in range(shape.d)]


class TestCoreGradsAgainstNaive:
    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("dedup", [False, True], ids=["nodedup", "dedup"])
    @pytest.mark.parametrize("store", [True, False], ids=["store", "recompute"])
    @pytest.mark.parametrize("dtype,rtol", [(np.float64, 1e-10), (np.float32, 2e-4)])
    def test_tt_embedding_bag(self, d, dedup, store, dtype, rtol):
        from repro.utils.dtypes import dtype_policy

        shape = GRAD_SHAPES[d]
        indices, offsets, weights, grad_out, grad_rows = _pooled_batch(
            shape, seed=d, integer=False)
        with dtype_policy(dtype):
            emb = TTEmbeddingBag(shape.num_rows, shape.dim, shape=shape, rng=d,
                                 dedup=dedup, store_intermediates=store)
            emb.forward(indices, offsets, weights)
            emb.backward(grad_out)
        want = naive_core_grads([p.data for p in emb.cores], shape, indices,
                                grad_rows)
        for p, w in zip(emb.cores, want):
            assert p.grad.values.dtype == dtype
            np.testing.assert_allclose(p.dense_grad(), w, rtol=rtol,
                                       atol=rtol * np.abs(w).max())
            touched = np.flatnonzero(np.abs(w).reshape(w.shape[0], -1).sum(axis=1))
            assert np.isin(touched, p.grad.rows).all()

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("dedup", [False, True], ids=["nodedup", "dedup"])
    @pytest.mark.parametrize("store", [True, False], ids=["store", "recompute"])
    def test_integer_lattice_is_bit_exact(self, d, dedup, store):
        shape = GRAD_SHAPES[d]
        indices, offsets, weights, grad_out, grad_rows = _pooled_batch(
            shape, seed=10 + d, integer=True)
        emb = TTEmbeddingBag(shape.num_rows, shape.dim, shape=shape, rng=0,
                             dedup=dedup, store_intermediates=store)
        emb.load_cores(_integer_cores(shape, np.random.default_rng(d)))
        emb.forward(indices, offsets, weights)
        emb.backward(grad_out)
        want = naive_core_grads([p.data for p in emb.cores], shape, indices,
                                grad_rows)
        for p, w in zip(emb.cores, want):
            assert p.dense_grad().tobytes() == w.tobytes()

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("dedup", [False, True], ids=["nodedup", "dedup"])
    @pytest.mark.parametrize("store", [True, False], ids=["store", "recompute"])
    def test_cached_miss_path(self, d, dedup, store):
        from repro.cache import CachedTTEmbeddingBag

        shape = GRAD_SHAPES[d]
        indices, offsets, weights, grad_out, grad_rows = _pooled_batch(
            shape, seed=20 + d, integer=False)
        # warmup_steps=1: the first forward populates 4 hot rows from its
        # own batch, so the same call has hits (cache rows) and misses (TT).
        emb = CachedTTEmbeddingBag(shape.num_rows, shape.dim, shape=shape,
                                   rng=d, cache_size=4, warmup_steps=1,
                                   refresh_interval=None, dedup=dedup)
        emb.tt.store_intermediates = store
        emb.forward(indices, offsets, weights)
        miss = ~np.isin(indices, emb._cached_ids)
        assert miss.any() and not miss.all()
        emb.backward(grad_out)
        want = naive_core_grads([p.data for p in emb.tt.cores], shape,
                                indices[miss], grad_rows[miss])
        for p, w in zip(emb.tt.cores, want):
            np.testing.assert_allclose(p.dense_grad(), w, rtol=1e-10,
                                       atol=1e-10 * np.abs(w).max())

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_same_seed_same_bytes(self, d):
        shape = GRAD_SHAPES[d]

        def run():
            indices, offsets, weights, grad_out, _ = _pooled_batch(
                shape, seed=40 + d, integer=False)
            emb = TTEmbeddingBag(shape.num_rows, shape.dim, shape=shape, rng=d,
                                 dedup=True)
            emb.forward(indices, offsets, weights)
            emb.backward(grad_out)
            return b"".join(p.dense_grad().tobytes() for p in emb.cores)

        assert run() == run()


# --------------------------------------------------------------------- #
# Algorithm 1's chain vs. the per-row reference
# --------------------------------------------------------------------- #

# One chain per core count.
CORE_COUNTS = [2, 3, 4]


def naive_left_partials(cores, shape, indices):
    """``lefts[k][s]`` = product of core slices ``0..k`` of row ``s``."""
    decoded = shape.decode_indices(np.asarray(indices, dtype=np.int64))
    lefts = [[] for _ in range(shape.d)]
    for s in range(decoded.shape[1]):
        acc = np.ones((1, 1), dtype=cores[0].dtype)
        for k in range(shape.d):
            sl = cores[k][decoded[k, s]]
            acc = (acc @ sl.reshape(sl.shape[0], -1)).reshape(-1, sl.shape[2])
            lefts[k].append(acc)
    return [np.stack(part) for part in lefts]


def _edge_batch(shape, seed):
    """Duplicates, the first and the last row (first and last slice of
    every core), in no particular order."""
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, shape.num_rows, size=40)
    idx[:8] = idx[0]
    idx[[11, 29]] = 0, shape.num_rows - 1
    return idx


class TestEveryScheduleAgainstReference:
    @pytest.mark.parametrize("d", CORE_COUNTS)
    @pytest.mark.parametrize("pooled", [False, True], ids=["unpooled", "pooled"])
    @pytest.mark.parametrize("dedup", [False, True], ids=["nodedup", "dedup"])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_integer_lattice_is_bit_exact(self, d, pooled, dedup, dtype):
        """The chain's rows, the operator's rows (unpooled and pooled),
        left partials and planned grads carry the exact integers of the
        per-row / per-sample references."""
        from repro.utils.dtypes import dtype_policy

        shape = GRAD_SHAPES[d]
        idx = _edge_batch(shape, seed=d)
        grad = np.random.default_rng(d).integers(
            -3, 4, size=(idx.size, shape.dim)).astype(dtype)
        with dtype_policy(dtype):
            emb = TTEmbeddingBag(shape.num_rows, shape.dim, shape=shape, rng=0,
                                 dedup=dedup)
        emb.load_cores(_integer_cores(shape, np.random.default_rng(d)))
        cores = [p.data for p in emb.cores]
        want = tt_lookup_reference(cores, shape, idx)
        assert want.dtype == dtype
        assert tt_rows_at(emb, idx, pooled=pooled).tobytes() == want.tobytes()
        assert emb.lookup(idx).tobytes() == want.tobytes()          # unpooled
        assert np.array_equal(emb.forward(idx), want)               # pooled
        emb.backward(grad)
        for p, w in zip(emb.cores, naive_core_grads(cores, shape, idx, grad)):
            assert p.dense_grad().dtype == dtype and np.array_equal(p.dense_grad(), w)
        plan = emb.planner.plan_batch(idx, dedup=dedup)
        rows, lefts = emb._row_chain(plan)
        uniq = np.unique(idx) if plan.inverse is not None else idx
        assert rows.tobytes() == tt_lookup_reference(cores, shape, uniq).tobytes()
        for got, w in zip(lefts, naive_left_partials(cores, shape, uniq)):
            assert got.tobytes() == w.tobytes()

    @pytest.mark.parametrize("d", CORE_COUNTS)
    @pytest.mark.parametrize("pooled", [False, True], ids=["unpooled", "pooled"])
    @pytest.mark.parametrize("dedup", [False, True], ids=["nodedup", "dedup"])
    @pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
    def test_float_cores_within_tolerance(self, d, pooled, dedup, dtype, tol):
        from repro.utils.dtypes import dtype_policy

        shape = GRAD_SHAPES[d]
        idx = _edge_batch(shape, seed=10 + d)
        with dtype_policy(dtype):
            emb = TTEmbeddingBag(shape.num_rows, shape.dim, shape=shape, rng=d,
                                 dedup=dedup)
        want = tt_lookup_reference([p.data for p in emb.cores], shape, idx)
        scale = np.abs(want).max()
        for got in (tt_rows_at(emb, idx, pooled=pooled),
                    emb.lookup(idx), emb.forward(idx)):
            assert got.dtype == dtype
            np.testing.assert_allclose(got, want, rtol=0, atol=tol * scale)


class TestLookupIsBatchIndependent:
    """A row's bytes depend on its index and the table's shape alone — not
    on its batch-mates, its position, the batch size, or which entry point
    (``lookup``, ``lookup_bags``, the pooled forward chain) read it: one
    chain, each lookup its own GEMM on a C-contiguous operand.
    Sharded failover is bit-identical only because a replica serving a
    request in another batch returns the same bytes."""

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("dedup", [False, True], ids=["nodedup", "dedup"])
    def test_alone_in_4096_and_reordered(self, d, dedup):
        emb = TTEmbeddingBag(200_000, 16, rank=8, d=d, rng=d, dedup=dedup)
        rng = np.random.default_rng(50 + d)
        idx = rng.integers(0, emb.num_rows, size=4096)
        idx[:64] = idx[0]
        full = emb.lookup(idx)
        assert emb.forward(idx).tobytes() == full.tobytes()
        perm = rng.permutation(idx.size)
        assert emb.lookup(idx[perm]).tobytes() == full[perm].tobytes()
        # batch sizes on both sides of every power-of-two buffer bucket
        for n in (1, 2, 7, 127, 129, 4096):
            part = idx[:n]
            assert emb.lookup(part).tobytes() == full[:n].tobytes()
            # the read chain through pooled buffers
            assert tt_rows_at(emb, part, pooled=True).tobytes() == full[:n].tobytes()
            # a one-row bag pools to its row exactly, in what a ladder
            # serves and in a training forward
            assert emb.lookup_bags(part).tobytes() == full[:n].tobytes()
            assert emb.forward(part).tobytes() == full[:n].tobytes()
        for s in rng.choice(idx.size, size=24, replace=False).tolist():
            one = idx[s:s + 1]
            assert emb.lookup(one).tobytes() == full[s].tobytes()
            assert emb.lookup_bags(one).tobytes() == full[s].tobytes()
            assert tt_rows_at(emb, one, pooled=True).tobytes() == full[s].tobytes()


class TestForwardMemory:
    def test_no_middle_core_gather_at_batch_4096_rank_32(self):
        """Scratch pool and call peak stay below one ``(n, R, n_k, R)``
        gather of the middle core, so the copy cannot come back unnoticed."""
        import tracemalloc

        n = 4096
        emb = TTEmbeddingBag(1_000_000, 16, rank=32, rng=0)
        r_prev, nk, r_next = emb.shape.core_shape(1)[1:]
        assert (r_prev, r_next) == (32, 32)
        gather_bytes = n * r_prev * nk * r_next * emb.dtype.itemsize
        idx = np.random.default_rng(0).integers(0, emb.num_rows, size=n)
        emb.forward(idx)  # grow the pool to its steady state
        tracemalloc.start()
        try:
            emb.forward(idx)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert emb.planner.pool.nbytes() < gather_bytes
        assert peak < gather_bytes
        # and neither is close: the pool holds partials, not slices
        assert emb.planner.pool.nbytes() < gather_bytes // 4
