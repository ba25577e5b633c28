"""Property-based tests for the cached embedding and CSR machinery.

The central invariant: *whatever* the cache state, CachedTTEmbeddingBag's
output equals manually combining cache rows (for hits) and TT rows (for
misses) — the cache may change performance, never semantics, except for
the deliberate divergence after dense updates to cached rows.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import CachedTTEmbeddingBag
from repro.data.batching import make_offsets
from repro.ops.embedding import segment_sum
from repro.tt import TTShape

SHAPE = TTShape.with_uniform_rank(60, 8, (3, 4, 5), (2, 2, 2), rank=3)
seeds = st.integers(min_value=0, max_value=2 ** 31)


def warmed_embedding(seed: int, cache_size: int) -> CachedTTEmbeddingBag:
    emb = CachedTTEmbeddingBag(
        60, 8, shape=SHAPE, cache_size=cache_size, warmup_steps=0,
        refresh_interval=None, rng=seed,
    )
    rng = np.random.default_rng(seed)
    emb.tracker.record(rng.integers(0, 60, size=200))
    emb.populate()
    return emb


class TestCacheTransparency:
    @given(seeds, st.integers(min_value=1, max_value=30))
    @settings(max_examples=30, deadline=None)
    def test_forward_equals_manual_combination(self, seed, cache_size):
        emb = warmed_embedding(seed, cache_size)
        rng = np.random.default_rng(seed + 1)
        n = int(rng.integers(1, 40))
        indices = rng.integers(0, 60, size=n)
        counts = rng.integers(0, 4, size=5)
        counts[0] += n - counts.sum() if counts.sum() <= n else 0
        # normalise counts to sum exactly n
        while counts.sum() > n:
            counts[np.argmax(counts)] -= 1
        counts[-1] += n - counts.sum()
        offsets = make_offsets(counts)

        out = emb.forward(indices, offsets)

        # manual: lookup each index through cache-or-TT, then pool
        rows = emb.lookup(indices)
        expected = segment_sum(rows, offsets)
        np.testing.assert_allclose(out, expected, atol=1e-10)

    @given(seeds)
    @settings(max_examples=20, deadline=None)
    def test_fresh_cache_matches_pure_tt(self, seed):
        """Right after population (no dense updates yet) the cache serves
        exactly what the TT cores would produce."""
        emb = warmed_embedding(seed, cache_size=10)
        idx = np.arange(60)
        np.testing.assert_allclose(emb.lookup(idx), emb.tt.lookup(idx),
                                   atol=1e-10)

    @given(seeds)
    @settings(max_examples=20, deadline=None)
    def test_membership_partition_is_exact(self, seed):
        emb = warmed_embedding(seed, cache_size=12)
        idx = np.random.default_rng(seed).integers(0, 60, size=50)
        mask, slots = emb._membership(idx)
        cached_ids = set(emb._cached_ids.tolist())
        for i, row in enumerate(idx):
            assert mask[i] == (int(row) in cached_ids)
        # slots map back to the right rows
        hit_rows = idx[mask]
        np.testing.assert_array_equal(emb._cached_ids[
            np.searchsorted(emb._cached_ids, hit_rows)], hit_rows)

    @given(seeds, st.floats(min_value=0.1, max_value=2.0))
    @settings(max_examples=15, deadline=None)
    def test_gradient_split_is_exhaustive(self, seed, scale):
        """Every lookup's gradient lands in exactly one place: the cache
        rows for hits, the TT cores for misses — and their total matches
        the number of lookups (for unit upstream gradients)."""
        emb = warmed_embedding(seed, cache_size=8)
        rng = np.random.default_rng(seed)
        idx = rng.integers(0, 60, size=20)
        emb.zero_grad()
        out = emb.forward(idx)
        emb.backward(np.full_like(out, scale))
        mask, _ = emb._membership(idx)
        # cache grad rows touched == unique hit slots; TT grads nonzero iff misses
        if mask.any():
            assert emb.cache_rows.dense_grad().any()
        if (~mask).any():
            assert any(p.dense_grad().any() for p in emb.tt.cores)
        else:
            assert not any(p.dense_grad().any() for p in emb.tt.cores)
