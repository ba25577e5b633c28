"""Bounded Zipf sampling for categorical feature traffic.

Industry recommendation traffic follows a Power/Zipf law (paper §3.1,
citing Wu et al. 2020): a small set of rows receives most accesses. The
sampler here draws from ``P(rank r) ∝ 1/(r+1)^s`` over a bounded support
``[0, n)``, through a seeded permutation so the hot rows are not simply
the lowest ids (matching real hashed categorical ids).

The class also exposes the analytics the cache experiments rely on:
``top_k_mass(k)`` — the fraction of traffic captured by the ``k`` hottest
rows — which is the *expected cache hit rate* of a perfectly-warmed
k-row LFU cache.

A sampler keeps 12 bytes per row: the float64 CDF that ``sample`` inverts
and the rank-to-id map (int32 while ``n`` fits, else int64). The pmf is
recomputed from ``s`` and the stored normaliser when asked for.
"""

from __future__ import annotations

import numpy as np

from repro.utils.seeding import as_rng

__all__ = ["ZipfSampler"]


class ZipfSampler:
    """Draw row ids from a bounded Zipf distribution.

    Parameters
    ----------
    n:
        Support size (number of table rows).
    s:
        Zipf exponent; 0 = uniform, ~1.05 is typical of the large Criteo
        tables.
    rng:
        Seed or generator for both the permutation (the rank-to-id
        shuffle that scatters the hot ids) and the draws.
    """

    def __init__(self, n: int, s: float = 1.05, *,
                 rng: int | None | np.random.Generator = None):
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        if s < 0:
            raise ValueError(f"s must be >= 0, got {s}")
        self.n = n
        self.s = s
        self._rng = as_rng(rng)
        # The CDF is built in the weights' buffer: the pmf, then its
        # running sum. The total stays to recompute the pmf when asked.
        cdf = self._weights(n)
        self._total = cdf.sum()
        cdf /= self._total
        np.cumsum(cdf, out=cdf)
        cdf[-1] = 1.0  # guard against float drift at the boundary
        self._cdf = cdf
        # Shuffling an arange draws what ``rng.permutation(n)`` draws.
        ids = np.arange(n, dtype=np.int32 if n <= np.iinfo(np.int32).max else np.int64)
        self._rng.shuffle(ids)
        self._rank_to_id = ids

    def _weights(self, k: int) -> np.ndarray:
        """Unnormalised weights ``1/(r+1)^s`` of the ``k`` hottest ranks."""
        w = np.arange(1, k + 1, dtype=np.float64)
        np.power(w, self.s, out=w)
        return np.divide(1.0, w, out=w)

    def _pmf_head(self, k: int) -> np.ndarray:
        """Probability of each of the ``k`` hottest ranks."""
        w = self._weights(k)
        w /= self._total
        return w

    def sample(self, size: int) -> np.ndarray:
        """Draw ``size`` ids (inverse-CDF; O(size log n))."""
        if size < 0:
            raise ValueError(f"size must be >= 0, got {size}")
        u = self._rng.random(size)
        ranks = np.searchsorted(self._cdf, u, side="right")
        return self._rank_to_id[ranks].astype(np.int64)

    def pmf(self) -> np.ndarray:
        """Probability of each *id* (permutation applied)."""
        out = np.empty(self.n)
        out[self._rank_to_id] = self._pmf_head(self.n)
        return out

    def hottest(self, k: int) -> np.ndarray:
        """The ``k`` most probable ids, hottest first."""
        k = min(max(k, 0), self.n)
        return self._rank_to_id[:k].astype(np.int64)

    def top_k_mass(self, k: int) -> float:
        """Traffic fraction captured by the ``k`` hottest rows.

        Equals the steady-state hit rate of a k-row cache holding exactly
        the hottest rows — the analytic backbone of Fig. 10(b)/Fig. 12.
        """
        k = min(max(k, 0), self.n)
        return float(self._pmf_head(k).sum())

    def rank_for_mass(self, mass: float) -> int:
        """Smallest ``k`` with ``top_k_mass(k) >= mass`` (inverse of above)."""
        if not (0.0 <= mass <= 1.0):
            raise ValueError(f"mass must be in [0, 1], got {mass}")
        return int(np.searchsorted(self._cdf, mass, side="left")) + 1

    def drift(self, fraction: float) -> None:
        """Shift the hot set: swap a fraction of the rank-to-id mapping.

        Models the slow non-stationarity of production traffic (new items
        becoming popular) that motivates the paper's *semi-dynamic* cache
        refresh (§4.2, Fig. 4's "depending on the phase behavior"). A
        ``fraction`` of ranks (biased toward the head, where it matters)
        exchange their ids with uniformly random ranks.
        """
        if not (0.0 <= fraction <= 1.0):
            raise ValueError(f"fraction must be in [0, 1], got {fraction}")
        n_swaps = min(int(round(fraction * self.n)), self.n // 2)
        if n_swaps == 0:
            return
        # Head-biased choice of ranks to demote: sample by current pmf.
        demoted = self._rng.choice(self.n, size=n_swaps, replace=False,
                                   p=self._pmf_head(self.n))
        # Partners come from the complement so the two sets are disjoint
        # and the vectorized pairwise swap stays a permutation.
        mask = np.ones(self.n, dtype=bool)
        mask[demoted] = False
        pool = np.flatnonzero(mask)
        promoted = self._rng.choice(pool, size=n_swaps, replace=False)
        tmp = self._rank_to_id[demoted].copy()
        self._rank_to_id[demoted] = self._rank_to_id[promoted]
        self._rank_to_id[promoted] = tmp
