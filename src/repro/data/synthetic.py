"""Synthetic Criteo-shaped CTR data with a planted logistic ground truth.

Design goals (what of Criteo must survive the substitution — DESIGN.md):

1. **Layout** — 13 continuous features, 26 categorical features with the
   spec's exact per-table cardinalities, binary label.
2. **Traffic skew** — per-table Zipf access distributions (paper §3.1:
   "data samples ... often follow a Power or Zipfian distribution"), so
   LFU caching and frequent-row analyses behave as in production traces.
3. **Learnability** — labels come from a planted logistic model over the
   dense features and *hash-derived latent factors* of the categorical
   values, so an embedding-based model genuinely improves with capacity
   and approximation error shows up as accuracy loss. Latents are pure
   functions of ``(table, row)`` via splitmix64, so they take no
   per-row storage. The per-table :class:`~repro.data.zipf.ZipfSampler`
   does: it keeps 12 bytes per row (the float64 CDF ``_cdf`` and the int32
   ``_rank_to_id``), so the generator's memory grows with the tables.

The Bayes accuracy of the generator is controlled by ``noise``: the logit
is scaled so labels are predictable-but-noisy like CTR data (~78-80%
accuracy regimes in the paper's Table 1).
"""

from __future__ import annotations

import numpy as np

from repro.cache.hashtable import splitmix64
from repro.data.batching import Batch, make_offsets
from repro.data.specs import DatasetSpec
from repro.data.zipf import ZipfSampler
from repro.utils.seeding import as_rng, spawn_rngs

__all__ = ["SyntheticCTRDataset", "hash_gaussian"]


def hash_gaussian(keys: np.ndarray, salt: int, dim: int) -> np.ndarray:
    """Deterministic pseudo-Gaussian latent vectors keyed by integers.

    Returns ``(len(keys), dim)`` values that behave like i.i.d. ``N(0,1)``
    draws but are computed, not stored: each entry is a Box-Muller
    transform of two splitmix64-derived uniforms. The same ``(key, salt)``
    always yields the same latent — the planted model's lookup table.
    """
    keys = np.asarray(keys, dtype=np.int64)
    out = np.empty((keys.size, dim), dtype=np.float64)
    for j in range(0, dim, 2):
        mixed = splitmix64(keys * np.int64(2654435761) + np.int64(salt * 1_000_003 + j))
        hi = (mixed >> np.uint64(40)).astype(np.float64)  # 24 bits
        lo = ((mixed >> np.uint64(16)) & np.uint64(0xFFFFFF)).astype(np.float64)
        u1 = (hi + 0.5) / float(1 << 24)
        u2 = (lo + 0.5) / float(1 << 24)
        r = np.sqrt(-2.0 * np.log(u1))
        out[:, j] = r * np.cos(2.0 * np.pi * u2)
        if j + 1 < dim:
            out[:, j + 1] = r * np.sin(2.0 * np.pi * u2)
    return out


class SyntheticCTRDataset:
    """Stream of Criteo-shaped batches with a fixed planted model.

    Parameters
    ----------
    spec:
        Table layout (use a :meth:`DatasetSpec.scaled` spec for training).
    zipf_s:
        Zipf exponent of every table's traffic (0 = uniform).
    pooling_factor:
        Mean lookups per bag, the paper's ``P``. ``P=1`` (Criteo) gives one
        index per bag; ``P>1`` draws bag sizes from a shifted Poisson —
        the embedding-dominated microbenchmark regime of §6.6.
    latent_dim:
        Width of the planted per-value latent factors.
    noise:
        Logit noise std; larger = harder problem, lower Bayes accuracy.
    signal_tables:
        How many of the largest tables carry label signal. Smaller tables
        contribute weaker signal (mirroring feature importance skew).
    seed:
        Master seed; fixes the planted model, traffic and labels.
    """

    def __init__(self, spec: DatasetSpec, *, zipf_s: float = 1.05,
                 pooling_factor: float = 1.0, latent_dim: int = 4,
                 noise: float = 1.0, signal_tables: int | None = None,
                 seed: int = 0):
        if pooling_factor < 1.0:
            raise ValueError(f"pooling_factor must be >= 1, got {pooling_factor}")
        if latent_dim < 1:
            raise ValueError(f"latent_dim must be >= 1, got {latent_dim}")
        if noise < 0:
            raise ValueError(f"noise must be >= 0, got {noise}")
        self.spec = spec
        self.pooling_factor = pooling_factor
        self.latent_dim = latent_dim
        self.noise = noise
        master = as_rng(seed)
        model_rng, *table_rngs = spawn_rngs(master, spec.num_tables + 1)
        self._batch_rng = as_rng(master)
        self.samplers = [
            ZipfSampler(size, zipf_s, rng=r)
            for size, r in zip(spec.table_sizes, table_rngs)
        ]
        # Planted model parameters.
        self._w_dense = model_rng.normal(0.0, 1.0, size=spec.num_dense) / np.sqrt(
            spec.num_dense
        )
        if signal_tables is None:
            signal_tables = spec.num_tables
        strong = set(spec.largest(signal_tables))
        self._u = np.zeros((spec.num_tables, latent_dim))
        for t in range(spec.num_tables):
            scale = 1.0 if t in strong else 0.2
            self._u[t] = model_rng.normal(0.0, scale, size=latent_dim)
        self._u /= np.sqrt(max(1, spec.num_tables) * latent_dim)
        self._bias = float(model_rng.normal(0.0, 0.1))

    # ------------------------------------------------------------------ #

    def _bag_counts(self, batch_size: int) -> np.ndarray:
        if self.pooling_factor == 1.0:
            return np.ones(batch_size, dtype=np.int64)
        # Shifted Poisson keeps every bag non-empty with mean ~= P.
        lam = self.pooling_factor - 1.0
        return 1 + self._batch_rng.poisson(lam, size=batch_size).astype(np.int64)

    def logits(self, dense: np.ndarray,
               sparse: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
        """Noise-free planted logits for given features (test oracle)."""
        z = dense @ self._w_dense + self._bias
        for t, (indices, offsets) in enumerate(sparse):
            latents = hash_gaussian(indices, salt=t, dim=self.latent_dim)
            contrib = latents @ self._u[t]
            # mean-pool each bag's contribution
            cs = np.concatenate([[0.0], np.cumsum(contrib)])
            sums = cs[offsets[1:]] - cs[offsets[:-1]]
            counts = np.maximum(np.diff(offsets), 1)
            z = z + sums / counts
        return z

    def batch(self, batch_size: int) -> Batch:
        """Draw one labelled mini-batch."""
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        rng = self._batch_rng
        dense = rng.normal(0.0, 1.0, size=(batch_size, self.spec.num_dense))
        sparse = []
        for t in range(self.spec.num_tables):
            counts = self._bag_counts(batch_size)
            indices = self.samplers[t].sample(int(counts.sum()))
            sparse.append((indices, make_offsets(counts)))
        z = self.logits(dense, sparse)
        if self.noise:
            z = z + rng.normal(0.0, self.noise, size=batch_size)
        # Scale so click probabilities are spread but not saturated.
        probs = 1.0 / (1.0 + np.exp(-2.0 * z))
        labels = (rng.random(batch_size) < probs).astype(np.float64)
        return Batch(dense=dense, sparse=sparse, labels=labels)

    def batches(self, batch_size: int, num_batches: int):
        """Yield ``num_batches`` consecutive batches."""
        for _ in range(num_batches):
            yield self.batch(batch_size)

    def access_stream(self, table: int, num_accesses: int) -> np.ndarray:
        """Raw row-access trace of one table (locality experiments, Fig. 9)."""
        if not (0 <= table < self.spec.num_tables):
            raise ValueError(f"table {table} out of range")
        return self.samplers[table].sample(num_accesses)
