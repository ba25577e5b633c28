"""Shared test utilities: numerical gradient checking and tiny fixtures."""

from __future__ import annotations

import numpy as np

from repro.baselines import (HashedEmbeddingBag, LowRankEmbeddingBag,
                             QuantizedEmbeddingBag, TREmbeddingBag)
from repro.cache import CachedTTEmbeddingBag
from repro.compress import ALPTEmbeddingBag, DPQEmbeddingBag
from repro.ops import EmbeddingBag
from repro.tt import TTEmbeddingBag
from repro.utils.seeding import as_rng

# One small table per embedding operator, built with the operator's own
# constructor: kind -> build(num_rows, dim, mode, seed). The contract and
# zoo suites parametrise over it, and the ``zoo/<kind>`` state digests are
# taken of ``build(300, 8, "sum", 0)``, so a knob or a name changed here
# moves a committed digest. TT cores are plain Gaussian: the default
# sampled-Gaussian init goes through the C library's exp().
OPERATORS = {
    "dense": lambda rows, dim, mode, seed: EmbeddingBag(
        rows, dim, mode=mode, rng=seed, name="dense_emb"),
    "tt": lambda rows, dim, mode, seed: TTEmbeddingBag(
        rows, dim, rank=4, initializer="gaussian", mode=mode, rng=seed),
    "cached_tt": lambda rows, dim, mode, seed: CachedTTEmbeddingBag(
        rows, dim, rank=4, initializer="gaussian", cache_size=8,
        warmup_steps=1, mode=mode, rng=seed),
    "tr": lambda rows, dim, mode, seed: TREmbeddingBag(
        rows, dim, rank=2, mode=mode, rng=seed),
    "hash": lambda rows, dim, mode, seed: HashedEmbeddingBag(
        rows, dim, 32, signed=True, mode=mode, rng=seed),
    "lowrank": lambda rows, dim, mode, seed: LowRankEmbeddingBag(
        rows, dim, 2, mode=mode, rng=seed),
    "quant": lambda rows, dim, mode, seed: QuantizedEmbeddingBag.from_dense(
        EmbeddingBag(rows, dim, rng=seed).weight.data, bits=4, mode=mode),
    "dpq": lambda rows, dim, mode, seed: DPQEmbeddingBag(
        rows, dim, num_subspaces=4, codebook_size=16, mode=mode, rng=seed),
    "alpt": lambda rows, dim, mode, seed: ALPTEmbeddingBag(
        rows, dim, bits=8, mode=mode, seed=seed),
}


def numeric_grad_check(param_array: np.ndarray, analytic_grad: np.ndarray,
                       loss_fn, *, samples: int = 20, eps: float = 1e-6,
                       rtol: float = 1e-4, atol: float = 1e-7,
                       rng=0) -> float:
    """Central-difference check of ``analytic_grad`` against ``loss_fn``.

    ``loss_fn`` is a zero-argument callable returning the scalar loss; it
    must read ``param_array`` live (the checker perturbs entries in place).
    A random subset of entries is probed. Returns the max relative error
    and asserts it is within tolerance.
    """
    rng = as_rng(rng)
    flat = param_array.reshape(-1)
    gflat = np.asarray(analytic_grad).reshape(-1)
    assert flat.shape == gflat.shape
    n = min(samples, flat.size)
    picks = rng.choice(flat.size, size=n, replace=False)
    worst = 0.0
    for j in picks:
        orig = flat[j]
        flat[j] = orig + eps
        lp = float(loss_fn())
        flat[j] = orig - eps
        lm = float(loss_fn())
        flat[j] = orig
        numeric = (lp - lm) / (2.0 * eps)
        denom = max(abs(numeric), abs(gflat[j]), atol / rtol)
        err = abs(numeric - gflat[j]) / denom
        worst = max(worst, err)
        assert err <= rtol, (
            f"grad mismatch at flat index {j}: numeric={numeric:.8g} "
            f"analytic={gflat[j]:.8g} rel_err={err:.2e}"
        )
    return worst


def random_csr(rng, num_rows: int, num_bags: int, *, max_bag: int = 5,
               allow_empty: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """Random (indices, offsets) CSR bags for embedding tests."""
    rng = as_rng(rng)
    lo = 0 if allow_empty else 1
    counts = rng.integers(lo, max_bag + 1, size=num_bags)
    indices = rng.integers(0, num_rows, size=int(counts.sum()))
    offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    return indices.astype(np.int64), offsets


def tt_rows_at(emb, idx: np.ndarray, *, pooled: bool = False) -> np.ndarray:
    """The rows of ``idx`` straight through a TT table's chain executor,
    planned with the table's ``dedup`` flag, through pooled or fresh
    buffers."""
    plan = emb.planner.plan_batch(idx, dedup=emb.dedup)
    rows, _ = emb.planner.execute(emb.cores, plan, pooled=pooled)
    return rows[plan.inverse] if plan.inverse is not None else rows
