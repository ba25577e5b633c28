"""Shared test utilities: numerical gradient checking and tiny fixtures."""

from __future__ import annotations

import numpy as np

from repro.utils.seeding import as_rng


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


def tt_rows_at(emb, idx: np.ndarray, split: int | None = None, *,
               pooled: bool = False) -> np.ndarray:
    """The rows of ``idx`` straight through a TT table's chain executor:
    at ``split`` (the only way to run a split the shape did not pick), or
    at the read split the plan carries; through pooled or fresh buffers."""
    plan = emb.planner.plan_batch(idx, dedup=emb.dedup, need_lefts=False)
    rows, _ = emb.planner.execute(emb.cores, plan, split=split, pooled=pooled)
    return rows[plan.inverse] if plan.inverse is not None else rows
