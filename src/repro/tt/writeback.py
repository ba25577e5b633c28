"""Row write-back: absorbing learned dense rows into TT cores.

Paper §4.2 discards the dense updates of evicted cache lines because
"decomposing the evicted vectors and updating the decomposed parameters
with the existing TT cores [is] equivalent to dynamically tracking TT
decomposition for a streaming matrix, which is a challenging algebraic
problem itself."

This module implements the practical approximation the paper stops short
of: treat the learned rows as regression targets and take a few damped
least-squares (gradient) steps on

    L(cores) = ||TT(rows) - targets||^2 / n  +  ridge * drift_penalty

where ``drift_penalty`` anchors the cores to their current values so
absorbing a handful of rows cannot disturb the rest of the table. This is
*not* an exact streaming TT-SVD — it is the cheap local correction one
can afford at eviction time — and the eviction-policy ablation bench
measures whether it is worth anything (supporting or refuting the paper's
"discard is fine" choice).
"""

from __future__ import annotations

import numpy as np

from repro.tt.embedding_bag import TTEmbeddingBag

__all__ = ["absorb_rows", "reconstruction_error"]


def reconstruction_error(emb: TTEmbeddingBag, row_ids: np.ndarray,
                         targets: np.ndarray) -> float:
    """RMS error between the TT table's rows and the targets."""
    row_ids = np.asarray(row_ids, dtype=np.int64)
    targets = np.asarray(targets, dtype=emb.dtype)
    diff = emb.lookup(row_ids) - targets
    return float(np.sqrt(np.mean(diff * diff)))


def absorb_rows(emb: TTEmbeddingBag, row_ids: np.ndarray, targets: np.ndarray, *,
                steps: int = 20, lr: float = 0.5, ridge: float = 1e-3,
                tol: float = 0.0) -> dict:
    """Nudge the TT cores so ``emb.lookup(row_ids) ~= targets``.

    Runs ``steps`` gradient-descent iterations on the ridge-damped squared
    reconstruction error of just these rows, reusing the production
    forward/backward kernels. Early-stops once the RMS error falls below
    ``tol``.

    Returns a stats dict: ``{"before": rms, "after": rms, "steps": used}``.

    Notes
    -----
    - ``ridge`` pulls the cores toward their pre-call values (proximal
      damping), bounding collateral movement of un-targeted rows.
    - Rank limits what is representable: if the targets are far outside
      the TT manifold's reach the residual plateaus — exactly the paper's
      point about why this is hard in general.
    """
    row_ids = np.asarray(row_ids, dtype=np.int64)
    targets = np.asarray(targets, dtype=emb.dtype)
    if targets.shape != (row_ids.size, emb.dim):
        raise ValueError(
            f"targets must have shape ({row_ids.size}, {emb.dim}), "
            f"got {targets.shape}"
        )
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if row_ids.size == 0:
        return {"before": 0.0, "after": 0.0, "steps": 0}

    anchors = [p.data.copy() for p in emb.cores]
    # The cores' pairs as the caller left them (a training step may be
    # mid-flight): pairs are never written in place, so holding them is
    # enough to hand them back.
    held = [p.grad for p in emb.cores]
    before = reconstruction_error(emb, row_ids, targets)
    n = row_ids.size
    used = 0
    for _ in range(steps):
        current = reconstruction_error(emb, row_ids, targets)
        if current <= tol:
            break
        used += 1
        emb.zero_grad()
        out = emb.forward(row_ids)  # one bag per row
        grad = 2.0 * (out - targets) / n
        emb.backward(grad)
        for p, anchor in zip(emb.cores, anchors):
            p.data -= lr * (p.dense_grad() + ridge * (p.data - anchor))
    for p, pair in zip(emb.cores, held):
        p.grad = pair
    after = reconstruction_error(emb, row_ids, targets)
    return {"before": before, "after": after, "steps": used}
