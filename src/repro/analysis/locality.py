"""Frequent-row set stability over a training run (Fig. 9).

The paper counts cumulative row-access frequencies every 3% of training
progress, takes the top-10k set at each checkpoint, and plots the fraction
of the set that changed between consecutive checkpoints. A rapidly
shrinking difference means the hot set stabilises early — the property
that lets the semi-dynamic cache skip periodic re-warming.

:func:`stability_series` is Fig. 9 as printed, series and stabilisation
point; ``repro report`` and the Fig. 9 bench both print it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bench.reporting import format_series

__all__ = ["StabilityTrace", "top_set_stability", "stability_series"]


@dataclass(frozen=True)
class StabilityTrace:
    """Per-checkpoint change fractions of the top-k set."""

    checkpoints: np.ndarray  # fraction of the stream consumed, (C,)
    change_fraction: np.ndarray  # |top_k(t) \ top_k(t-1)| / k, (C-1,)
    k: int

    def stabilization_point(self, threshold: float = 0.01) -> float:
        """Earliest stream fraction after which changes stay below
        ``threshold`` — the "stabilises at ~5% / ~50%" numbers of Fig. 9."""
        below = self.change_fraction <= threshold
        for i in range(below.size):
            if below[i:].all():
                return float(self.checkpoints[i + 1])
        return 1.0


def top_set_stability(stream: np.ndarray, *, k: int = 10_000,
                      checkpoint_fraction: float = 0.03) -> StabilityTrace:
    """Measure top-k set churn over an access stream (Fig. 9 methodology).

    Parameters
    ----------
    stream:
        1-D array of row ids in access order (one table's training trace).
    k:
        Hot-set size (the paper uses 10k rows).
    checkpoint_fraction:
        Evaluate the cumulative top-k every this fraction of the stream.
    """
    stream = np.asarray(stream, dtype=np.int64).reshape(-1)
    if stream.size == 0:
        raise ValueError("empty access stream")
    if not (0.0 < checkpoint_fraction <= 1.0):
        raise ValueError(f"checkpoint_fraction must be in (0, 1], got {checkpoint_fraction}")
    n_rows = int(stream.max()) + 1
    k = min(k, n_rows)
    counts = np.zeros(n_rows, dtype=np.int64)
    step = max(1, int(round(stream.size * checkpoint_fraction)))
    boundaries = list(range(step, stream.size + 1, step))
    if boundaries[-1] != stream.size:
        boundaries.append(stream.size)

    checkpoints = []
    sets: list[np.ndarray] = []
    prev = 0
    for b in boundaries:
        chunk = stream[prev:b]
        counts += np.bincount(chunk, minlength=n_rows)
        prev = b
        # top-k by cumulative count, ties broken by id for determinism
        top = np.argsort(-counts, kind="stable")[:k]
        sets.append(np.sort(top))
        checkpoints.append(b / stream.size)

    changes = []
    for prev_set, cur_set in zip(sets[:-1], sets[1:]):
        new = np.setdiff1d(cur_set, prev_set, assume_unique=True)
        changes.append(new.size / k)
    return StabilityTrace(
        checkpoints=np.asarray(checkpoints),
        change_fraction=np.asarray(changes),
        k=k,
    )


def stability_series(trace: StabilityTrace, title: str) -> str:
    """Fig. 9 as printed: the change fraction at each checkpoint after the
    first, then where the set change first drops to 2%."""
    series = format_series(
        title,
        [f"{c:.0%}" for c in trace.checkpoints[1:]],
        [f"{f:.4f}" for f in trace.change_fraction],
        x_label="progress", y_label="change",
    )
    return (f"{series}\n\nstabilises (<=2% change) at "
            f"{trace.stabilization_point(0.02):.0%} of the stream")
