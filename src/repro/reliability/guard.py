"""Divergence guard: skip, scrub, back off — don't crash.

The seed trainer raised a bare :class:`FloatingPointError` on the first
non-finite loss, turning every transient numeric blow-up into a dead
multi-hour run. :class:`DivergenceGuard` replaces that with one bounded
recovery ladder with fixed values:

1. **Skip** — a batch with a non-finite loss or loss-gradient is dropped
   before it can touch the parameters (no backward, no optimizer step).
2. **Scrub** — any parameter state that is already non-finite is repaired:
   modules exposing a ``scrub()`` hook fix themselves (a cached embedding
   re-materialises poisoned rows from its TT cores), remaining non-finite
   entries are zeroed.
3. **LR backoff** — ``BACKOFF_AFTER`` *consecutive* non-finite events
   multiply the optimizer's learning rate by ``LR_BACKOFF``, at most
   ``MAX_BACKOFFS`` times; after ``RECOVERY_STEPS`` consecutive healthy
   steps the original rate is restored. Isolated transient faults (one
   bad batch between healthy ones) never touch the learning rate.

The ladder is bounded: more than ``MAX_SKIPS`` skipped batches raises
:class:`FloatingPointError` just like the unguarded trainer, so a truly
broken run still fails loudly instead of spinning.
"""

from __future__ import annotations

import numpy as np

from repro.ops.module import Module, named_modules
from repro.telemetry import emit_event

__all__ = ["DivergenceGuard", "scrub_non_finite"]

MAX_SKIPS = 50
LR_BACKOFF = 0.5
BACKOFF_AFTER = 2  # consecutive failures before the first backoff
MAX_BACKOFFS = 3
RECOVERY_STEPS = 25


def scrub_non_finite(model: Module) -> int:
    """Repair non-finite parameter state in place; returns entries fixed.

    Modules with a ``scrub()`` method repair themselves first (and report
    how many values they fixed); any parameter entries still non-finite
    afterwards are zeroed — the neutral value for both weights and
    accumulated gradients.
    """
    repaired = 0
    for _, mod in named_modules(model):
        hook = getattr(mod, "scrub", None)
        if callable(hook):
            repaired += int(hook())
    for p in model.parameters():
        bad = ~np.isfinite(p.data)
        if bad.any():
            p.data[bad] = 0.0
            repaired += int(bad.sum())
    return repaired


class DivergenceGuard:
    """Stateful recovery ladder driven by the trainer.

    The trainer calls :meth:`admit` with each batch's loss and loss
    gradient before backward. ``events`` accumulates per-event counters
    (skipped batches, backoffs, restores, scrubbed values) for benchmark
    reports.
    """

    def __init__(self):
        self.events = {
            "skipped_batches": 0,
            "lr_backoffs": 0,
            "lr_restores": 0,
            "scrubbed_values": 0,
        }
        self._healthy_streak = 0
        self._failure_streak = 0
        self._active_backoffs = 0
        self._base_lr: float | None = None

    def admit(self, loss: float, grad: np.ndarray, *, model: Module | None = None,
              optimizer=None) -> bool:
        """Gate one step: True -> apply the update, False -> skip the batch."""
        if np.isfinite(loss) and bool(np.all(np.isfinite(grad))):
            self._healthy_streak += 1
            self._failure_streak = 0
            if (self._active_backoffs and optimizer is not None
                    and self._healthy_streak >= RECOVERY_STEPS):
                optimizer.lr = self._base_lr
                self._active_backoffs = 0
                self.events["lr_restores"] += 1
                emit_event("guard.lr_restore", lr=float(optimizer.lr))
            return True
        self._healthy_streak = 0
        self._failure_streak += 1
        self.events["skipped_batches"] += 1
        emit_event("guard.skip", loss=float(loss),
                   failure_streak=self._failure_streak)
        if self.events["skipped_batches"] > MAX_SKIPS:
            raise FloatingPointError(
                f"training diverged: more than {MAX_SKIPS} batches "
                "produced non-finite losses/gradients under the guard"
            )
        if model is not None:
            scrubbed = scrub_non_finite(model)
            self.events["scrubbed_values"] += scrubbed
            if scrubbed:
                emit_event("guard.scrub", values=scrubbed)
        if (optimizer is not None
                and self._failure_streak >= BACKOFF_AFTER
                and self._active_backoffs < MAX_BACKOFFS):
            if self._base_lr is None:
                self._base_lr = optimizer.lr
            optimizer.lr *= LR_BACKOFF
            self._active_backoffs += 1
            self.events["lr_backoffs"] += 1
            emit_event("guard.lr_backoff", lr=float(optimizer.lr),
                       active_backoffs=self._active_backoffs)
        return False
