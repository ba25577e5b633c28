"""Training/evaluation driver for DLRM-style models.

One :class:`Trainer` owns a model, an optimizer and a data source, and
provides the timed training loop every timing experiment (Fig. 7, Fig. 10)
builds on. The loop accounts wall-clock per stage — data fetch, forward,
backward, optimizer, checkpointing — surfaced on
:class:`TrainResult` (``stage_time_s``, ``per_iter_ms``,
``ms_per_iter``/``ms_per_iter_steady``, ``timing_breakdown()``), and opens
telemetry spans (``trainer.forward`` etc., see :mod:`repro.telemetry`)
around the same stages so ``repro profile`` can show where iteration time
goes. The overall ``ms_per_iter`` mirrors the paper's numbers.

The loop is fault-tolerant when asked to be (see
:mod:`repro.reliability`): a :class:`~repro.reliability.guard.DivergenceGuard`
replaces the fail-fast :class:`FloatingPointError` with a bounded
skip/backoff/rollback policy, a
:class:`~repro.reliability.fault_injection.FaultInjector` can corrupt the
loss gradient at the ``trainer.grad`` site for chaos testing, and
``train(..., checkpoint_every=, checkpoint_dir=, resume_from=)`` makes a
killed run resumable bit-for-bit: the resumed loop replays (consumes
without training) the already-trained prefix of the batch stream so the
data RNG advances identically, then continues from the restored model,
optimizer and RNG state.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from time import perf_counter_ns

import numpy as np

from repro.data.batching import Batch
from repro.models.dlrm import DLRM
from repro.ops.loss import bce_with_logits
from repro.ops.optim import SparseSGD
from repro.telemetry import emit_event, trace
from repro.training.metrics import accuracy, bce_loss, normalized_entropy, roc_auc

__all__ = ["Trainer", "TrainResult", "EvalResult"]

# The per-iteration stages the trainer accounts separately.
STAGES = ("data", "forward", "backward", "optimizer", "checkpoint")


@dataclass
class TrainResult:
    """Summary of one training run."""

    iterations: int = 0
    total_time_s: float = 0.0
    losses: list[float] = field(default_factory=list)
    skipped: int = 0       # batches the divergence guard refused to apply
    rollbacks: int = 0     # checkpoint restores triggered by loss spikes
    start_iteration: int = 0  # > 0 when the run resumed from a checkpoint
    # Wall-clock of each applied iteration (data fetch + forward + backward
    # + optimizer), and cumulative per-stage seconds over the whole run.
    per_iter_ms: list[float] = field(default_factory=list)
    stage_time_s: dict[str, float] = field(default_factory=dict)

    @property
    def ms_per_iter(self) -> float:
        """Mean wall-clock per iteration *executed by this call* (resumed
        iterations restored from a checkpoint carry no time). Includes the
        first iteration's warm-up cost; see :attr:`ms_per_iter_steady`."""
        executed = self.iterations - self.start_iteration
        return 1000.0 * self.total_time_s / executed if executed > 0 else 0.0

    @property
    def ms_per_iter_steady(self) -> float:
        """Steady-state mean ms/iter: the first executed iteration is
        excluded, since it alone pays allocator growth, first-touch page
        faults and BLAS thread-pool spin-up and skews short runs."""
        if len(self.per_iter_ms) > 1:
            return float(np.mean(self.per_iter_ms[1:]))
        return self.ms_per_iter

    def timing_breakdown(self) -> dict[str, float]:
        """Per-stage mean ms/iter (plus ``other``: loop bookkeeping,
        guard checks, replay) over the iterations executed by this call."""
        executed = self.iterations - self.start_iteration
        if executed <= 0:
            return {}
        out = {stage: 1000.0 * self.stage_time_s.get(stage, 0.0) / executed
               for stage in STAGES}
        accounted = sum(self.stage_time_s.values())
        out["other"] = 1000.0 * max(0.0, self.total_time_s - accounted) / executed
        return out

    @property
    def final_loss(self) -> float:
        return self.losses[-1] if self.losses else float("nan")

    def smoothed_loss(self, window: int = 50) -> float:
        """Mean loss over the trailing window (noise-robust progress signal)."""
        if not self.losses:
            return float("nan")
        return float(np.mean(self.losses[-window:]))


@dataclass
class EvalResult:
    """Validation metrics over a held-out sample stream."""

    accuracy: float
    bce: float
    auc: float
    num_samples: int
    ne: float = float("nan")  # normalized entropy (He et al. 2014)

    def __str__(self) -> str:  # pragma: no cover - formatting
        return (
            f"acc={self.accuracy * 100:.3f}% bce={self.bce:.4f} "
            f"auc={self.auc:.4f} ne={self.ne:.4f} (n={self.num_samples})"
        )


class Trainer:
    """Minibatch trainer with BCE-with-logits loss.

    Parameters
    ----------
    model:
        A :class:`~repro.models.dlrm.DLRM` (baseline or TT-Rec variant).
    lr:
        SGD learning rate (MLPerf-DLRM Kaggle default 0.1).
    optimizer:
        Optional pre-built optimizer; defaults to
        :class:`~repro.ops.optim.SparseSGD` over the model's parameters.
    guard:
        Optional :class:`~repro.reliability.guard.DivergenceGuard`. With a
        guard, non-finite losses/gradients follow its recovery policy
        instead of raising :class:`FloatingPointError`.
    injector:
        Optional :class:`~repro.reliability.fault_injection.FaultInjector`
        probed at the ``trainer.grad`` site each step (chaos testing).
    rng:
        Optional :class:`numpy.random.Generator` whose state is saved in
        checkpoints and restored on resume (hand in the generator driving
        the data stream when it lives outside the batch iterable).
    """

    def __init__(self, model: DLRM, *, lr: float = 0.1, optimizer=None,
                 guard=None, injector=None,
                 rng: np.random.Generator | None = None):
        self.model = model
        self.optimizer = optimizer if optimizer is not None else SparseSGD(
            model.parameters(), lr=lr
        )
        self.guard = guard
        self.injector = injector
        self.rng = rng
        self.last_step_skipped = False
        # Stage seconds of the most recent train_step (data time is added
        # by the train loop, which owns the batch iterator).
        self.last_step_timings: dict[str, float] = {}

    def train_step(self, batch: Batch) -> float:
        """One forward/backward/update step; returns the batch loss.

        Without a guard, raises :class:`FloatingPointError` if the loss is
        NaN/inf — catching divergence at the step it happens instead of
        corrupting every parameter and failing silently later. With a
        guard, a non-finite loss or loss-gradient makes this a no-op step
        (``last_step_skipped`` is set) and the guard's recovery policy
        runs instead.
        """
        self.last_step_skipped = False
        t0 = perf_counter_ns()
        self.optimizer.zero_grad()
        with trace("trainer.forward"):
            logits = self.model.forward(
                batch.dense, batch.sparse, batch.per_sample_weights
            )
            loss, grad = bce_with_logits(logits, batch.labels)
        t1 = perf_counter_ns()
        if self.injector is not None:
            self.injector.corrupt("trainer.grad", grad)
        if self.guard is not None:
            if not self.guard.admit(loss, grad, model=self.model,
                                    optimizer=self.optimizer):
                self.last_step_skipped = True
                self.last_step_timings = {
                    "forward": (t1 - t0) / 1e9, "backward": 0.0,
                    "optimizer": 0.0,
                }
                return float(loss)
        elif not np.isfinite(loss):
            raise FloatingPointError(
                f"training diverged: loss={loss!r}; lower the learning rate "
                "or check the input data for non-finite values"
            )
        with trace("trainer.backward"):
            self.model.backward(grad)
        t2 = perf_counter_ns()
        with trace("trainer.optimizer"):
            self.optimizer.step()
        t3 = perf_counter_ns()
        self.last_step_timings = {
            "forward": (t1 - t0) / 1e9,
            "backward": (t2 - t1) / 1e9,
            "optimizer": (t3 - t2) / 1e9,
        }
        return loss

    def train(self, batches, *, max_iters: int | None = None,
              log_every: int | None = None, log_fn=print,
              checkpoint_every: int | None = None,
              checkpoint_dir: str | os.PathLike | None = None,
              keep_checkpoints: int = 3,
              resume_from=None) -> TrainResult:
        """Train over an iterable of batches, timing the whole loop.

        Parameters
        ----------
        checkpoint_every, checkpoint_dir:
            Write an atomic checkpoint (model + optimizer + RNG + loss
            history) every ``checkpoint_every`` iterations into
            ``checkpoint_dir``, keeping the newest ``keep_checkpoints``.
        resume_from:
            Checkpoint directory (or a prepared
            :class:`~repro.reliability.checkpoint.CheckpointManager`) to
            resume from. The newest valid checkpoint is restored and the
            first ``step`` batches of the stream are consumed untrained,
            so passing the same freshly-constructed batch iterable
            reproduces the uninterrupted run bit-for-bit. ``max_iters``
            keeps counting from the start of the stream.
        """
        from repro.reliability.checkpoint import CheckpointManager

        manager = None
        if checkpoint_dir is not None:
            manager = CheckpointManager(checkpoint_dir, keep=keep_checkpoints)
        elif checkpoint_every is not None:
            raise ValueError("checkpoint_every requires checkpoint_dir")
        if checkpoint_every is not None and checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )

        result = TrainResult()
        if resume_from is not None:
            if isinstance(resume_from, CheckpointManager):
                resume_mgr = resume_from
            else:
                resume_mgr = CheckpointManager(resume_from, keep=keep_checkpoints)
            ck = resume_mgr.restore(self.model, optimizer=self.optimizer,
                                    rng=self.rng)
            result.start_iteration = ck.step
            result.iterations = ck.step
            result.losses = ck.losses

        stage = dict.fromkeys(STAGES, 0.0)
        start = time.perf_counter()
        stream = iter(batches)
        i = 0
        while max_iters is None or i < max_iters:
            t_fetch = perf_counter_ns()
            with trace("trainer.data"):
                try:
                    batch = next(stream)
                except StopIteration:
                    break
            data_s = (perf_counter_ns() - t_fetch) / 1e9
            if i < result.start_iteration:
                i += 1
                continue  # replay: consume the stream to advance its RNG
            stage["data"] += data_s
            loss = self.train_step(batch)
            step = self.last_step_timings
            for key in ("forward", "backward", "optimizer"):
                stage[key] += step.get(key, 0.0)
            if self.last_step_skipped:
                result.skipped += 1
            else:
                result.losses.append(loss)
                result.iterations += 1
                result.per_iter_ms.append(1000.0 * (
                    data_s + step.get("forward", 0.0)
                    + step.get("backward", 0.0) + step.get("optimizer", 0.0)
                ))
            if log_every and (i + 1) % log_every == 0:
                log_fn(
                    f"iter {i + 1}: loss={np.mean(result.losses[-log_every:]):.4f}"
                )
            if (self.guard is not None and manager is not None
                    and self.guard.wants_rollback(result.losses)):
                ck = manager.restore(self.model, optimizer=self.optimizer,
                                     rng=self.rng)
                result.losses = ck.losses
                result.rollbacks += 1
                self.guard.notify_rollback()
                emit_event("trainer.rollback", step=i + 1,
                           restored_step=ck.step)
            if (checkpoint_every is not None
                    and (i + 1) % checkpoint_every == 0):
                t_ck = perf_counter_ns()
                with trace("trainer.checkpoint"):
                    manager.save(i + 1, self.model, optimizer=self.optimizer,
                                 rng=self.rng, losses=result.losses)
                stage["checkpoint"] += (perf_counter_ns() - t_ck) / 1e9
                emit_event("checkpoint.save", step=i + 1)
            i += 1
        result.total_time_s = time.perf_counter() - start
        result.stage_time_s = stage
        return result

    def evaluate(self, batches, *, max_iters: int | None = None) -> EvalResult:
        """Accuracy/BCE/AUC read through ``model.predict_logits``, with
        each batch's ``per_sample_weights`` applied: a cached table's step
        count, tracker, resident set and cache rows stay as training left
        them (its hit and miss counters still count what it serves)."""
        all_logits: list[np.ndarray] = []
        all_labels: list[np.ndarray] = []
        for i, batch in enumerate(batches):
            if max_iters is not None and i >= max_iters:
                break
            logits = self.model.predict_logits(batch.dense, batch.sparse,
                                               batch.per_sample_weights)
            all_logits.append(np.asarray(logits))
            all_labels.append(np.asarray(batch.labels))
        if not all_logits:
            raise ValueError("evaluate received no batches")
        logits = np.concatenate(all_logits)
        labels = np.concatenate(all_labels)
        return EvalResult(
            accuracy=accuracy(logits, labels),
            bce=bce_loss(logits, labels),
            auc=roc_auc(logits, labels),
            num_samples=logits.size,
            ne=normalized_entropy(logits, labels),
        )
