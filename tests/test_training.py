"""Tests for metrics and the Trainer loop."""

import dataclasses

import numpy as np
import pytest

from repro.data import KAGGLE, SyntheticCTRDataset
from repro.models import DLRMConfig, TTConfig, build_dlrm, build_ttrec
from repro.reliability import DivergenceGuard
from repro.training import Trainer
from repro.tt import TTEmbeddingBag
from repro.training.metrics import accuracy, bce_loss, roc_auc


class TestAccuracy:
    def test_perfect(self):
        logits = np.array([5.0, -5.0, 5.0])
        labels = np.array([1.0, 0.0, 1.0])
        assert accuracy(logits, labels) == 1.0

    def test_half(self):
        assert accuracy(np.array([5.0, 5.0]), np.array([1.0, 0.0])) == 0.5

    def test_custom_threshold(self):
        logits = np.array([0.1])  # p ~ 0.525
        assert accuracy(logits, np.array([1.0]), threshold=0.5) == 1.0
        assert accuracy(logits, np.array([1.0]), threshold=0.6) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            accuracy(np.zeros(2), np.zeros(3))
        with pytest.raises(ValueError):
            accuracy(np.zeros(0), np.zeros(0))


class TestAUC:
    def test_perfect_separation(self):
        assert roc_auc(np.array([1.0, 2.0, -1.0]), np.array([1, 1, 0.0])) == 1.0

    def test_inverted(self):
        assert roc_auc(np.array([-1.0, 1.0]), np.array([1, 0.0])) == 0.0

    def test_random_is_half(self):
        rng = np.random.default_rng(0)
        scores = rng.normal(size=20_000)
        labels = (rng.random(20_000) > 0.5).astype(float)
        assert roc_auc(scores, labels) == pytest.approx(0.5, abs=0.02)

    def test_ties_average(self):
        # all scores equal -> AUC exactly 0.5 regardless of labels
        assert roc_auc(np.zeros(10), np.array([1, 0] * 5, dtype=float)) == 0.5

    def test_single_class(self):
        assert roc_auc(np.array([1.0, 2.0]), np.array([1.0, 1.0])) == 0.5

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(1)
        scores = rng.normal(size=50)
        labels = (rng.random(50) > 0.5).astype(float)
        pos = scores[labels == 1]
        neg = scores[labels == 0]
        wins = (pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()
        oracle = wins / (pos.size * neg.size)
        assert roc_auc(scores, labels) == pytest.approx(oracle)


class TestBCELoss:
    def test_matches_training_loss(self):
        logits = np.array([0.3, -0.7])
        labels = np.array([1.0, 0.0])
        # direct formula: softplus(z) - y*z
        sp = np.log1p(np.exp(-np.abs(logits))) + np.maximum(logits, 0)
        expected = float(np.mean(sp - labels * logits))
        assert bce_loss(logits, labels) == pytest.approx(expected)


class TestTrainer:
    @pytest.fixture(scope="class")
    def setup(self):
        spec = KAGGLE.scaled(0.0003)
        ds = SyntheticCTRDataset(spec, seed=0, noise=0.6)
        cfg = DLRMConfig(table_sizes=spec.table_sizes, emb_dim=8,
                         bottom_mlp=(16,), top_mlp=(16,))
        return spec, ds, cfg

    def test_loss_decreases(self, setup):
        _, ds, cfg = setup
        trainer = Trainer(build_dlrm(cfg, rng=0), lr=0.1)
        res = trainer.train(ds.batches(64, 120))
        assert res.iterations == 120
        early = float(np.mean(res.losses[:20]))
        late = res.smoothed_loss(20)
        assert late < early - 0.02

    def test_max_iters_truncates(self, setup):
        _, ds, cfg = setup
        trainer = Trainer(build_dlrm(cfg, rng=0), lr=0.1)
        res = trainer.train(ds.batches(32, 50), max_iters=5)
        assert res.iterations == 5

    def test_timing_recorded(self, setup):
        _, ds, cfg = setup
        trainer = Trainer(build_dlrm(cfg, rng=0), lr=0.1)
        res = trainer.train(ds.batches(32, 5))
        assert res.total_time_s > 0
        assert res.ms_per_iter > 0

    def test_evaluate_better_than_chance_after_training(self, setup):
        _, ds, cfg = setup
        trainer = Trainer(build_dlrm(cfg, rng=0), lr=0.1)
        trainer.train(ds.batches(64, 150))
        ev = trainer.evaluate(ds.batches(256, 8))
        assert ev.num_samples == 2048
        assert ev.auc > 0.62
        assert ev.accuracy > 0.55

    def test_evaluate_empty_raises(self, setup):
        _, ds, cfg = setup
        trainer = Trainer(build_dlrm(cfg, rng=0), lr=0.1)
        with pytest.raises(ValueError):
            trainer.evaluate([])

    def test_evaluate_applies_per_sample_weights(self, setup):
        """evaluate must forward with the batch's pooling weights (it used
        to drop them, silently evaluating a different model)."""
        _, ds, cfg = setup
        model = build_dlrm(cfg, rng=0)
        trainer = Trainer(model, lr=0.1)
        batch = next(iter(ds.batches(64, 1)))
        rng = np.random.default_rng(5)
        weighted = batch.__class__(
            dense=batch.dense,
            sparse=batch.sparse,
            labels=batch.labels,
            per_sample_weights=[rng.uniform(0.5, 2.0, size=idx.shape)
                                for idx, _ in batch.sparse],
        )
        ev = trainer.evaluate([weighted])
        logits = model.forward(weighted.dense, weighted.sparse,
                               weighted.per_sample_weights)
        unweighted = model.forward(weighted.dense, weighted.sparse)
        assert not np.allclose(logits, unweighted)
        from repro.training.metrics import bce_loss
        assert ev.bce == pytest.approx(bce_loss(logits, weighted.labels))

    @pytest.mark.parametrize("tt", [False, True], ids=["dense", "tt"])
    def test_a_guard_skipped_step_leaves_no_trace(self, setup, tt):
        """A skipped step returns after forward, so the model's tape and
        each table's bag stay pending; the next clean step's gradients are
        a fresh model's, byte for byte. (A cached table's schedule steps
        on every forward by design, so it is not under test here.)"""
        spec, _, cfg = setup
        ds = SyntheticCTRDataset(spec, seed=1)
        b1, b2 = ds.batch(32), ds.batch(32)
        poisoned = dataclasses.replace(b1, labels=np.full_like(b1.labels, np.nan))
        grads = []
        for skip in (False, True):
            model = (build_ttrec(cfg, num_tt_tables=3, min_rows=1000,
                                 tt=TTConfig(rank=4), rng=0)
                     if tt else build_dlrm(cfg, rng=0))
            trainer = Trainer(model, lr=0.1, guard=DivergenceGuard())
            if skip:
                trainer.train_step(poisoned)
                assert trainer.last_step_skipped
            trainer.train_step(b2)
            assert not trainer.last_step_skipped
            grads.append([p.dense_grad().tobytes() for p in model.parameters()])
        assert tt == any(isinstance(e, TTEmbeddingBag) for e in model.embeddings)
        assert grads[1] == grads[0]

    def test_log_callback(self, setup):
        _, ds, cfg = setup
        trainer = Trainer(build_dlrm(cfg, rng=0), lr=0.1)
        logged = []
        trainer.train(ds.batches(16, 4), log_every=2, log_fn=logged.append)
        assert len(logged) == 2

    def test_empty_result_properties(self):
        from repro.training import TrainResult

        res = TrainResult()
        assert res.ms_per_iter == 0.0
        assert np.isnan(res.final_loss)
        assert np.isnan(res.smoothed_loss())


class TestTimingBreakdown:
    @pytest.fixture(scope="class")
    def setup(self):
        spec = KAGGLE.scaled(0.0003)
        ds = SyntheticCTRDataset(spec, seed=0, noise=0.6)
        cfg = DLRMConfig(table_sizes=spec.table_sizes, emb_dim=8,
                         bottom_mlp=(16,), top_mlp=(16,))
        return ds, cfg

    def test_per_iter_and_stage_times(self, setup):
        ds, cfg = setup
        trainer = Trainer(build_dlrm(cfg, rng=0), lr=0.1)
        res = trainer.train(ds.batches(32, 10))
        assert len(res.per_iter_ms) == 10
        assert all(ms > 0 for ms in res.per_iter_ms)
        for stage in ("data", "forward", "backward", "optimizer"):
            assert res.stage_time_s[stage] > 0
        # Stage accounting cannot exceed the measured wall-clock.
        assert sum(res.stage_time_s.values()) <= res.total_time_s * 1.01

    def test_steady_state_excludes_warmup(self, setup):
        ds, cfg = setup
        trainer = Trainer(build_dlrm(cfg, rng=0), lr=0.1)
        res = trainer.train(ds.batches(32, 10))
        expected = float(np.mean(res.per_iter_ms[1:]))
        assert res.ms_per_iter_steady == pytest.approx(expected)
        # Overall mean still covers every executed iteration.
        assert res.ms_per_iter == pytest.approx(
            1000.0 * res.total_time_s / 10)

    def test_timing_breakdown_covers_wallclock(self, setup):
        ds, cfg = setup
        trainer = Trainer(build_dlrm(cfg, rng=0), lr=0.1)
        res = trainer.train(ds.batches(32, 8))
        bd = res.timing_breakdown()
        assert set(bd) == {"data", "forward", "backward", "optimizer",
                           "checkpoint", "other"}
        assert bd["checkpoint"] == 0.0  # no checkpointing configured
        assert sum(bd.values()) == pytest.approx(res.ms_per_iter, rel=0.05)

    def test_empty_result_timing(self):
        from repro.training import TrainResult

        res = TrainResult()
        assert res.ms_per_iter_steady == 0.0
        assert res.timing_breakdown() == {}
        assert res.per_iter_ms == [] and res.stage_time_s == {}


class TestMemorization:
    def test_dense_model_memorizes_small_corpus(self):
        """Classic sanity check: repeated epochs over a tiny fixed corpus
        drive training accuracy far above the noise ceiling."""
        spec = KAGGLE.scaled(0.0002)
        ds = SyntheticCTRDataset(spec, seed=0, noise=1.5)  # noisy labels
        corpus = [ds.batch(32) for _ in range(4)]
        rng = np.random.default_rng(0)
        epochs = (corpus[i] for _ in range(60)
                  for i in rng.permutation(len(corpus)))
        cfg = DLRMConfig(table_sizes=spec.table_sizes, emb_dim=8,
                         bottom_mlp=(32,), top_mlp=(32,))
        trainer = Trainer(build_dlrm(cfg, rng=0), lr=0.2)
        trainer.train(epochs)
        ev = trainer.evaluate(corpus)
        assert ev.accuracy > 0.9  # memorised the noise
