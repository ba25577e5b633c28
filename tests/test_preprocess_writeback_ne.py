"""Tests for TT row write-back and normalized entropy."""

import numpy as np
import pytest

from repro.training.metrics import normalized_entropy
from repro.tt import TTEmbeddingBag, TTShape
from repro.tt.writeback import absorb_rows, reconstruction_error


class TestWriteBack:
    @pytest.fixture
    def emb(self):
        shape = TTShape.with_uniform_rank(60, 8, (3, 4, 5), (2, 2, 2), rank=6)
        return TTEmbeddingBag(60, 8, shape=shape, rng=0)

    def test_absorbs_learnable_targets(self, emb):
        """Targets near the TT manifold are absorbed to low residual."""
        rng = np.random.default_rng(1)
        rows = np.array([3, 17, 42])
        targets = emb.lookup(rows) + 0.01 * rng.normal(size=(3, 8))
        stats = absorb_rows(emb, rows, targets, steps=100, lr=1.0)
        assert stats["after"] < stats["before"]
        assert stats["after"] < 0.01

    def test_other_rows_barely_move(self, emb):
        rng = np.random.default_rng(2)
        rows = np.array([5])
        others = np.array([50, 55, 59])
        before_others = emb.lookup(others).copy()
        targets = emb.lookup(rows) + 0.05 * rng.normal(size=(1, 8))
        absorb_rows(emb, rows, targets, steps=50, lr=0.5, ridge=1e-2)
        drift = np.abs(emb.lookup(others) - before_others).max()
        assert drift < 0.05  # bounded collateral movement

    def test_unreachable_targets_plateau(self):
        """Rank-1 cores cannot represent arbitrary rows: the paper's point
        about why streaming decomposition is hard."""
        shape = TTShape.with_uniform_rank(60, 8, (3, 4, 5), (2, 2, 2), rank=1)
        emb = TTEmbeddingBag(60, 8, shape=shape, rng=0)
        rng = np.random.default_rng(3)
        rows = np.arange(20)
        targets = rng.normal(size=(20, 8))  # far off the rank-1 manifold
        stats = absorb_rows(emb, rows, targets, steps=60, lr=0.3)
        assert stats["after"] > 0.1  # cannot be driven to zero

    def test_leaves_the_cores_pairs_as_found(self, emb):
        """absorb_rows can run between a training forward and its backward
        (cache eviction), so it hands every core's pair back untouched."""
        absorb_rows(emb, np.array([1, 5, 9]), np.ones((3, 8)), steps=3)
        assert all(p.grad is None for p in emb.cores)
        emb.forward(np.array([2, 7]))
        emb.backward(np.ones((2, 8)))
        held = [p.grad for p in emb.cores]
        absorb_rows(emb, np.array([1, 5, 9]), np.ones((3, 8)), steps=3)
        assert all(p.grad is pair for p, pair in zip(emb.cores, held))

    def test_empty_rows_noop(self, emb):
        stats = absorb_rows(emb, np.empty(0, dtype=np.int64),
                            np.zeros((0, 8)))
        assert stats == {"before": 0.0, "after": 0.0, "steps": 0}

    def test_tol_early_stop(self, emb):
        rows = np.array([1])
        targets = emb.lookup(rows)  # already exact
        stats = absorb_rows(emb, rows, targets, steps=50, tol=1e-12)
        assert stats["steps"] == 0

    def test_validation(self, emb):
        with pytest.raises(ValueError):
            absorb_rows(emb, np.array([1]), np.zeros((2, 8)))
        with pytest.raises(ValueError):
            absorb_rows(emb, np.array([1]), np.zeros((1, 8)), steps=0)

    def test_reconstruction_error_zero_for_exact(self, emb):
        rows = np.array([2, 4])
        assert reconstruction_error(emb, rows, emb.lookup(rows)) == 0.0


class TestNormalizedEntropy:
    def test_base_rate_predictor_is_one(self):
        rng = np.random.default_rng(0)
        labels = (rng.random(50_000) < 0.3).astype(float)
        p = labels.mean()
        logits = np.full_like(labels, np.log(p / (1 - p)))
        assert normalized_entropy(logits, labels) == pytest.approx(1.0, abs=1e-3)

    def test_better_model_below_one(self):
        labels = np.array([1.0, 0, 1, 0] * 100)
        logits = np.where(labels > 0.5, 2.0, -2.0)
        assert normalized_entropy(logits, labels) < 0.5

    def test_single_class_is_inf(self):
        assert normalized_entropy(np.zeros(4), np.ones(4)) == float("inf")
