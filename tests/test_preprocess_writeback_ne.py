"""Tests for normalized entropy."""

import numpy as np
import pytest

from repro.training.metrics import normalized_entropy


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
