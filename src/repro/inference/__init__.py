"""Frozen-model inference: batch prediction.

The paper's motivation (§1): recommendation models consume "80% of the
total AI inference cycles" at Facebook. This package provides the serving
side of the reproduction — a :class:`Predictor` that freezes a trained
DLRM and serves click probabilities.
"""

from repro.inference.predictor import Predictor

__all__ = ["Predictor"]
