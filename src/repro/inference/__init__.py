"""Frozen-model inference: batch prediction.

The paper's motivation (§1): recommendation models consume "80% of the
total AI inference cycles" at Facebook. The model's read path is
:meth:`repro.models.dlrm.DLRM.predict_logits`, which evaluation and
:class:`repro.serving.InferenceServer` use directly; :class:`Predictor`
is a view over it that serves click probabilities per batch.
"""

from repro.inference.predictor import Predictor

__all__ = ["Predictor"]
