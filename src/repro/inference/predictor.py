"""Serving-side view of a trained DLRM.

``Predictor`` holds the model and reads it through
:meth:`~repro.models.dlrm.DLRM.predict_logits`'s path: each table's
``lookup_bags``, then the model's ``logits_from_pooled``. No bag or tape
is kept for a backward, no gradient is touched, and a cached table's
tracker and refresh schedule stay as training left them.
:class:`~repro.serving.InferenceServer` serves a model directly; this view
remains for callers that import it.
"""

from __future__ import annotations

import numpy as np

from repro.data.batching import Batch
from repro.models.dlrm import DLRM
from repro.ops.activations import sigmoid

__all__ = ["Predictor"]


class Predictor:
    """Inference-only view of a trained DLRM.

    Parameters
    ----------
    model:
        The trained model, used in place (not copied).
    """

    def __init__(self, model: DLRM):
        self.model = model
        self.config = model.config
        self.embeddings = model.embeddings
        # An instance attribute, so a caller can wrap the towers this
        # view (and a server built on it) reaches.
        self.logits_from_pooled = model.logits_from_pooled

    def predict_logits(self, dense: np.ndarray,
                       sparse: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
        return self.logits_from_pooled(
            dense, self.model.pool("lookup_bags", dense, sparse))

    def predict_batch(self, batch: Batch) -> np.ndarray:
        """Click probabilities for a batch."""
        return sigmoid(self.predict_logits(batch.dense, batch.sparse))
