"""Serving-side wrapper over a trained DLRM.

``Predictor`` freezes a model for inference: it reads through
``lookup_bags``, so no bag is remembered for a backward, no gradient is
touched, and a cached table's tracker and refresh schedule stay as
training left them. ``predict_batch`` applies a stable sigmoid.
"""

from __future__ import annotations

import numpy as np

from repro.data.batching import Batch
from repro.models.dlrm import DLRM
from repro.ops.activations import sigmoid
from repro.utils.dtypes import default_dtype

__all__ = ["Predictor"]


class Predictor:
    """Inference-only view of a trained DLRM.

    Parameters
    ----------
    model:
        The trained model, used in place (not copied).
    """

    def __init__(self, model: DLRM):
        self.config = model.config
        self._embeddings = list(model.embeddings)
        # Towers and interaction are shared (read-only use).
        self._bottom = model.bottom_mlp
        self._top = model.top_mlp
        self._interaction = model.interaction

    @property
    def embeddings(self) -> list:
        """The serving-side embedding operators (read-only list copy)."""
        return list(self._embeddings)

    def predict_logits(self, dense: np.ndarray,
                       sparse: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
        dense = np.asarray(dense, dtype=default_dtype())
        pooled = [
            emb.lookup_bags(indices, offsets)
            for emb, (indices, offsets) in zip(self._embeddings, sparse)
        ]
        return self.logits_from_pooled(dense, pooled)

    def logits_from_pooled(self, dense: np.ndarray,
                           pooled: list[np.ndarray]) -> np.ndarray:
        """Towers + interaction over already-pooled embedding vectors.

        The hook :class:`repro.serving.InferenceServer` uses to run the
        embedding stage itself (so it can degrade per-table backends)
        while sharing the exact tower math with :meth:`predict_logits`.
        """
        dense = np.asarray(dense, dtype=default_dtype())
        x = self._bottom.forward(dense)
        z = self._interaction.forward(x, pooled)
        return self._top.forward(z).reshape(-1)

    def predict_batch(self, batch: Batch) -> np.ndarray:
        """Click probabilities for a batch."""
        return sigmoid(self.predict_logits(batch.dense, batch.sparse))
