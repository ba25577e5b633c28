"""The DLRM model (paper Fig. 2): bottom MLP + embeddings + interaction + top MLP.

The embedding layer of each categorical feature is pluggable — dense
:class:`~repro.ops.embedding.EmbeddingBag` (baseline),
:class:`~repro.tt.embedding_bag.TTEmbeddingBag` (TT-Rec), or
:class:`~repro.cache.cached_embedding.CachedTTEmbeddingBag` (TT-Rec with
cache) — which is exactly the swap the yellow box in Fig. 2 depicts.
"""

from __future__ import annotations

import numpy as np

from repro.models.config import DLRMConfig
from repro.ops.activations import sigmoid
from repro.ops.interaction import DotInteraction
from repro.ops.mlp import MLP
from repro.ops.module import Module
from repro.utils.dtypes import default_dtype
from repro.utils.seeding import as_rng

__all__ = ["DLRM"]


class DLRM(Module):
    """Deep Learning Recommendation Model with pluggable embedding operators.

    Parameters
    ----------
    config:
        Architecture description (table sizes, tower widths).
    embeddings:
        One embedding operator per categorical feature; each must expose
        ``forward(indices, offsets, per_sample_weights) -> (B, emb_dim)``,
        ``backward(grad)`` and behave as a :class:`~repro.ops.module.Module`.
    """

    def __init__(self, config: DLRMConfig, embeddings: list,
                 rng: int | None | np.random.Generator = None):
        if len(embeddings) != config.num_tables:
            raise ValueError(
                f"expected {config.num_tables} embedding operators, got {len(embeddings)}"
            )
        rng = as_rng(rng)
        self.config = config
        self.bottom_mlp = MLP(config.bottom_sizes(), rng=rng, name="bottom")
        self.embeddings = list(embeddings)
        self.interaction = DotInteraction()
        self.top_mlp = MLP(config.top_sizes(), rng=rng, name="top")

    # ------------------------------------------------------------------ #

    def forward(self, dense: np.ndarray, sparse: list[tuple[np.ndarray, np.ndarray]],
                per_sample_weights: list[np.ndarray] | None = None) -> np.ndarray:
        """Compute logits for a batch.

        Parameters
        ----------
        dense:
            ``(B, num_dense)`` continuous features.
        sparse:
            One ``(indices, offsets)`` CSR pair per table, each describing
            ``B`` bags.
        per_sample_weights:
            Optional per-table weight arrays aligned with each ``indices``.

        Returns
        -------
        ``(B,)`` raw logits (apply sigmoid or feed to BCE-with-logits).
        """
        dense = np.asarray(dense, dtype=default_dtype())
        if len(sparse) != len(self.embeddings):
            raise ValueError(
                f"expected {len(self.embeddings)} sparse inputs, got {len(sparse)}"
            )
        x = self.bottom_mlp.forward(dense)
        pooled = []
        for t, (indices, offsets) in enumerate(sparse):
            w = per_sample_weights[t] if per_sample_weights is not None else None
            v = self.embeddings[t].forward(indices, offsets, w)
            if v.shape != x.shape:
                raise ValueError(
                    f"table {t} produced shape {v.shape}, expected {x.shape}; "
                    "bag count must equal the dense batch size"
                )
            pooled.append(v)
        z = self.interaction.forward(x, pooled)
        logits = self.top_mlp.forward(z)
        return logits.reshape(-1)

    def backward(self, grad_logits: np.ndarray) -> None:
        """Backprop a ``(B,)`` logit gradient through the whole model."""
        grad = np.asarray(grad_logits, dtype=default_dtype()).reshape(-1, 1)
        grad_z = self.top_mlp.backward(grad)
        grad_x, grad_sparse = self.interaction.backward(grad_z)
        self.bottom_mlp.backward(grad_x)
        for emb, g in zip(self.embeddings, grad_sparse):
            emb.backward(g)

    __call__ = forward

    # ------------------------------------------------------------------ #

    def embedding_parameters(self) -> int:
        """Scalar parameters held by the embedding operators."""
        return sum(e.num_parameters() for e in self.embeddings)

    def mlp_parameters(self) -> int:
        """Scalar parameters held by the two towers."""
        return self.bottom_mlp.num_parameters() + self.top_mlp.num_parameters()

    def predict_proba(self, dense: np.ndarray,
                      sparse: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
        """Click probabilities (sigmoid of logits) through the training
        ``forward``, which leaves each table's bag pending and steps a
        cached table's schedule; :class:`~repro.inference.Predictor` reads
        the same bytes without either."""
        return sigmoid(self.forward(dense, sparse))
