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

Sparse = list[tuple[np.ndarray, np.ndarray]]  # one CSR pair per table
Weights = list[np.ndarray] | None  # per-table per-index pooling weights


class DLRM(Module):
    """Deep Learning Recommendation Model with pluggable embedding operators.

    Parameters
    ----------
    config:
        Architecture description (table sizes, tower widths).
    embeddings:
        One embedding operator per categorical feature; each must expose
        ``forward(indices, offsets, per_sample_weights) -> (B, emb_dim)``,
        its reader twin ``lookup_bags`` with the same signature,
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
        # The towers' tape of the last forward, and whether backward spent it.
        self._tape: tuple | None = None
        self._spent = False

    # ------------------------------------------------------------------ #

    def forward(self, dense: np.ndarray, sparse: Sparse,
                per_sample_weights: Weights = None) -> np.ndarray:
        """``(B,)`` raw logits for ``(B, num_dense)`` dense features and one
        ``(indices, offsets)`` CSR pair of ``B`` bags per table, optionally
        weighted per index: each table's ``forward``, which keeps its bag
        for :meth:`backward` and steps a cached table's schedule, then the
        towers, whose tape the model keeps for :meth:`backward`."""
        logits, self._tape = self._towers(
            dense, self.pool("forward", dense, sparse, per_sample_weights))
        self._spent = False
        return logits

    def predict_logits(self, dense: np.ndarray, sparse: Sparse,
                       per_sample_weights: Weights = None) -> np.ndarray:
        """:meth:`forward`'s logits read through each table's
        ``lookup_bags``: no bag or tape is kept, so a pending
        :meth:`backward` is untouched, and a cached table's tracker,
        schedule and cache rows stay as training left them (its hit and
        miss counters still count what it serves). The same bytes as
        :meth:`forward` on every table the paper builds."""
        return self.logits_from_pooled(
            dense, self.pool("lookup_bags", dense, sparse, per_sample_weights))

    def pool(self, read: str, dense: np.ndarray, sparse: Sparse,
             per_sample_weights: Weights = None) -> list[np.ndarray]:
        """One ``(B, emb_dim)`` block per table from its ``read`` method
        (``"forward"`` or ``"lookup_bags"``), checking one CSR pair per
        table and one bag per dense row."""
        if len(sparse) != len(self.embeddings):
            raise ValueError(
                f"expected {len(self.embeddings)} sparse inputs, got {len(sparse)}"
            )
        expected = (len(dense), self.config.emb_dim)
        pooled = []
        for t, (emb, (indices, offsets)) in enumerate(zip(self.embeddings, sparse)):
            w = per_sample_weights[t] if per_sample_weights is not None else None
            v = getattr(emb, read)(indices, offsets, w)
            if v.shape != expected:
                raise ValueError(
                    f"table {t} produced shape {v.shape}, expected {expected}; "
                    "bag count must equal the dense batch size"
                )
            pooled.append(v)
        return pooled

    def logits_from_pooled(self, dense: np.ndarray,
                           pooled: list[np.ndarray]) -> np.ndarray:
        """The towers and interaction over one pooled block per table, a
        pure read that keeps nothing (the server calls it directly)."""
        return self._towers(dense, pooled)[0]

    def _towers(self, dense: np.ndarray,
                pooled: list[np.ndarray]) -> tuple[np.ndarray, tuple]:
        """``(logits, tape)``: the model's only tower arithmetic, and what
        each tower's ``backward`` reads."""
        x, bottom = self.bottom_mlp.forward(np.asarray(dense, dtype=default_dtype()))
        z, stacked = self.interaction.forward(x, pooled)
        y, top = self.top_mlp.forward(z)
        return y.reshape(-1), (bottom, stacked, top)

    def backward(self, grad_logits: np.ndarray) -> None:
        """Backprop a ``(B,)`` logit gradient through the whole model,
        consuming the last :meth:`forward`. Before any forward (a read keeps
        no tape) and on a second call it raises, touching no gradient."""
        if self._tape is None:
            raise RuntimeError("backward called before forward")
        if self._spent:
            raise RuntimeError("backward called twice for one forward; gradients "
                               "would double-accumulate — run forward again first")
        bottom, stacked, top = self._tape
        grad = np.asarray(grad_logits, dtype=default_dtype()).reshape(-1, 1)
        grad_z = self.top_mlp.backward(grad, top)
        grad_x, grad_sparse = self.interaction.backward(grad_z, stacked)
        self.bottom_mlp.backward(grad_x, bottom)
        for emb, g in zip(self.embeddings, grad_sparse):
            emb.backward(g)
        # Kept until the next forward replaces it: freeing the activations
        # here lets glibc trim the heap, and the next step faults it back in.
        self._spent = True

    # ------------------------------------------------------------------ #

    def embedding_parameters(self) -> int:
        """Scalar parameters held by the embedding operators."""
        return sum(e.num_parameters() for e in self.embeddings)

    def predict_proba(self, dense: np.ndarray, sparse: Sparse) -> np.ndarray:
        """Click probabilities (sigmoid of logits) through the training
        :meth:`forward`, which leaves each table's bag pending and steps a
        cached table's schedule; :meth:`predict_logits` reads the same
        bytes without either. Kept on ``forward`` as the training-path
        reference a read is checked against."""
        return sigmoid(self.forward(dense, sparse))
