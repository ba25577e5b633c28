"""Serving-side wrapper over a trained DLRM.

``Predictor`` freezes a model for inference:

- it reads through ``lookup_bags``: no bag is remembered for a
  backward, no gradient is touched, and a cached table's tracker and
  refresh schedule stay as training left them;
- optionally the remaining *dense* tables are post-training quantized
  (Guan et al. 2019 style) to shrink the serving footprint further;
- ``predict_batch`` applies a stable sigmoid; ``rank_candidates`` scores
  one user context against many candidate items and returns the top-k —
  the ranking stage of a production recommender.
"""

from __future__ import annotations

import warnings

import numpy as np

from repro.data.batching import Batch, make_offsets
from repro.models.dlrm import DLRM
from repro.ops.activations import sigmoid
from repro.utils.dtypes import default_dtype
from repro.utils.validation import check_1d_int_array

__all__ = ["Predictor", "rank_candidates"]


class Predictor:
    """Inference-only view of a trained DLRM.

    Parameters
    ----------
    model:
        The trained model. It is used in place (not copied) unless
        quantization replaces some of its embedding operators — in which
        case the replaced operators are new, but the original model object
        is left untouched.
    quantize_dense_bits:
        If set, every dense :class:`EmbeddingBag` table is replaced by a
        post-training quantized copy at this bit width (TT tables stay TT —
        they are already 100x smaller than dense).
    """

    def __init__(self, model: DLRM, *, quantize_dense_bits: int | None = None):
        self.config = model.config
        self.quantization_report: list[tuple[int, str, str]] = []
        if quantize_dense_bits is None:
            self._embeddings = list(model.embeddings)
        else:
            self._embeddings = [
                self._maybe_quantize(t, e, quantize_dense_bits)
                for t, e in enumerate(model.embeddings)
            ]
        # Towers and interaction are shared (read-only use).
        self._bottom = model.bottom_mlp
        self._top = model.top_mlp
        self._interaction = model.interaction

    def _maybe_quantize(self, table: int, emb, bits: int):
        """Quantize one embedding operator, or explain why it is skipped.

        The rule is the operator's own
        (:meth:`~repro.ops.embedding.CompressedEmbedding.quantized`), so a
        mixed model (hashed or low-rank baselines alongside dense and TT
        tables) cannot silently overstate its serving-footprint reduction:
        anything left at full precision without a principled reason raises
        a ``RuntimeWarning`` and shows up in ``quantization_report``.
        """
        served, status = emb.quantized(bits)
        kind = type(emb).__name__
        self.quantization_report.append((table, kind, status))
        if status == "skipped":
            warnings.warn(
                f"table {table}: " + emb.quantize_skip_note.format(kind=kind),
                RuntimeWarning, stacklevel=3,
            )
        return served

    @property
    def embeddings(self) -> list:
        """The serving-side embedding operators (read-only list copy)."""
        return list(self._embeddings)

    def serving_parameters(self) -> int:
        """fp32-equivalent parameter count of the serving model."""
        total = self._bottom.num_parameters() + self._top.num_parameters()
        total += sum(e.num_parameters() for e in self._embeddings)
        return total

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

    def predict_proba(self, dense: np.ndarray,
                      sparse: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
        return sigmoid(self.predict_logits(dense, sparse))


def rank_candidates(predictor: Predictor, *, user_dense: np.ndarray,
                    user_sparse: list[int | None], candidate_table: int,
                    candidate_ids: np.ndarray, top_k: int = 10
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Score one user context against candidate items; return the top-k.

    Parameters
    ----------
    user_dense:
        ``(num_dense,)`` continuous features of the user/context.
    user_sparse:
        One categorical value per table (``None`` for an empty bag),
        *except* the candidate table, whose value is swept.
    candidate_table:
        Index of the table holding the item being ranked.
    candidate_ids:
        Item ids to score.
    top_k:
        How many winners to return.

    Returns
    -------
    ``(top_ids, top_probs)`` sorted by descending probability.
    """
    candidate_ids = np.asarray(candidate_ids).reshape(-1)
    n = candidate_ids.size
    if n == 0:
        raise ValueError("no candidates to rank")
    cfg = predictor.config
    if not (0 <= candidate_table < cfg.num_tables):
        raise ValueError(f"candidate_table {candidate_table} out of range")
    if len(user_sparse) != cfg.num_tables:
        raise ValueError(
            f"user_sparse must have {cfg.num_tables} entries, got {len(user_sparse)}"
        )
    # A bad id must error here, not score garbage: every id is checked
    # against its table's cardinality before any table is touched.
    candidate_ids = check_1d_int_array(
        "candidate_ids", candidate_ids,
        min_value=0, max_value=cfg.table_sizes[candidate_table] - 1,
    )
    for t, value in enumerate(user_sparse):
        if t == candidate_table or value is None:
            continue
        if not (0 <= int(value) < cfg.table_sizes[t]):
            raise IndexError(
                f"user_sparse[{t}] = {value} out of range for table of "
                f"{cfg.table_sizes[t]} rows"
            )
    user_dense = np.asarray(user_dense, dtype=np.float64).reshape(-1)
    if user_dense.shape[0] != cfg.num_dense:
        raise ValueError(
            f"user_dense must have {cfg.num_dense} features, got {user_dense.shape[0]}"
        )
    dense = np.broadcast_to(user_dense, (n, cfg.num_dense)).copy()
    sparse = []
    ones = np.ones(n, dtype=np.int64)
    for t in range(cfg.num_tables):
        if t == candidate_table:
            sparse.append((candidate_ids, make_offsets(ones)))
        elif user_sparse[t] is None:
            sparse.append((np.empty(0, dtype=np.int64),
                           np.zeros(n + 1, dtype=np.int64)))
        else:
            value = int(user_sparse[t])
            sparse.append((np.full(n, value, dtype=np.int64), make_offsets(ones)))
    probs = predictor.predict_proba(dense, sparse)
    top_k = min(top_k, n)
    order = np.argsort(-probs, kind="stable")[:top_k]
    return candidate_ids[order], probs[order]
