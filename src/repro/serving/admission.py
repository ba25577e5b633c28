"""Admission control: validate, repair or reject inbound requests.

Nothing downstream of this layer ever sees a malformed input. The
sanitizer admits only what the model operators accept — int64 ids in
range, finite dense features of the right width — but, unlike the
operators, which *raise*, it repairs what can be repaired and rejects the
rest, because a production front door must answer every request with
something better than a stack trace:

- out-of-vocabulary categorical ids are **clamped** to the table edge,
  **hashed** onto a valid row (splitmix64, the same mixing hash
  :class:`repro.baselines.hashing.HashedEmbeddingBag` uses) or the request
  is **rejected**, per policy;
- non-finite dense features are always rejected — a NaN admitted here
  survives ReLU masking and would silently poison the score.

Every decision increments a per-reason counter in the shared metrics
registry (``serving.rejected{reason=...}``, ``serving.sanitized{action=...}``)
so shed/sanitized counts can be reconciled against a fault injector's
per-site counters (the ``serve-bench`` chaos proof).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cache.hashtable import splitmix64
from repro.telemetry import get_registry

__all__ = [
    "OOV_POLICIES",
    "REJECT_REASONS",
    "Request",
    "SanitizedRequest",
    "Rejection",
    "RequestSanitizer",
]

OOV_POLICIES = ("clamp", "hash", "reject")

_NO_IDS = np.empty(0, dtype=np.int64)
_INT64 = np.dtype(np.int64)

REJECT_REASONS = (
    "dense_shape",
    "dense_non_finite",
    "table_count",
    "ids_dtype",
    "oov",
)


@dataclass
class Request:
    """One scoring request: a user/context plus one bag per table.

    Attributes
    ----------
    dense:
        ``(num_dense,)`` continuous features.
    sparse:
        One entry per categorical table: a 1-D id array, a scalar id, or
        ``None`` for an empty bag.
    deadline_ms:
        Absolute deadline on the server clock (``None`` = use the queue's
        default relative deadline).
    request_id:
        Caller-chosen correlation id, echoed in the response.
    """

    dense: np.ndarray
    sparse: list
    deadline_ms: float | None = None
    request_id: int = 0


class SanitizedRequest:
    """An admitted request: canonical arrays, all invariants guaranteed.

    The ids are held once: ``ids``, every table's ids as one int64 array
    in table order, and ``counts``, the ``(num_tables,)`` bag sizes —
    what batching concatenates. ``values=`` (one id array per table)
    builds both; the ``values`` property hands them back per table, as
    views of ``ids``.
    """

    def __init__(self, dense: np.ndarray, values: list | None = None,
                 request_id: int = 0, deadline_ms: float | None = None,
                 repairs: tuple[str, ...] = (), arrival_ms: float = 0.0,
                 ids: np.ndarray | None = None,
                 counts: np.ndarray | None = None):
        if values is not None:
            counts = np.array([v.size for v in values], dtype=np.int64)
            ids = np.concatenate([_NO_IDS, *values])
        self.dense = dense                # (num_dense,) float64, finite
        self.ids = ids                    # int64, all in range
        self.counts = counts              # (num_tables,) int64
        self.request_id = request_id
        self.deadline_ms = deadline_ms
        self.repairs = repairs            # sanitizer actions applied, if any
        self.arrival_ms = arrival_ms      # stamped by the queue

    @property
    def values(self) -> list[np.ndarray]:
        """Per-table int64 ids, views of ``ids``."""
        ends = np.cumsum(self.counts).tolist()
        return [self.ids[lo:hi] for lo, hi in zip([0, *ends], ends)]


@dataclass
class Rejection:
    """A refused request, with the (counted) reason."""

    reason: str
    detail: str = ""
    request_id: int = 0


class RequestSanitizer:
    """Validate and repair requests against a model's input contract.

    Parameters
    ----------
    config:
        :class:`repro.models.config.DLRMConfig` naming the per-table
        cardinalities and dense width the model was built with.
    oov_policy:
        What to do with an out-of-vocabulary (negative or >= cardinality)
        id: ``"clamp"`` to the nearest valid row, ``"hash"`` onto a valid
        row via splitmix64, or ``"reject"`` the request.
    """

    def __init__(self, config, *, oov_policy: str = "clamp"):
        if oov_policy not in OOV_POLICIES:
            raise ValueError(
                f"oov_policy must be one of {OOV_POLICIES}, got {oov_policy!r}"
            )
        self.config = config
        self.oov_policy = oov_policy
        self._bounds = np.asarray(config.table_sizes, dtype=np.uint64)
        reg = get_registry()
        self._rejected = {
            reason: reg.counter("serving.rejected", reason=reason)
            for reason in REJECT_REASONS
        }
        self._sanitized = {
            action: reg.counter("serving.sanitized", action=action)
            for action in ("oov_clamped", "oov_hashed")
        }
        self._admitted = reg.counter("serving.admitted")

    # ------------------------------------------------------------------ #

    def stats(self) -> dict:
        return {
            "admitted": self._admitted.value,
            "rejected": {r: c.value for r, c in self._rejected.items()},
            "sanitized": {a: c.value for a, c in self._sanitized.items()},
        }

    def _reject(self, reason: str, detail: str, request_id: int) -> Rejection:
        self._rejected[reason].inc()
        return Rejection(reason=reason, detail=detail, request_id=request_id)

    # ------------------------------------------------------------------ #

    def _sanitize_ids(self, values, cardinality: int):
        """Return ``(int64 ids in range, actions) | None`` (None = reject)."""
        if values is None:
            return _NO_IDS, ()
        arr = np.atleast_1d(np.asarray(values)).reshape(-1)
        if not np.issubdtype(arr.dtype, np.integer):
            if not np.issubdtype(arr.dtype, np.floating):
                return None
            if not np.isfinite(arr).all() or (arr != np.floor(arr)).any():
                return None  # NaN ids or fractional ids are garbage, not typos
        arr = arr.astype(np.int64)
        oov = (arr < 0) | (arr >= cardinality)
        if not oov.any():
            return arr, ()
        if self.oov_policy == "reject":
            return None
        if self.oov_policy == "clamp":
            arr = np.clip(arr, 0, cardinality - 1)
            self._sanitized["oov_clamped"].inc(int(oov.sum()))
            return arr, ("oov_clamped",)
        hashed = (splitmix64(arr[oov]) % np.uint64(cardinality)).astype(np.int64)
        arr = arr.copy()
        arr[oov] = hashed
        self._sanitized["oov_hashed"].inc(int(oov.sum()))
        return arr, ("oov_hashed",)

    def sanitize(self, request: Request) -> SanitizedRequest | Rejection:
        """Admit one request, repairing or rejecting as policy dictates."""
        cfg = self.config
        rid = request.request_id
        dense = np.asarray(request.dense, dtype=np.float64).reshape(-1)
        if dense.shape[0] != cfg.num_dense:
            return self._reject(
                "dense_shape",
                f"expected {cfg.num_dense} dense features, got {dense.shape[0]}",
                rid,
            )
        if not np.isfinite(dense).all():
            return self._reject("dense_non_finite",
                                "dense features contain NaN/Inf", rid)
        if len(request.sparse) != cfg.num_tables:
            return self._reject(
                "table_count",
                f"expected {cfg.num_tables} sparse entries, "
                f"got {len(request.sparse)}",
                rid,
            )
        clean = self._clean_ids(request.sparse)
        repairs: list[str] = []
        if clean is not None:
            ids, counts = clean
            values = None
        else:
            ids = counts = None  # SanitizedRequest joins the repaired values
            values = []
            for t, entry in enumerate(request.sparse):
                out = self._sanitize_ids(entry, cfg.table_sizes[t])
                if out is None:
                    reason = "oov" if self.oov_policy == "reject" else "ids_dtype"
                    return self._reject(
                        reason, f"table {t}: unusable categorical ids", rid
                    )
                table_ids, actions = out
                values.append(table_ids)
                repairs.extend(actions)
        self._admitted.inc()
        return SanitizedRequest(
            dense=dense, values=values, request_id=rid,
            deadline_ms=request.deadline_ms, repairs=tuple(dict.fromkeys(repairs)),
            ids=ids, counts=counts,
        )

    def _clean_ids(self, sparse: list):
        """A whole request's ids in one pass: ``(ids, counts)`` in table
        order when every entry is ``None``, an integer or an integer array
        and every id is in range — nothing to repair, reject or count.
        ``None`` otherwise, and the per-table loop decides.

        A request of 1-D native ``int64`` arrays (what the data pipeline
        and the load generator send) is concatenated as it stands, with
        no NumPy call per table; any other goes through ``_as_int64``.
        """
        if all(type(entry) is np.ndarray and entry.ndim == 1
               and entry.dtype == _INT64 for entry in sparse):
            parts = sparse
        else:
            parts = self._as_int64(sparse)
            if parts is None:
                return None
        counts = np.fromiter(map(len, parts), dtype=np.int64, count=len(parts))
        ids = np.concatenate(parts)
        # As unsigned, a negative id reads as >= 2**63: one compare
        # catches both ends of the range.
        if not (ids.view(np.uint64) < np.repeat(self._bounds, counts)).all():
            return None
        return ids, counts

    @staticmethod
    def _as_int64(sparse: list) -> list[np.ndarray] | None:
        """Each entry as a 1-D int64 array, or ``None`` when one is not
        ``None``, an integer or an integer array."""
        parts = []
        for entry in sparse:
            if entry is None:
                parts.append(_NO_IDS)
                continue
            arr = np.asarray(entry)
            if arr.dtype.kind not in "iu":
                return None
            # Cast per entry: concatenating int64 with uint64 promotes
            # the lot to float64.
            parts.append(arr.reshape(-1).astype(np.int64, copy=False))
        return parts
