"""The embedding-bag contract and the dense table that is its reference.

Mirrors ``torch.nn.EmbeddingBag``: a ``num_rows x dim`` table queried with
CSR-style ``(indices, offsets)`` bags, pooled by sum or mean, with optional
per-sample weights (the alpha_i of paper Eq. 6).
:class:`CompressedEmbedding` owns that bag once — validation, pooling, the
re-entrancy guard, un-pooling, memory accounting and serialisation — and
every operator in the repo (dense, TT, cached TT, T3nsor, tensor-ring,
hashing, low-rank, quantized, DPQ, ALPT) subclasses it and supplies only
its rows: how to materialise them and where their gradients go. Three
entry points read a table: ``forward`` (a training step: remembers the bag
for ``backward`` and drives whatever schedule the operator keeps),
``lookup_bags`` (the same pooled output for a server: nothing remembered,
recorded or refreshed) and ``lookup`` (plain rows, no pooling).
:class:`EmbeddingBag` is the uncompressed DLRM baseline.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from repro.ops.module import Module, Parameter, coalesce_rows, load_state_dict, state_dict
from repro.utils.dtypes import default_dtype
from repro.utils.seeding import as_rng
from repro.utils.validation import check_1d_int_array, check_csr

__all__ = ["CompressedEmbedding", "EmbeddingBag", "segment_sum", "check_bag",
           "pool_bags", "unpool_grads", "lookup_tables"]


def segment_sum(rows: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Sum contiguous row segments delimited by ``offsets``.

    ``rows`` has shape ``(n, d)``; ``offsets`` has shape ``(m+1,)`` with
    ``offsets[0] == 0`` and ``offsets[-1] == n``. Returns ``(m, d)``.
    Empty segments produce zero rows. Each non-empty segment is reduced
    over its own rows alone (``np.add.reduceat``), so a segment's bytes do
    not depend on the segments around it: a bag pools to the same bytes
    alone as inside any batch, and a one-row bag to its row exactly.
    """
    starts = offsets[:-1]
    filled = starts < offsets[1:]
    if starts.size and filled.all():
        return np.add.reduceat(rows, starts, axis=0)
    # reduceat reads an empty segment as the one row at its start: reduce
    # the non-empty ones only and leave the rest at zero.
    out = np.zeros((starts.size, rows.shape[1]), dtype=rows.dtype)
    if filled.any():
        out[filled] = np.add.reduceat(rows, starts[filled], axis=0)
    return out


def check_bag(indices, offsets, per_sample_weights, num_rows: int,
              dtype: np.dtype):
    """Validate one bag batch; returns ``(indices, offsets, alpha)``.

    With ``offsets=None`` each index is its own bag. Ids must be an
    integer array inside ``[0, num_rows)`` — a float id raises
    ``TypeError`` and an out-of-range one :class:`~repro.utils.validation.
    IndexOutOfRangeError`, never a silent truncation or wrap-around.
    Weights are cast to ``dtype`` and must match ``indices`` in length.
    """
    indices = np.asarray(indices)
    if offsets is None:
        offsets = np.arange(indices.size + 1, dtype=np.int64)
    indices, offsets = check_csr(indices, offsets, num_rows)
    if per_sample_weights is None:
        return indices, offsets, None
    alpha = np.asarray(per_sample_weights, dtype=dtype).reshape(-1)
    if alpha.shape[0] != indices.shape[0]:
        raise ValueError(
            f"per_sample_weights length {alpha.shape[0]} != "
            f"len(indices) {indices.shape[0]}"
        )
    return indices, offsets, alpha


def _mean_scale(counts: np.ndarray, dtype: np.dtype) -> np.ndarray:
    return np.asarray(np.where(counts > 0, counts, 1), dtype=dtype)[:, None]


def pool_bags(rows: np.ndarray, offsets: np.ndarray,
              alpha: np.ndarray | None, mode: str):
    """Eq. 6-7 pooling: ``(n, d)`` rows -> ``((bags, d) pooled, bag sizes)``.

    Weights first, then each bag's sum over its own rows
    (:func:`segment_sum`), then the mean divide — the order is part of the
    contract (outputs are compared bit for bit). A bag's bytes depend on
    its rows alone, never on the bags pooled beside it.
    """
    out = segment_sum(rows if alpha is None else rows * alpha[:, None], offsets)
    counts = np.diff(offsets)
    if mode == "mean":
        out = out / _mean_scale(counts, out.dtype)
    return out, counts


def unpool_grads(grad_out: np.ndarray, counts: np.ndarray,
                 alpha: np.ndarray | None, mode: str) -> np.ndarray:
    """Adjoint of :func:`pool_bags`: bag gradients ``(bags, d)`` -> one
    gradient per looked-up row ``(n, d)``."""
    if mode == "mean":
        grad_out = grad_out / _mean_scale(counts, grad_out.dtype)
    grad_rows = grad_out[np.repeat(np.arange(len(counts)), counts)]
    return grad_rows if alpha is None else grad_rows * alpha[:, None]


def lookup_tables(embs: list, tables: list) -> tuple[np.ndarray, dict]:
    """Every table's ``lookup_bags`` in one pass: ``(block, failed)``.

    ``tables[t]`` is ``(indices, offsets)`` for ``embs[t]``; every table
    holds the same ``B`` bags and every operator has the same ``dim``.
    The ids of all tables are validated in one vector pass, each operator
    materialises its rows (``_read_rows``) and all ``T x B`` bags pool in
    one :func:`pool_bags` call into ``block``, ``(T, B, dim)``. Since a
    bag pools from its own rows alone, ``block[t]`` is
    ``embs[t].lookup_bags(*tables[t])`` byte for byte. An operator that
    pools in its own space (low-rank) or stores another dtype is read
    through its own ``lookup_bags`` into its slice (at the block's dtype).

    A table whose ids fail validation, or whose read raises, is left at
    zero in ``block``; ``failed`` maps it to the exception its
    ``lookup_bags`` would have raised.
    """
    failed: dict[int, Exception] = {}
    if not tables:
        return np.zeros((0, 0, 0), dtype=default_dtype()), failed
    offsets = np.asarray([off for _, off in tables])
    if (offsets.ndim != 2 or offsets.shape[1] < 1
            or not np.issubdtype(offsets.dtype, np.integer)):
        raise ValueError("every table needs integer offsets over the same bags")
    dims = {emb.dim for emb in embs}
    if len(dims) > 1:
        raise ValueError(f"tables of different widths {sorted(dims)} cannot share a block")
    dtype = np.result_type(*(emb.dtype for emb in embs))
    num_bags = offsets.shape[1] - 1
    block = np.zeros((len(tables), num_bags, dims.pop()), dtype=dtype)

    ids = [np.asarray(indices) for indices, _ in tables]
    sizes = np.array([i.size for i in ids])
    # One vector pass accepts the common case: int64 ids inside every
    # table's range and well-formed offsets. Only a table it flags is
    # walked again, through check_csr, for the exception to report.
    suspect = ~((offsets[:, 0] == 0) & (offsets[:, -1] == sizes)
                & (offsets[:, 1:] >= offsets[:, :-1]).all(axis=1))
    for t, i in enumerate(ids):
        suspect[t] |= i.ndim != 1 or i.dtype != np.int64
    clean = np.flatnonzero(~suspect)
    if clean.size:
        flat = np.concatenate([ids[t] for t in clean])
        limit = np.repeat([embs[t].num_rows for t in clean], sizes[clean])
        bad = (flat < 0) | (flat >= limit)
        if bad.any():
            suspect[np.unique(np.repeat(clean, sizes[clean])[bad])] = True
    offsets = offsets.astype(np.int64, copy=False)
    for t in np.flatnonzero(suspect):
        try:
            ids[t], _ = check_csr(ids[t], offsets[t], embs[t].num_rows)
        except Exception as exc:  # noqa: BLE001 - reported per table
            failed[int(t)] = exc

    joined, rows = [], []
    for t, emb in enumerate(embs):
        if t in failed:
            continue
        try:
            if type(emb)._pool is not CompressedEmbedding._pool or emb.dtype != dtype:
                block[t] = emb.lookup_bags(ids[t], offsets[t])
                continue
            rows.append(emb._read_rows(ids[t]))
        except Exception as exc:  # noqa: BLE001 - reported per table
            failed[t] = exc
            continue
        joined.append(t)
    if joined:
        counts = np.diff(offsets[joined], axis=1)
        flat_offsets = np.zeros(counts.size + 1, dtype=np.int64)
        np.cumsum(counts, out=flat_offsets[1:])
        pooled = pool_bags(np.concatenate(rows), flat_offsets, None, "sum")[0]
        pooled = pooled.reshape(len(joined), num_bags, -1)
        for j, t in enumerate(joined):
            if embs[t].mode == "mean":
                pooled[j] /= _mean_scale(counts[j], dtype)
        block[joined] = pooled
    return block, failed


class CompressedEmbedding(Module):
    """Base class of every embedding-bag operator (see module docstring).

    The public surface is written here, once: ``forward`` validates,
    asks the operator for rows, pools and remembers the bag; ``backward``
    guards, un-pools and hands the operator per-row gradients;
    ``lookup_bags`` is ``forward`` for a reader — validate, rows, pool,
    return — and ``lookup`` validates and gathers; neither touches what a
    pending backward or a training schedule keeps. Subclasses implement
    the hooks:

    - ``_rows(indices) -> (n, dim)`` — *pure* row materialisation
      (``lookup`` runs between a forward and its backward, so it must not
      disturb what the backward needs);
    - ``_read_rows(indices)`` — the rows ``lookup_bags`` pools: what
      ``forward`` would pool, materialised as purely as ``_rows`` (its
      default). Low-rank returns factor-space rows, cached TT counts the
      hits and misses it serves;
    - ``_forward_rows(indices) -> (rows, saved)`` — the forward's rows plus
      whatever its backward wants back; defaults to
      ``(_read_rows(indices), None)``;
    - ``_backward_rows(indices, grad_rows, saved)`` — accumulate parameter
      gradients from the ``(n, dim)`` per-row gradients (a sparse
      parameter's as a coalesced pair, :meth:`Parameter.accumulate`);
    - ``_pool(rows, offsets, alpha) -> (out, kept)`` /
      ``_unpool(grad_out, kept, alpha)`` — the pooling step and its
      adjoint, for an operator that pools in another space (low-rank) or
      times it (TT); ``kept`` is what the adjoint wants back (the bag
      sizes, by default) and ``_pool`` itself stores nothing;
    - ``extra_state`` / ``load_extra_state``, ``_extra_arrays``,
      ``scrub`` — where the defaults below do not fit.

    ``indices`` reaching a hook are already validated ``int64``.
    """

    #: False for inference-only members (post-training quantization).
    supports_gradient: bool = True

    def __init__(self, num_rows: int, dim: int, mode: str = "sum"):
        if num_rows <= 0 or dim <= 0:
            raise ValueError(f"num_rows and dim must be positive, got {num_rows}, {dim}")
        if mode not in ("sum", "mean"):
            raise ValueError(f"mode must be 'sum' or 'mean', got {mode!r}")
        self.num_rows = num_rows
        self.dim = dim
        self.mode = mode
        # (indices, kept, alpha, saved) of the forward awaiting backward.
        self._bag: tuple | None = None
        self._spent = False

    # ------------------------------------------------------------------ #
    # The bag: forward / backward / lookup_bags / lookup
    # ------------------------------------------------------------------ #

    def forward(self, indices: np.ndarray, offsets: np.ndarray | None = None,
                per_sample_weights: np.ndarray | None = None) -> np.ndarray:
        """Pooled lookup. With ``offsets=None`` each index is its own bag."""
        indices, offsets, alpha = check_bag(indices, offsets, per_sample_weights,
                                            self.num_rows, self.dtype)
        rows, saved = self._forward_rows(indices)
        out, kept = self._pool(rows, offsets, alpha)
        self._bag = (indices, kept, alpha, saved)
        return out

    __call__ = forward

    def lookup_bags(self, indices: np.ndarray, offsets: np.ndarray | None = None,
                    per_sample_weights: np.ndarray | None = None) -> np.ndarray:
        """``forward``'s pooled output for a caller that will never call
        ``backward`` (``Predictor``, the serving ladders): same validation,
        same pooling, nothing remembered.

        Leaves a pending forward's backward, the LFU tracker and the cache
        refresh schedule exactly as they were; a cached operator still
        counts the hits and misses it serves. A TT-family read (TT, cached
        TT, tensor ring) contracts each distinct row once, through the
        training forward's chain. Equal to ``forward`` bit for bit.
        """
        indices, offsets, alpha = check_bag(indices, offsets, per_sample_weights,
                                            self.num_rows, self.dtype)
        return self._pool(self._read_rows(indices), offsets, alpha)[0]

    def backward(self, grad_out: np.ndarray) -> None:
        """Accumulate parameter gradients for the last ``forward``.

        Consumes that forward: ``backward`` before any forward raises, and
        a second ``backward`` for the same forward raises instead of
        silently double-accumulating gradients. Bags carry no input grad.
        """
        if not self.supports_gradient:
            raise NotImplementedError(
                f"{type(self).__name__} is inference-only; "
                "train an uncompressed table and convert it post-training"
            )
        if self._bag is None:
            if self._spent:
                raise RuntimeError(
                    "backward called twice for one forward; gradients would "
                    "double-accumulate — run forward again first"
                )
            raise RuntimeError("backward called before forward")
        indices, kept, alpha, saved = self._bag
        grad_rows = self._unpool(np.asarray(grad_out, dtype=self.dtype),
                                 kept, alpha)
        self._backward_rows(indices, grad_rows, saved)
        self._bag = None
        self._spent = True

    def lookup(self, indices: np.ndarray) -> np.ndarray:
        """Plain (non-pooled) row gather; the reference for ``forward``.

        Indices are validated against ``num_rows`` — a float, negative or
        out-of-range id raises instead of truncating, wrapping around or
        reading a padded row. Callers that want clamp-or-hash semantics
        for out-of-vocabulary ids must go through
        :class:`repro.serving.RequestSanitizer`; the table never guesses.
        Touches no tracker, statistic or pending-backward state.
        """
        return self._rows(check_1d_int_array(
            "indices", np.asarray(indices).reshape(-1),
            min_value=0, max_value=self.num_rows - 1))

    def _rows(self, indices: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _read_rows(self, indices: np.ndarray) -> np.ndarray:
        return self._rows(indices)

    def _forward_rows(self, indices: np.ndarray):
        return self._read_rows(indices), None

    def _backward_rows(self, indices: np.ndarray, grad_rows: np.ndarray,
                       saved) -> None:
        raise NotImplementedError

    def _pool(self, rows, offsets, alpha):
        return pool_bags(rows, offsets, alpha, self.mode)

    def _unpool(self, grad_out, kept, alpha):
        return unpool_grads(grad_out, kept, alpha, self.mode)

    # ------------------------------------------------------------------ #
    # Memory accounting
    # ------------------------------------------------------------------ #

    @cached_property
    def dtype(self) -> np.dtype:
        """The single floating dtype of the stored rows (and every output);
        fixed at construction, since parameters are only updated in place."""
        params = self.parameters()
        return params[0].data.dtype if params else default_dtype()

    def _extra_arrays(self) -> list[np.ndarray]:
        """Non-parameter arrays that count toward ``memory_bytes``."""
        return []

    def memory_bytes(self) -> int:
        """Actual bytes stored: parameters + code/scale side arrays."""
        return int(sum(p.data.nbytes for p in self.parameters())
                   + sum(a.nbytes for a in self._extra_arrays()))

    def dense_bytes(self) -> int:
        """Bytes an uncompressed table would take at this dtype."""
        return int(self.num_rows) * int(self.dim) * self.dtype.itemsize

    def compression_ratio(self) -> float:
        """Dense bytes over stored bytes (for an all-parameter operator,
        the paper's Table 2 parameter ratio)."""
        return self.dense_bytes() / self.memory_bytes()

    # ------------------------------------------------------------------ #
    # Serving hooks
    # ------------------------------------------------------------------ #

    def scrub(self) -> int:
        """Repair non-finite derived state in place; returns rows repaired."""
        return 0

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #

    def extra_state(self) -> dict:
        """Non-parameter state a serialiser must carry (arrays or JSON
        scalars). Read by :meth:`state_dict` and, per module, by
        :class:`repro.reliability.checkpoint.CheckpointManager`."""
        return {}

    def load_extra_state(self, state: dict) -> None:
        """Inverse of :meth:`extra_state`."""
        if state:
            raise KeyError(f"unexpected extra state {sorted(state)}")

    def state_dict(self) -> dict[str, np.ndarray]:
        """Bit-exact snapshot: :func:`repro.ops.module.state_dict`'s
        parameter keys, then ``"extra:<key>"`` per :meth:`extra_state`."""
        out = state_dict(self)
        for key, value in self.extra_state().items():
            out[f"extra:{key}"] = np.asarray(value).copy()
        return out

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Inverse of :meth:`state_dict`; rejects missing/unknown keys."""
        params = {key: value for key, value in state.items()
                  if not key.startswith("extra:")}
        load_state_dict(self, params)
        extra = {key[len("extra:"):]: value for key, value in state.items()
                 if key not in params}
        if extra:
            self.load_extra_state(extra)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"{type(self).__name__}({self.num_rows}x{self.dim}, "
                f"{self.mode}, {self.memory_bytes():,} B)")


class EmbeddingBag(CompressedEmbedding):
    """Uncompressed embedding table with bag pooling.

    Parameters
    ----------
    num_rows, dim:
        Table shape.
    mode:
        ``"sum"`` or ``"mean"`` pooling across each bag.
    initializer:
        Callable ``(rng, shape) -> np.ndarray`` or ``None`` for the DLRM
        default ``Uniform(-1/sqrt(num_rows), 1/sqrt(num_rows))``.

    Note: DLRM initializes embedding tables with ``Uniform(±1/sqrt(M))``
    where ``M`` is the *row count*; Table 1 of the paper sweeps Gaussian
    alternatives parameterized by the same ``n``.
    """

    def __init__(self, num_rows: int, dim: int, *, mode: str = "sum",
                 initializer=None, rng: int | None | np.random.Generator = None,
                 name: str = "emb"):
        super().__init__(num_rows, dim, mode)
        rng = as_rng(rng)
        if initializer is None:
            bound = 1.0 / np.sqrt(num_rows)
            data = rng.uniform(-bound, bound, size=(num_rows, dim))
        else:
            data = initializer(rng, (num_rows, dim))
        self.weight = Parameter(data, name=f"{name}.weight", sparse=True)

    def _rows(self, indices):
        return self.weight.data[indices]

    def _backward_rows(self, indices, grad_rows, saved):
        self.weight.accumulate(*coalesce_rows(indices, grad_rows))
