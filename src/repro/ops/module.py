"""Parameter and Module base classes for the manual-backprop substrate,
the coalesced ``(rows, values)`` pair a sparse parameter's gradient is,
and the one owner of a model's parameter state: :func:`walk` is the only
traversal of the attribute graph, and :func:`parameter_keys` the only
writer of the ``<position>:<name>`` key that :func:`state_dict`,
:func:`load_state_dict`, every operator's ``state_dict()`` and the
checkpoints address a parameter by."""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from repro.telemetry import trace
from repro.utils.dtypes import default_dtype

__all__ = ["Parameter", "Module", "SparseGrad", "coalesce_rows", "sum_rows", "walk",
           "parameter_keys", "state_dict", "load_state_dict"]


class SparseGrad(NamedTuple):
    """A sparse parameter's gradient: sorted unique ``int64`` ``rows`` and
    one summed block per row, ``values[i]`` the gradient of
    ``data[rows[i]]``; every other row's gradient is zero. Pairs are never
    written in place, so one may be handed to several parameters."""

    rows: np.ndarray
    values: np.ndarray


def sum_rows(inverse: np.ndarray, vals: np.ndarray, m: int) -> np.ndarray:
    """``out[j] = sum(vals[s] for s where inverse[s] == j)``, shape
    ``(m, ...)``: one ``np.bincount`` over ``inverse * width + column``
    bins. Each bin sums from zero in input order, so the result is
    bit-identical to ``np.add.at`` into a zero buffer."""
    tail = vals.shape[1:]
    width = math.prod(tail)
    with trace("kernels.coalesce"):
        bins = (inverse.reshape(-1, 1) * width + np.arange(width)).reshape(-1)
        out = np.bincount(bins, weights=vals.reshape(-1), minlength=m * width)
    return out.astype(vals.dtype, copy=False).reshape(m, *tail)


def coalesce_rows(rows: np.ndarray, vals: np.ndarray) -> SparseGrad:
    """Per-sample ``(rows, vals)`` -> the coalesced pair: sorted unique rows
    and, per row, its samples' ``vals`` summed in input order (see
    :func:`sum_rows`). ``rows`` is ``(n,)`` int, ``vals`` ``(n, ...)``."""
    rows = np.asarray(rows, dtype=np.int64)
    if rows.shape[0] != vals.shape[0]:
        raise ValueError(f"rows ({rows.shape[0]}) and vals ({vals.shape[0]}) disagree")
    uniq, inverse = np.unique(rows, return_inverse=True)
    return SparseGrad(uniq, sum_rows(inverse, vals, uniq.size))


class Parameter:
    """A trainable array and the gradient backward accumulates for it.

    Attributes
    ----------
    data : np.ndarray
        The parameter value, updated in place by optimizers.
    grad : np.ndarray | SparseGrad | None
        Accumulated gradient of the loss w.r.t. ``data``. Dense parameters
        keep a ``data``-shaped buffer that layers *add* into. A sparse
        parameter (embedding rows, cache rows, TT cores) holds the
        coalesced :class:`SparseGrad` its backward built, ``None`` until
        one does: optimizers step over those rows only, and no pair means
        no work.
    name : str
        Human-readable identifier used in optimizer state and error messages.
    sparse : bool
        Whether ``grad`` is a pair rather than a buffer.
    """

    def __init__(self, data: np.ndarray, *, name: str = "param", sparse: bool = False,
                 dtype: np.dtype | None = None):
        self.data = np.ascontiguousarray(
            data, dtype=default_dtype() if dtype is None else np.dtype(dtype)
        )
        self.name = name
        self.sparse = sparse
        self.grad = None if sparse else np.zeros_like(self.data)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return int(self.data.size)

    def zero_grad(self) -> None:
        """Zero the gradient buffer, or drop a sparse parameter's pair."""
        if self.sparse:
            self.grad = None
        else:
            self.grad.fill(0.0)

    def accumulate(self, rows: np.ndarray, values: np.ndarray) -> None:
        """Add a coalesced pair (sorted unique ``int64`` rows, one block per
        row) to this sparse parameter's gradient. An empty pair is no
        gradient; a second pair is merged with :func:`coalesce_rows`, the
        held values first."""
        if values.shape != (rows.size, *self.data.shape[1:]):
            raise ValueError(f"{self.name}: a pair of {rows.size} rows cannot "
                             f"carry values of shape {values.shape}")
        if not rows.size:
            return
        if self.grad is not None:
            rows, values = coalesce_rows(np.concatenate([self.grad.rows, rows]),
                                         np.concatenate([self.grad.values, values]))
        self.grad = SparseGrad(rows, values)

    def dense_grad(self) -> np.ndarray:
        """The gradient as a ``data``-shaped array, for whole-table readers:
        ``grad`` itself when dense, a fresh scatter of the pair when sparse."""
        if not self.sparse:
            return self.grad
        out = np.zeros_like(self.data)
        if self.grad is not None:
            out[self.grad.rows] = self.grad.values
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Parameter(name={self.name!r}, shape={self.data.shape}, sparse={self.sparse})"


class Module:
    """Base class providing parameter discovery and grad reset.

    Subclasses assign :class:`Parameter` instances and sub-``Module``s as
    attributes (directly or in a list/tuple); :func:`walk` visits them and
    :meth:`parameters` keeps the parameters, each exactly once.
    """

    def parameters(self) -> list[Parameter]:
        return [node for _, node in walk(self) if isinstance(node, Parameter)]

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def num_parameters(self) -> int:
        """Total number of scalar parameters in this module tree."""
        return sum(p.size for p in self.parameters())

    def bytes(self, dtype_bytes: int = 4) -> int:
        """Model size in bytes assuming ``dtype_bytes`` per element.

        The paper reports sizes for fp32 tables, hence the default of 4
        even though this NumPy implementation trains in float64 under the
        default :func:`repro.utils.dtypes.default_dtype` policy.
        """
        return self.num_parameters() * dtype_bytes


def walk(module: Module) -> list[tuple[str, Module | Parameter]]:
    """The attribute graph, depth-first: ``(path, node)`` for the root
    (path ``""``), then per attribute in assignment order each
    :class:`Parameter` or sub-:class:`Module` (recursively), a list or
    tuple's items addressed ``attr.<j>``. An object reached twice is
    listed once, at its first path."""
    out: list[tuple[str, Module | Parameter]] = []
    seen: set[int] = set()

    def visit(node, path: str) -> None:
        if id(node) in seen:
            return
        seen.add(id(node))
        out.append((path, node))
        if isinstance(node, Parameter):
            return
        for attr, value in vars(node).items():
            if isinstance(value, (Module, Parameter)):
                visit(value, f"{path}.{attr}" if path else attr)
            elif isinstance(value, (list, tuple)):
                for j, item in enumerate(value):
                    if isinstance(item, (Module, Parameter)):
                        visit(item, f"{path}.{attr}.{j}" if path else f"{attr}.{j}")

    visit(module, "")
    return out


def parameter_keys(model: Module) -> list[str]:
    """Checkpoint key of every parameter, in :meth:`Module.parameters`
    order: ``<position>:<name>``. The position keeps keys unique when two
    layers share a default name (several ``emb.weight`` tables) and is the
    index shard checkpoints and optimizer slots address a parameter by;
    the name keeps a checkpoint readable."""
    return [f"{i:04d}:{p.name}" for i, p in enumerate(model.parameters())]


def state_dict(model: Module) -> dict[str, np.ndarray]:
    """Key -> value map of every parameter (copies, detached from grads)."""
    return {key: p.data.copy()
            for key, p in zip(parameter_keys(model), model.parameters())}


def load_state_dict(model: Module, state: dict[str, np.ndarray], *,
                    strict: bool = True) -> list[str]:
    """Copy values into the model's parameters by checkpoint key.

    Returns the list of parameter keys that were *not* found in ``state``
    (empty under ``strict=True``, which raises instead).
    """
    params = dict(zip(parameter_keys(model), model.parameters()))
    missing = [key for key in params if key not in state]
    unexpected = [key for key in state if key not in params]
    if strict and (missing or unexpected):
        raise KeyError(
            f"state dict mismatch: missing={missing[:5]} unexpected={unexpected[:5]}"
        )
    for key, value in state.items():
        p = params.get(key)
        if p is None:
            continue
        value = np.asarray(value)
        if p.data.shape != value.shape:
            raise ValueError(
                f"shape mismatch for {key!r}: model {p.data.shape}, "
                f"checkpoint {value.shape}"
            )
        p.data[...] = value
    return missing
