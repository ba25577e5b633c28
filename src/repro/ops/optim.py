"""Optimizers for the manual-backprop substrate.

``SparseSGD`` is the MLPerf-DLRM reference's plain SGD (no momentum).
It, ``Adagrad`` and ``RowWiseAdagrad`` step over a sparse parameter's
coalesced ``(rows, values)`` pair, so an update costs O(rows touched)
instead of O(table size) — the same optimization PyTorch's sparse
embedding gradients provide — and a sparse parameter without a pair costs
nothing. ``Adagrad`` is included because industrial DLRM training commonly
uses it for embeddings.

Every optimizer is an :class:`Optimizer`: the base owns the parameter
list, learning-rate validation, ``zero_grad``, the per-parameter slots
``slots[i][name]`` (Adagrad's ``accum``), indexed by position in the
construction-time parameter order, and the one
``state_dict()``/``load_state_dict()``: hyperparameters first (including a
learning rate adjusted by the divergence guard), then each slot keyed
``<slot>.<param index>``. The subclasses keep only their update rules.
Restoring into a freshly built optimizer over a structurally identical
model reproduces the interrupted run bit-for-bit.
"""

from __future__ import annotations

import numpy as np

from repro.ops.module import Parameter

__all__ = ["Optimizer", "SparseSGD", "Adagrad", "RowWiseAdagrad"]


class Optimizer:
    """Parameters, hyperparameters and per-parameter slots.

    ``hyper`` names the float attributes ``state_dict()`` carries, in key
    order; ``slot_names`` the slots it files and ``load_state_dict()``
    accepts. A slot the loaded state lacks keeps its current value.
    """

    hyper: tuple[str, ...] = ("lr",)
    slot_names: tuple[str, ...] = ()

    def __init__(self, params: list[Parameter], lr: float):
        if lr <= 0:
            raise ValueError(f"lr must be > 0, got {lr}")
        self.params = list(params)
        self.lr = lr
        self.slots: list[dict[str, np.ndarray]] = [{} for _ in self.params]

    def step(self) -> None:
        raise NotImplementedError

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def state_dict(self) -> dict:
        """Hyperparameters, then copies of every parameter's slots in
        parameter order."""
        state: dict = {name: getattr(self, name) for name in self.hyper}
        for i, slots in enumerate(self.slots):
            for name, value in slots.items():
                state[f"{name}.{i}"] = value.copy()
        return state

    def load_state_dict(self, state: dict) -> None:
        for name in self.hyper:
            setattr(self, name, float(state[name]))
        for key, value in state.items():
            name, _, index = key.rpartition(".")
            if name in self.slot_names:
                i = int(index)
                self.slots[i][name] = np.array(value, dtype=self.params[i].data.dtype)


class SparseSGD(Optimizer):
    """SGD that updates only the rows of a sparse parameter's pair.

    Dense (non-``sparse``) parameters fall back to full updates. Momentum
    is deliberately unsupported: momentum on sparse rows requires decayed
    catch-up bookkeeping that neither DLRM nor TT-Rec use.
    """

    def step(self) -> None:
        for p in self.params:
            if not p.sparse:
                p.data -= self.lr * p.grad
            elif p.grad is not None:
                rows, g = p.grad
                # Rows are sorted and unique, so a pair as long as the
                # table covers every row in order: update it in place.
                if rows.size == p.data.shape[0]:
                    p.data -= self.lr * g
                else:
                    p.data[rows] -= self.lr * g


class Adagrad(Optimizer):
    """Adagrad with per-element accumulators; sparse-aware like SparseSGD.

    A sparse parameter whose accumulator has fewer axes than its data
    keeps one accumulator per row (:class:`RowWiseAdagrad`): the row's
    mean squared gradient accumulates there and scales the whole row.
    """

    hyper = ("lr", "eps")
    slot_names = ("accum",)

    def __init__(self, params: list[Parameter], lr: float, *, eps: float = 1e-10):
        super().__init__(params, lr)
        self.eps = eps
        for p, slots in zip(self.params, self.slots):
            slots["accum"] = self._accumulator(p)

    @staticmethod
    def _accumulator(p: Parameter) -> np.ndarray:
        return np.zeros_like(p.data)

    def step(self) -> None:
        for p, slots in zip(self.params, self.slots):
            acc = slots["accum"]
            if not p.sparse:
                acc += p.grad * p.grad
                p.data -= self.lr * p.grad / (np.sqrt(acc) + self.eps)
            elif p.grad is not None:
                rows, g = p.grad
                if acc.ndim < g.ndim:
                    acc[rows] += (g.reshape(g.shape[0], -1) ** 2).mean(axis=1)
                    denom = (np.sqrt(acc[rows]) + self.eps).reshape(
                        -1, *([1] * (g.ndim - 1)))
                else:
                    acc[rows] += g * g
                    denom = np.sqrt(acc[rows]) + self.eps
                p.data[rows] -= self.lr * g / denom


class RowWiseAdagrad(Adagrad):
    """Row-wise Adagrad — the de-facto industrial DLRM embedding optimizer.

    Keeps *one* accumulator per embedding row (the mean of the row's
    squared gradients) instead of one per element, cutting optimizer state
    for a ``rows x dim`` table from ``rows*dim`` to ``rows`` floats — the
    variant FBGEMM/torchrec call ``ROWWISE_ADAGRAD``. Non-2D or dense
    parameters fall back to element-wise Adagrad behaviour, a non-2D
    sparse one over its pair's entries only.
    """

    @staticmethod
    def _accumulator(p: Parameter) -> np.ndarray:
        if p.sparse and p.data.ndim >= 2:
            return np.zeros(p.data.shape[0], dtype=p.data.dtype)
        return np.zeros_like(p.data)
