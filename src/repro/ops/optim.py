"""Optimizers for the manual-backprop substrate.

``SGD`` matches the MLPerf-DLRM reference (plain SGD, no momentum by
default, optional momentum for completeness); momentum and weight decay
read the whole table, so it densifies a sparse parameter's gradient.
``SparseSGD``, ``Adagrad`` and ``RowWiseAdagrad`` step over a sparse
parameter's coalesced ``(rows, values)`` pair, so an update costs O(rows
touched) instead of O(table size) — the same optimization PyTorch's sparse
embedding gradients provide — and a sparse parameter without a pair costs
nothing. ``Adagrad`` is included because industrial DLRM training commonly
uses it for embeddings.

Every optimizer exposes ``state_dict()``/``load_state_dict()`` so
checkpoints capture the full update rule: hyperparameters (including a
learning rate adjusted by the divergence guard) plus per-parameter slots
(momentum velocity, Adagrad accumulators), keyed ``<slot>.<param index>``
with indices into the construction-time parameter order. Restoring into a
freshly built optimizer over a structurally identical model reproduces
the interrupted run bit-for-bit.
"""

from __future__ import annotations

import numpy as np

from repro.ops.module import Parameter

__all__ = ["SGD", "SparseSGD", "Adagrad", "RowWiseAdagrad"]


class SGD:
    """Stochastic gradient descent over an explicit parameter list."""

    def __init__(self, params: list[Parameter], lr: float, *, momentum: float = 0.0,
                 weight_decay: float = 0.0):
        if lr <= 0:
            raise ValueError(f"lr must be > 0, got {lr}")
        if not (0.0 <= momentum < 1.0):
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.params = list(params)
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity: dict[int, np.ndarray] = {}

    def step(self) -> None:
        for p in self.params:
            grad = p.dense_grad()
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            if self.momentum:
                v = self._velocity.get(id(p))
                if v is None:
                    v = np.zeros_like(p.data)
                    self._velocity[id(p)] = v
                v *= self.momentum
                v += grad
                grad = v
            p.data -= self.lr * grad

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def state_dict(self) -> dict:
        state: dict = {"lr": self.lr, "momentum": self.momentum,
                       "weight_decay": self.weight_decay}
        for i, p in enumerate(self.params):
            v = self._velocity.get(id(p))
            if v is not None:
                state[f"velocity.{i}"] = v.copy()
        return state

    def load_state_dict(self, state: dict) -> None:
        self.lr = float(state["lr"])
        self.momentum = float(state["momentum"])
        self.weight_decay = float(state["weight_decay"])
        self._velocity = {}
        for key, value in state.items():
            if key.startswith("velocity."):
                i = int(key.split(".", 1)[1])
                p = self.params[i]
                self._velocity[id(p)] = np.array(value, dtype=p.data.dtype)


class SparseSGD:
    """SGD that updates only the rows of a sparse parameter's pair.

    Dense (non-``sparse``) parameters fall back to full updates. Momentum
    is deliberately unsupported: momentum on sparse rows requires decayed
    catch-up bookkeeping that neither DLRM nor TT-Rec use.
    """

    def __init__(self, params: list[Parameter], lr: float):
        if lr <= 0:
            raise ValueError(f"lr must be > 0, got {lr}")
        self.params = list(params)
        self.lr = lr

    def step(self) -> None:
        for p in self.params:
            if not p.sparse:
                p.data -= self.lr * p.grad
            elif p.grad is not None:
                rows, g = p.grad
                p.data[rows] -= self.lr * g

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def state_dict(self) -> dict:
        return {"lr": self.lr}

    def load_state_dict(self, state: dict) -> None:
        self.lr = float(state["lr"])


class RowWiseAdagrad:
    """Row-wise Adagrad — the de-facto industrial DLRM embedding optimizer.

    Keeps *one* accumulator per embedding row (the mean of the row's
    squared gradients) instead of one per element, cutting optimizer state
    for a ``rows x dim`` table from ``rows*dim`` to ``rows`` floats — the
    variant FBGEMM/torchrec call ``ROWWISE_ADAGRAD``. Non-2D or dense
    parameters fall back to element-wise Adagrad behaviour, a non-2D
    sparse one over its pair's entries only.
    """

    def __init__(self, params: list[Parameter], lr: float, *, eps: float = 1e-10):
        if lr <= 0:
            raise ValueError(f"lr must be > 0, got {lr}")
        self.params = list(params)
        self.lr = lr
        self.eps = eps
        self._accum: dict[int, np.ndarray] = {}
        for p in self.params:
            if p.sparse and p.data.ndim >= 2:
                self._accum[id(p)] = np.zeros(p.data.shape[0], dtype=p.data.dtype)
            else:
                self._accum[id(p)] = np.zeros_like(p.data)

    def step(self) -> None:
        for p in self.params:
            acc = self._accum[id(p)]
            if not p.sparse:
                acc += p.grad * p.grad
                p.data -= self.lr * p.grad / (np.sqrt(acc) + self.eps)
            elif p.grad is not None:
                rows, g = p.grad
                if p.data.ndim >= 2:
                    acc[rows] += (g.reshape(g.shape[0], -1) ** 2).mean(axis=1)
                    denom = (np.sqrt(acc[rows]) + self.eps).reshape(
                        -1, *([1] * (g.ndim - 1)))
                else:
                    acc[rows] += g * g
                    denom = np.sqrt(acc[rows]) + self.eps
                p.data[rows] -= self.lr * g / denom

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def state_dict(self) -> dict:
        state: dict = {"lr": self.lr, "eps": self.eps}
        for i, p in enumerate(self.params):
            state[f"accum.{i}"] = self._accum[id(p)].copy()
        return state

    def load_state_dict(self, state: dict) -> None:
        self.lr = float(state["lr"])
        self.eps = float(state["eps"])
        for key, value in state.items():
            if key.startswith("accum."):
                i = int(key.split(".", 1)[1])
                p = self.params[i]
                self._accum[id(p)] = np.array(value, dtype=p.data.dtype)


class Adagrad:
    """Adagrad with per-element accumulators; sparse-aware like SparseSGD."""

    def __init__(self, params: list[Parameter], lr: float, *, eps: float = 1e-10):
        if lr <= 0:
            raise ValueError(f"lr must be > 0, got {lr}")
        self.params = list(params)
        self.lr = lr
        self.eps = eps
        self._accum: dict[int, np.ndarray] = {
            id(p): np.zeros_like(p.data) for p in self.params
        }

    def step(self) -> None:
        for p in self.params:
            acc = self._accum[id(p)]
            if not p.sparse:
                acc += p.grad * p.grad
                p.data -= self.lr * p.grad / (np.sqrt(acc) + self.eps)
            elif p.grad is not None:
                rows, g = p.grad
                acc[rows] += g * g
                p.data[rows] -= self.lr * g / (np.sqrt(acc[rows]) + self.eps)

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def state_dict(self) -> dict:
        state: dict = {"lr": self.lr, "eps": self.eps}
        for i, p in enumerate(self.params):
            state[f"accum.{i}"] = self._accum[id(p)].copy()
        return state

    def load_state_dict(self, state: dict) -> None:
        self.lr = float(state["lr"])
        self.eps = float(state["eps"])
        for key, value in state.items():
            if key.startswith("accum."):
                i = int(key.split(".", 1)[1])
                p = self.params[i]
                self._accum[id(p)] = np.array(value, dtype=p.data.dtype)
