"""Fully-connected layer with manual backward."""

from __future__ import annotations

import numpy as np

from repro.ops.module import Module, Parameter
from repro.utils.dtypes import default_dtype
from repro.utils.seeding import as_rng

__all__ = ["Linear"]


class Linear(Module):
    """Affine map ``y = x @ W + b``; ``forward`` hands back its input for
    ``backward``.

    Initialization follows the MLPerf-DLRM reference: weights from a
    Xavier-style ``N(0, sqrt(2/(fan_in+fan_out)))`` and biases from
    ``N(0, sqrt(1/fan_out))``.
    """

    def __init__(self, in_features: int, out_features: int, *,
                 rng: int | None | np.random.Generator = None, name: str = "linear"):
        if in_features <= 0 or out_features <= 0:
            raise ValueError(
                f"in_features and out_features must be positive, got "
                f"{in_features}, {out_features}"
            )
        rng = as_rng(rng)
        w_std = np.sqrt(2.0 / (in_features + out_features))
        b_std = np.sqrt(1.0 / out_features)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            rng.normal(0.0, w_std, size=(in_features, out_features)), name=f"{name}.weight"
        )
        self.bias = Parameter(rng.normal(0.0, b_std, size=(out_features,)), name=f"{name}.bias")

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(y, x)``: the output and the input :meth:`backward` reads."""
        x = np.asarray(x, dtype=default_dtype())
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ValueError(
                f"expected input of shape (batch, {self.in_features}), got {x.shape}"
            )
        return x @ self.weight.data + self.bias.data, x

    def backward(self, grad_out: np.ndarray, x: np.ndarray) -> np.ndarray:
        grad_out = np.asarray(grad_out, dtype=self.weight.data.dtype)
        self.weight.grad += x.T @ grad_out
        self.bias.grad += grad_out.sum(axis=0)
        return grad_out @ self.weight.data.T
