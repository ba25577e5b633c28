"""Elementwise activations with manual backward."""

from __future__ import annotations

import numpy as np

from repro.ops.module import Module
from repro.utils.dtypes import default_dtype

__all__ = ["ReLU", "Sigmoid", "sigmoid"]


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic sigmoid of a floating array.

    Piecewise evaluation never exponentiates a large positive argument.
    """
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class ReLU(Module):
    """Rectified linear unit; caches the activation mask.

    Forward is ``fmax(x, 0)``, so NaN maps to 0 as ``x > 0`` does. Backward
    multiplies by the mask instead of selecting with it: for finite
    ``grad_out`` that equals ``where(x > 0, grad_out, 0)`` up to the sign
    of zero, while a non-finite ``grad_out`` at a masked position
    propagates (``inf * 0`` is NaN) rather than being hidden.
    """

    def __init__(self):
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=default_dtype())
        self._mask = x > 0
        return np.fmax(x, 0.0)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        return grad_out * self._mask

    __call__ = forward


class Sigmoid(Module):
    """Logistic sigmoid; caches the output for the backward product rule."""

    def __init__(self):
        self._out: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._out = sigmoid(np.asarray(x, dtype=default_dtype()))
        return self._out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._out is None:
            raise RuntimeError("backward called before forward")
        return grad_out * self._out * (1.0 - self._out)

    __call__ = forward
