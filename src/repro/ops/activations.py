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
    """Rectified linear unit; ``forward`` hands back its output ``y``.

    Forward is ``fmax(x, 0)``, so NaN maps to 0 as ``x > 0`` does, and
    ``y > 0`` exactly where ``x > 0`` (NaN and both zeros included).
    Backward multiplies by that mask instead of selecting with it: for
    finite ``grad_out`` that equals ``where(x > 0, grad_out, 0)`` up to the
    sign of zero, while a non-finite ``grad_out`` at a masked position
    propagates (``inf * 0`` is NaN) rather than being hidden.
    """

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        y = np.fmax(np.asarray(x, dtype=default_dtype()), 0.0)
        return y, y

    def backward(self, grad_out: np.ndarray, y: np.ndarray) -> np.ndarray:
        return grad_out * (y > 0)


class Sigmoid(Module):
    """Logistic sigmoid; ``forward`` hands back its output for ``backward``."""

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        out = sigmoid(np.asarray(x, dtype=default_dtype()))
        return out, out

    def backward(self, grad_out: np.ndarray, out: np.ndarray) -> np.ndarray:
        return grad_out * out * (1.0 - out)
