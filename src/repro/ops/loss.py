"""Binary cross-entropy with logits, the DLRM training loss."""

from __future__ import annotations

import numpy as np

from repro.ops.activations import sigmoid
from repro.utils.dtypes import default_dtype

__all__ = ["bce_with_logits", "BCEWithLogitsLoss"]


def _log1p_exp(x: np.ndarray) -> np.ndarray:
    """Numerically stable ``log(1 + exp(x))`` (softplus).

    Piecewise evaluation never exponentiates a positive argument, so no
    overflow occurs for large logits.
    """
    out = np.empty_like(x)
    pos = x > 0
    out[pos] = x[pos] + np.log1p(np.exp(-x[pos]))
    out[~pos] = np.log1p(np.exp(x[~pos]))
    return out


def bce_with_logits(logits: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean binary cross-entropy of ``sigmoid(logits)`` against ``targets``.

    Returns ``(loss, grad_logits)`` where ``grad_logits`` is the gradient of
    the *mean* loss w.r.t. the logits: ``(sigmoid(z) - y) / batch``.

    Computing loss and gradient together avoids a second sigmoid pass and
    keeps the two numerically consistent (both use the stable softplus
    formulation ``BCE = softplus(z) - y*z``).
    """
    logits = np.asarray(logits, dtype=default_dtype()).reshape(-1)
    targets = np.asarray(targets, dtype=logits.dtype).reshape(-1)
    if logits.shape != targets.shape:
        raise ValueError(f"logits {logits.shape} and targets {targets.shape} must match")
    if logits.size == 0:
        raise ValueError("empty batch")
    loss = float(np.mean(_log1p_exp(logits) - targets * logits))
    grad = (sigmoid(logits) - targets) / logits.size
    return loss, grad


class BCEWithLogitsLoss:
    """Object wrapper around :func:`bce_with_logits` with a cached gradient.

    Usage::

        loss = criterion.forward(logits, y)
        grad_logits = criterion.backward()
    """

    def __init__(self):
        self._grad: np.ndarray | None = None

    def forward(self, logits: np.ndarray, targets: np.ndarray) -> float:
        loss, grad = bce_with_logits(logits, targets)
        self._grad = grad
        return loss

    def backward(self) -> np.ndarray:
        if self._grad is None:
            raise RuntimeError("backward called before forward")
        return self._grad

    __call__ = forward
