"""Multi-layer perceptron stack used for DLRM bottom/top towers."""

from __future__ import annotations

import numpy as np

from repro.ops.activations import ReLU, Sigmoid
from repro.ops.linear import Linear
from repro.ops.module import Module
from repro.utils.seeding import as_rng

__all__ = ["MLP"]


class MLP(Module):
    """A stack of Linear layers with ReLU between them.

    ``sizes`` follows the MLPerf-DLRM convention, e.g. ``[13, 512, 256, 64,
    16]`` for the Kaggle bottom tower. The final layer's activation is
    selectable: DLRM's top tower historically ends in a sigmoid folded into
    the loss, so the default here is linear output (``last="linear"``) and
    the loss applies the sigmoid — mirroring ``BCEWithLogits``.
    """

    def __init__(self, sizes: list[int], *, last: str = "linear",
                 rng: int | None | np.random.Generator = None, name: str = "mlp"):
        if len(sizes) < 2:
            raise ValueError(f"MLP needs at least [in, out] sizes, got {sizes}")
        if last not in ("linear", "relu", "sigmoid"):
            raise ValueError(f"last must be linear/relu/sigmoid, got {last!r}")
        rng = as_rng(rng)
        self.sizes = list(sizes)
        self.layers: list[Module] = []
        n_linear = len(sizes) - 1
        for i in range(n_linear):
            self.layers.append(
                Linear(sizes[i], sizes[i + 1], rng=rng, name=f"{name}.linear{i}")
            )
            if i < n_linear - 1:
                self.layers.append(ReLU())
        if last == "relu":
            self.layers.append(ReLU())
        elif last == "sigmoid":
            self.layers.append(Sigmoid())

    @property
    def in_features(self) -> int:
        return self.sizes[0]

    @property
    def out_features(self) -> int:
        return self.sizes[-1]

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """``(y, tape)``: the output and, per layer, what its ``backward``
        reads (a ``Linear``'s input, an activation's output)."""
        tape = []
        for layer in self.layers:
            x, saved = layer.forward(x)
            tape.append(saved)
        return x, tape

    def backward(self, grad_out: np.ndarray, tape: list[np.ndarray]) -> np.ndarray:
        for layer, saved in zip(reversed(self.layers), reversed(tape)):
            grad_out = layer.backward(grad_out, saved)
        return grad_out
