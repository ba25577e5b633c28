"""Minimal manual-backprop neural-network substrate.

This subpackage replaces the role PyTorch plays in the original TT-Rec
codebase. Layers are plain objects with ``forward``/``backward`` methods
that cache whatever the backward pass needs; parameters carry the
gradients optimizers consume: a ``.grad`` buffer for a dense parameter, a
coalesced ``(rows, values)`` pair for a sparse one (embedding rows, cache
rows, TT cores). Everything is vectorized NumPy.
"""

from repro.ops.activations import ReLU, Sigmoid
from repro.ops.embedding import EmbeddingBag
from repro.ops.interaction import DotInteraction
from repro.ops.linear import Linear
from repro.ops.loss import bce_with_logits
from repro.ops.mlp import MLP
from repro.ops.module import Module, Parameter
from repro.ops.optim import Adagrad, SparseSGD

__all__ = [
    "Parameter",
    "Module",
    "Linear",
    "ReLU",
    "Sigmoid",
    "MLP",
    "bce_with_logits",
    "DotInteraction",
    "EmbeddingBag",
    "SparseSGD",
    "Adagrad",
]
