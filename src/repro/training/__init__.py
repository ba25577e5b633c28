"""Training and evaluation loops plus metrics."""

from repro.training.metrics import accuracy, bce_loss, roc_auc
from repro.training.trainer import EvalResult, TrainResult, Trainer

__all__ = [
    "Trainer",
    "TrainResult",
    "EvalResult",
    "accuracy",
    "bce_loss",
    "roc_auc",
]
