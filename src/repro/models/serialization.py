"""Model checkpointing: save/load any Module's parameters as ``.npz``.

The key scheme, :func:`state_dict` and :func:`load_state_dict` belong to
:mod:`repro.ops.module` and are re-exported here; this module adds the
``.npz`` files and :func:`named_modules`. Keys are ``<position>:<name>``
in :meth:`Module.parameters` order, so a checkpoint written from one
process loads into a freshly-constructed model of the same configuration.
"""

from __future__ import annotations

import os

import numpy as np

from repro.ops.module import Module, load_state_dict, parameter_keys, state_dict, walk

__all__ = ["save_model", "load_model", "state_dict", "load_state_dict",
           "named_modules", "parameter_keys"]


def _npz_path(path: str | os.PathLike, *, for_load: bool = False) -> str:
    """Normalize a checkpoint path to carry the ``.npz`` suffix.

    ``np.savez_compressed`` appends ``.npz`` when the suffix is missing,
    so both directions must agree on the on-disk name or
    ``save_model(m, "ckpt")`` + ``load_model(m, "ckpt")`` would look for
    two different files. When loading, an exactly-matching existing file
    wins (checkpoints written by other tools keep working).
    """
    p = os.fspath(path)
    if p.endswith(".npz"):
        return p
    if for_load and os.path.exists(p):
        return p
    return p + ".npz"


def save_model(model: Module, path: str | os.PathLike) -> None:
    """Write all parameters to a compressed ``.npz`` checkpoint."""
    np.savez_compressed(_npz_path(path), **state_dict(model))


def load_model(model: Module, path: str | os.PathLike, *, strict: bool = True) -> None:
    """Load a checkpoint written by :func:`save_model` into ``model``."""
    with np.load(_npz_path(path, for_load=True)) as archive:
        state = {name: archive[name] for name in archive.files}
    load_state_dict(model, state, strict=strict)


def named_modules(model: Module) -> list[tuple[str, Module]]:
    """Depth-first ``(path, module)`` pairs from :func:`repro.ops.module.walk`;
    the root has path ``""``. Paths (``"embeddings.3"``, ``"bottom_mlp"``)
    give stateful modules a stable address for checkpointing
    non-parameter state (see
    :class:`repro.reliability.checkpoint.CheckpointManager`).
    """
    return [(path, node) for path, node in walk(model) if isinstance(node, Module)]
