"""The model state key scheme and module addresses checkpoints use.

The key scheme, :func:`state_dict` and :func:`load_state_dict` belong to
:mod:`repro.ops.module` and are re-exported here; this module adds
:func:`named_modules`. Keys are ``<position>:<name>`` in
:meth:`Module.parameters` order, so a state written from one process loads
into a freshly-constructed model of the same configuration. The one
checkpoint file format is
:class:`repro.reliability.checkpoint.CheckpointManager`'s.
"""

from __future__ import annotations

from repro.ops.module import Module, load_state_dict, parameter_keys, state_dict, walk

__all__ = ["state_dict", "load_state_dict", "named_modules", "parameter_keys"]


def named_modules(model: Module) -> list[tuple[str, Module]]:
    """Depth-first ``(path, module)`` pairs from :func:`repro.ops.module.walk`;
    the root has path ``""``. Paths (``"embeddings.3"``, ``"bottom_mlp"``)
    give stateful modules a stable address for checkpointing
    non-parameter state (see
    :class:`repro.reliability.checkpoint.CheckpointManager`).
    """
    return [(path, node) for path, node in walk(model) if isinstance(node, Module)]
