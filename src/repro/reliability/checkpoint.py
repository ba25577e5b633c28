"""Atomic, checksummed training checkpoints with retention and resume.

A checkpoint is a pair of files in the manager's directory::

    ckpt_00000100.npz    payload: model / optimizer / module-extra arrays
    ckpt_00000100.json   manifest: step, RNG state, scalars, payload sha256

Both are written to a temporary name in the same directory, fsynced, and
moved into place with ``os.replace`` — a crash at any point leaves either
the previous checkpoint intact or a stray ``*.tmp`` that is ignored. The
manifest is written *after* the payload, so a payload without a manifest
(crash between the two renames) is treated as absent, and
:meth:`CheckpointManager.latest_step` verifies the payload checksum before
trusting a manifest, so a torn or truncated payload never clobbers a
resume — the manager falls back to the newest checkpoint that verifies.

Payload key namespaces (``/``-separated, chosen because parameter keys
already contain ``:``):

- ``model/<key>``        — :func:`repro.ops.module.state_dict` keys;
- ``opt/<key>``          — optimizer ``state_dict()`` arrays;
- ``extra/<path>/<key>`` — per-module non-parameter arrays from
  ``extra_state()`` hooks (e.g. the LFU tracker of a cached embedding),
  addressed by :func:`repro.ops.module.named_modules` paths.

Scalars from the same sources live in the JSON manifest, which also
records the full loss history (so a resumed
:class:`~repro.training.trainer.TrainResult` is seamless) and, when a
:class:`numpy.random.Generator` is supplied, its bit-generator state —
everything needed for a killed run to resume bit-exactly.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from dataclasses import dataclass

import numpy as np

from repro.ops.module import Module, load_state_dict, named_modules, state_dict

__all__ = ["CheckpointManager", "CheckpointError", "LoadedCheckpoint"]

FORMAT_VERSION = 1


class CheckpointError(RuntimeError):
    """A checkpoint is missing, torn, or fails checksum verification."""


@dataclass
class LoadedCheckpoint:
    """One verified checkpoint pulled back into memory."""

    step: int
    path: str
    manifest: dict
    arrays: dict[str, np.ndarray]

    @property
    def losses(self) -> list[float]:
        return [float(x) for x in (self.manifest.get("losses") or [])]


def _sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _atomic_write(path: str, writer) -> None:
    """Write via ``writer(fh)`` to ``path + ".tmp"``, fsync, then replace."""
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        writer(fh)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def _split_optimizer(optimizer, arrays: dict) -> dict:
    """File an optimizer's ``state_dict()``: arrays into ``arrays`` as
    ``opt/<key>``; returns the manifest's ``optimizer`` section, the type
    name and the scalars.
    """
    scalars: dict[str, float] = {}
    if optimizer is not None:
        for key, value in optimizer.state_dict().items():
            if isinstance(value, np.ndarray):
                arrays[f"opt/{key}"] = value
            else:
                scalars[key] = value
    return {
        "type": type(optimizer).__name__ if optimizer is not None else None,
        "scalars": scalars,
    }


def _overlay_optimizer(ck: LoadedCheckpoint, optimizer) -> None:
    """Load ``ck``'s optimizer state: the manifest's scalars, then the
    payload's ``opt/<key>`` arrays."""
    saved_type = ck.manifest["optimizer"]["type"]
    if saved_type is None:
        return
    if saved_type != type(optimizer).__name__:
        raise CheckpointError(
            f"checkpoint holds {saved_type} state but the trainer "
            f"uses {type(optimizer).__name__}"
        )
    state = dict(ck.manifest["optimizer"]["scalars"])
    for key, value in ck.arrays.items():
        if key.startswith("opt/"):
            state[key.split("/", 1)[1]] = value
    optimizer.load_state_dict(state)


class CheckpointManager:
    """Rolling window of verified checkpoints for one training run.

    Parameters
    ----------
    directory:
        Where checkpoint pairs live (created if missing).
    keep:
        Retention: only the newest ``keep`` checkpoints survive a save.
    prefix:
        File-name prefix, useful when several runs share a directory.
    """

    def __init__(self, directory: str | os.PathLike, *, keep: int = 3,
                 prefix: str = "ckpt"):
        if keep < 1:
            raise ValueError(f"keep must be >= 1, got {keep}")
        self.directory = os.fspath(directory)
        self.keep = keep
        self.prefix = prefix
        os.makedirs(self.directory, exist_ok=True)

    # ------------------------------------------------------------------ #
    # Paths and discovery
    # ------------------------------------------------------------------ #

    def payload_path(self, step: int) -> str:
        return os.path.join(self.directory, f"{self.prefix}_{step:08d}.npz")

    def manifest_path(self, step: int) -> str:
        return os.path.join(self.directory, f"{self.prefix}_{step:08d}.json")

    def steps(self) -> list[int]:
        """Steps with both files present (ascending; not yet verified)."""
        pattern = re.compile(rf"^{re.escape(self.prefix)}_(\d+)\.json$")
        found = []
        for entry in os.listdir(self.directory):
            m = pattern.match(entry)
            if m:
                step = int(m.group(1))
                if os.path.exists(self.payload_path(step)):
                    found.append(step)
        return sorted(found)

    def verify(self, step: int) -> bool:
        """True when ``step``'s manifest parses and its payload checksums."""
        try:
            with open(self.manifest_path(step)) as fh:
                manifest = json.load(fh)
        except (OSError, ValueError):
            return False
        expected = manifest.get("sha256")
        if not expected:
            return False
        try:
            return _sha256_file(self.payload_path(step)) == expected
        except OSError:
            return False

    def latest_step(self) -> int | None:
        """Newest step that passes verification (torn writes are skipped)."""
        for step in reversed(self.steps()):
            if self.verify(step):
                return step
        return None

    # ------------------------------------------------------------------ #
    # Save
    # ------------------------------------------------------------------ #

    def save(self, step: int, model: Module, *, optimizer=None,
             rng: np.random.Generator | None = None,
             losses: list[float] | None = None) -> str:
        """Write one checkpoint atomically; returns the payload path.

        Captures the model's parameters, the optimizer's ``state_dict()``
        (arrays into the payload, scalars into the manifest), every
        module's ``extra_state()`` hook, the RNG bit-generator state, and
        the loss history.
        """
        if step < 0:
            raise ValueError(f"step must be >= 0, got {step}")
        arrays: dict[str, np.ndarray] = {
            f"model/{key}": value for key, value in state_dict(model).items()
        }
        opt_section = _split_optimizer(optimizer, arrays)
        extra_scalars: dict[str, dict] = {}
        for path, mod in named_modules(model):
            hook = getattr(mod, "extra_state", None)
            if not callable(hook):
                continue
            for key, value in hook().items():
                if isinstance(value, np.ndarray):
                    arrays[f"extra/{path}/{key}"] = value
                else:
                    extra_scalars.setdefault(path, {})[key] = value
        payload = self.payload_path(step)
        _atomic_write(payload, lambda fh: np.savez_compressed(fh, **arrays))
        manifest = {
            "format": FORMAT_VERSION,
            "step": int(step),
            "payload": os.path.basename(payload),
            "sha256": _sha256_file(payload),
            "optimizer": opt_section,
            "rng": None if rng is None else rng.bit_generator.state,
            "losses": None if losses is None else [float(x) for x in losses],
            "extra": extra_scalars,
        }
        body = json.dumps(manifest, indent=1).encode()
        _atomic_write(self.manifest_path(step), lambda fh: fh.write(body))
        self._prune()
        return payload

    def _prune(self) -> None:
        for step in self.steps()[: -self.keep] if self.keep else []:
            for path in (self.payload_path(step), self.manifest_path(step)):
                try:
                    os.remove(path)
                except OSError:  # pragma: no cover - best-effort cleanup
                    pass

    # ------------------------------------------------------------------ #
    # Load / restore
    # ------------------------------------------------------------------ #

    def load(self, step: int | None = None) -> LoadedCheckpoint:
        """Read and verify one checkpoint (the newest valid by default)."""
        if step is None:
            step = self.latest_step()
            if step is None:
                raise CheckpointError(
                    f"no valid checkpoint found in {self.directory!r}"
                )
        elif not self.verify(step):
            raise CheckpointError(
                f"{self.prefix} checkpoint step {step} in {self.directory!r} "
                "is missing or fails checksum verification"
            )
        with open(self.manifest_path(step)) as fh:
            manifest = json.load(fh)
        with np.load(self.payload_path(step)) as archive:
            arrays = {name: archive[name] for name in archive.files}
        return LoadedCheckpoint(step=int(manifest["step"]),
                                path=self.payload_path(step),
                                manifest=manifest, arrays=arrays)

    def restore(self, model: Module, *, optimizer=None,
                rng: np.random.Generator | None = None,
                step: int | None = None) -> LoadedCheckpoint:
        """Load a checkpoint back into ``model``/``optimizer``/``rng``.

        The inverse of :meth:`save`; returns the loaded checkpoint so the
        caller can pick up ``step`` and ``losses``.
        """
        ck = self.load(step)
        model_state = {
            key.split("/", 1)[1]: value
            for key, value in ck.arrays.items() if key.startswith("model/")
        }
        load_state_dict(model, model_state)
        if optimizer is not None:
            _overlay_optimizer(ck, optimizer)
        for path, mod in named_modules(model):
            hook = getattr(mod, "load_extra_state", None)
            if not callable(hook):
                continue
            extra: dict = dict(ck.manifest.get("extra", {}).get(path, {}))
            prefix = f"extra/{path}/"
            for key, value in ck.arrays.items():
                if key.startswith(prefix):
                    extra[key[len(prefix):]] = value
            if extra:
                hook(extra)
        if rng is not None and ck.manifest.get("rng") is not None:
            rng.bit_generator.state = ck.manifest["rng"]
        return ck
