"""Runtime numeric sanitizer: layer-boundary finite/dtype assertions.

The static rules keep corruption *sources* out of the tree; this module
catches corruption *in flight*. ReLU masks NaN to zero, mean-pooling
dilutes an Inf into a large-but-finite value — by the time the loss looks
wrong the faulty layer is long gone. :class:`NumericSanitizer` wraps the
``forward``/``backward`` of every module in a tree (instance-attribute
shadowing, so the class stays untouched and the wrap is fully reversible)
and raises :class:`NumericFaultError` naming the first layer boundary a
non-finite value or a dtype change crosses.

Used in tests under PR-1 fault injection (a planted NaN must be caught at
the first layer it crosses) and available around any training or serving
step::

    with NumericSanitizer(model) as sani:
        out = model.forward(dense, sparse)
        model.backward(grad)

Overhead is one ``np.isfinite(...).all()`` per layer per call — fine for
debugging runs and chaos tests, not free; it is a context manager, not an
always-on hook, for exactly that reason. Every boundary check increments
``sanitizer.checks`` and every caught fault ``sanitizer.trips`` in the
shared metrics registry, so chaos runs can reconcile planted versus
caught corruption.
"""

from __future__ import annotations

import re

import numpy as np

from repro.ops.module import Module, Parameter, walk
from repro.telemetry import emit_event, get_registry

__all__ = ["NumericFaultError", "NumericSanitizer"]


class NumericFaultError(FloatingPointError):
    """A non-finite value or dtype change crossed a layer boundary."""

    def __init__(self, layer: str, stage: str, kind: str, detail: str = ""):
        self.layer = layer
        self.stage = stage
        self.kind = kind
        msg = f"numeric fault at layer boundary {layer}.{stage}: {kind}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class NumericSanitizer:
    """Context manager asserting finite, dtype-stable layer boundaries.

    Parameters
    ----------
    module : Module
        Root of the tree to guard; every sub-module with a ``forward`` or
        ``backward`` is wrapped.
    name : str
        Label for the root in error messages and telemetry.
    check_dtype : bool
        Also flag a layer whose output dtype changes between calls
        (``kind="dtype_drift"``) — the runtime twin of lint rule DT001.
    check_grads : bool
        After a ``backward`` that returns ``None`` (root modules
        accumulate into parameters instead of returning a grad), verify
        the module's own parameter gradients are finite.
    """

    def __init__(self, module: Module, *, name: str = "model",
                 check_dtype: bool = True, check_grads: bool = True):
        if not isinstance(module, Module):
            raise TypeError(f"NumericSanitizer guards Module trees, got {type(module)!r}")
        self.module = module
        self.name = name
        self.check_dtype = check_dtype
        self.check_grads = check_grads
        self._wrapped: list[tuple[Module, str]] = []
        self._dtypes: dict[tuple[str, str], np.dtype] = {}
        reg = get_registry()
        self._checks = reg.counter("sanitizer.checks")
        self._trips = reg.counter("sanitizer.trips")

    # ------------------------------------------------------------------ #

    def __enter__(self) -> NumericSanitizer:
        for path, mod in walk(self.module):
            if not isinstance(mod, Module):
                continue
            # "bottom_mlp.layers.0" -> "<name>.bottom_mlp.layers[0]"
            path = self.name + re.sub(r"\.(\d+)", r"[\1]", f".{path}" if path else "")
            for stage in ("forward", "backward"):
                fn = getattr(mod, stage, None)
                if fn is None or stage in vars(mod):
                    # Missing, or already an instance attribute (another
                    # sanitizer or a test stub) — don't stack wrappers.
                    continue
                setattr(mod, stage, self._wrap(path, stage, mod, fn))
                self._wrapped.append((mod, stage))
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        for mod, stage in self._wrapped:
            # The wrapper lives in the instance __dict__; deleting it
            # re-exposes the class method untouched.
            if stage in vars(mod):
                delattr(mod, stage)
        self._wrapped.clear()
        return False

    # ------------------------------------------------------------------ #

    def _wrap(self, path: str, stage: str, mod: Module, fn):
        def wrapped(*args, **kwargs):
            out = fn(*args, **kwargs)
            self._check_output(path, stage, mod, out)
            return out

        wrapped.__name__ = f"sanitized_{stage}"
        return wrapped

    def _check_output(self, path: str, stage: str, mod: Module, out) -> None:
        arrays: list[tuple[str, np.ndarray]] = []
        if isinstance(out, np.ndarray):
            arrays.append(("output", out))
        elif isinstance(out, tuple):
            arrays.extend(self._flatten(out))
        elif out is None and stage == "backward" and self.check_grads:
            # Root-style backward: gradient went into this module's own
            # parameters, so inspect those instead.
            for p in self._own_parameters(mod):
                arrays.append((f"grad:{p.name}", p.dense_grad()))
        for label, arr in arrays:
            self._checks.inc()
            if arr.dtype.kind not in "fc":
                continue
            if not np.isfinite(arr).all():
                kind = "nan" if np.isnan(arr).any() else "inf"
                self._trip(path, stage, kind, label)
            if self.check_dtype:
                key = (path, stage if label == "output" else f"{stage}:{label}")
                expected = self._dtypes.setdefault(key, arr.dtype)
                if arr.dtype != expected:
                    self._trip(path, stage, "dtype_drift",
                               f"{label}: {expected} -> {arr.dtype}")

    @staticmethod
    def _flatten(out: tuple) -> list[tuple[str, np.ndarray]]:
        arrays = []
        for i, item in enumerate(out):
            if isinstance(item, np.ndarray):
                arrays.append((f"output[{i}]", item))
            elif isinstance(item, (list, tuple)):
                for j, sub in enumerate(item):
                    if isinstance(sub, np.ndarray):
                        arrays.append((f"output[{i}][{j}]", sub))
        return arrays

    @staticmethod
    def _own_parameters(mod: Module) -> list[Parameter]:
        own = []
        for value in vars(mod).values():
            if isinstance(value, Parameter):
                own.append(value)
            elif isinstance(value, (list, tuple)):
                own.extend(v for v in value if isinstance(v, Parameter))
        return own

    def _trip(self, layer: str, stage: str, kind: str, detail: str) -> None:
        self._trips.inc()
        emit_event("sanitizer.trip", layer=layer, stage=stage, kind=kind,
                   detail=detail)
        raise NumericFaultError(layer, stage, kind, detail)
