"""Central floating-point dtype policy for the numeric hot paths.

The TT kernels (Algorithms 1-2), the MLP towers and the LFU cache must
agree on one floating dtype: a stray ``float64`` gather buffer next to
float32 cores silently upcasts a whole GEMM chain (extra memory traffic)
while a stray float32 temporary next to float64 parameters silently
*loses* precision. Both failure modes are invisible at the call site,
which is why the tree checks (docs/STATIC_ANALYSIS.md) ban hard-coded
``np.float64`` literals and dtype-less ``np.empty/zeros/ones``
allocations inside ``repro/tt``, ``repro/ops`` and ``repro/cache``.

The policy lives here instead:

- :data:`DEFAULT_DTYPE` / :func:`default_dtype` — the process-wide
  floating dtype (float64 by default, matching the NumPy substrate the
  repo has always trained in).
- :func:`set_default_dtype` — switch the policy (e.g. to float32 to
  mimic the paper's fp32 tables); newly built modules allocate in the
  new dtype.
- :func:`result_dtype` — derive the dtype a kernel output should have
  from its array operands (falling back to the policy), asserting the
  operands agree so dtype drift fails loudly at the boundary instead of
  propagating.
- :data:`COUNT_DTYPE` — frequency accumulators (the LFU hash table)
  always use float64: float32 stops counting exactly at 2^24 accesses,
  which a busy cache reaches in minutes.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

__all__ = [
    "DEFAULT_DTYPE",
    "COUNT_DTYPE",
    "default_dtype",
    "set_default_dtype",
    "dtype_policy",
    "result_dtype",
]

# The historical substrate dtype; ``set_default_dtype`` changes the
# *active* policy but never this constant.
DEFAULT_DTYPE: np.dtype = np.dtype(np.float64)

# Frequency counts stay exact far past float32's 2^24 integer ceiling.
COUNT_DTYPE: np.dtype = np.dtype(np.float64)

_active_dtype: np.dtype = DEFAULT_DTYPE


def default_dtype() -> np.dtype:
    """The floating dtype new parameters and compute buffers should use."""
    return _active_dtype


def set_default_dtype(dtype) -> np.dtype:
    """Set the process-wide floating dtype policy; returns the previous one.

    Only floating dtypes are accepted — embedding indices, offsets and
    cache keys are integer-typed by contract and never follow the policy.
    """
    global _active_dtype
    new = np.dtype(dtype)
    if new.kind != "f":
        raise ValueError(f"default dtype must be floating, got {new}")
    previous = _active_dtype
    _active_dtype = new
    return previous


@contextmanager
def dtype_policy(dtype):
    """Temporarily switch the dtype policy (tests, experiments)."""
    previous = set_default_dtype(dtype)
    try:
        yield np.dtype(dtype)
    finally:
        set_default_dtype(previous)


def result_dtype(*operands) -> np.dtype:
    """Common floating dtype of the array ``operands``.

    Non-array operands (scalars, ``None``) and integer arrays are
    ignored; with no floating operand the active policy dtype is
    returned. Disagreeing floating operands raise — a kernel mixing
    float32 and float64 inputs is exactly the silent-upcast bug the
    dtype discipline exists to catch.
    """
    found: np.dtype | None = None
    for op in operands:
        dt = getattr(op, "dtype", None)
        if dt is None or np.dtype(dt).kind != "f":
            continue
        dt = np.dtype(dt)
        if found is None:
            found = dt
        elif found != dt:
            raise TypeError(
                f"operands mix floating dtypes {found} and {dt}; "
                "unify on one dtype (see repro.utils.dtypes)"
            )
    return found if found is not None else _active_dtype
