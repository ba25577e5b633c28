"""Argument-validation helpers shared across the library.

These raise early, with messages naming the offending argument, instead of
letting NumPy produce an opaque broadcasting error deep inside a kernel.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "IndexOutOfRangeError",
    "check_1d_int_array",
    "check_csr",
]


_INT64 = np.dtype(np.int64)


class IndexOutOfRangeError(IndexError, ValueError):
    """An index array addressed a row outside ``[0, num_rows)``.

    Subclasses both ``IndexError`` (the semantically right category — a bad
    lookup address) and ``ValueError`` (what these helpers historically
    raised), so existing ``except ValueError`` callers keep working.
    """


def check_1d_int_array(name: str, arr: np.ndarray, *, min_value: int | None = None,
                       max_value: int | None = None) -> np.ndarray:
    """Validate and canonicalise a 1-D integer index array.

    Returns the array as ``int64`` so downstream indexing is uniform.
    """
    arr = _as_int64_1d(name, arr)
    if arr.size:
        if min_value is not None and arr.min() < min_value:
            raise IndexOutOfRangeError(
                f"{name} contains values below {min_value}: min={arr.min()}"
            )
        if max_value is not None and arr.max() > max_value:
            raise IndexOutOfRangeError(
                f"{name} contains values above {max_value}: max={arr.max()}"
            )
    return arr


def _as_int64_1d(name: str, arr: np.ndarray) -> np.ndarray:
    arr = np.asarray(arr)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {arr.shape}")
    if arr.dtype != _INT64:  # the hot paths already hand over int64
        if not np.issubdtype(arr.dtype, np.integer):
            raise TypeError(f"{name} must have an integer dtype, got {arr.dtype}")
        arr = arr.astype(np.int64, copy=False)
    return arr


def check_csr(indices: np.ndarray, offsets: np.ndarray, num_rows: int) -> tuple[np.ndarray, np.ndarray]:
    """Validate an (indices, offsets) CSR bag description.

    ``offsets`` must be monotonically non-decreasing, start at 0, and end at
    ``len(indices)``; every index must address a valid row. Returns both
    arrays canonicalised to ``int64``.
    """
    indices = check_1d_int_array("indices", indices, min_value=0, max_value=num_rows - 1)
    offsets = _as_int64_1d("offsets", offsets)
    # One comparison pass accepts a well-formed array (starting at 0 and
    # never decreasing also means never negative); only a rejected one is
    # walked again to name what is wrong with it.
    if not (offsets.size and offsets[0] == 0 and offsets[-1] == indices.size
            and (offsets[1:] >= offsets[:-1]).all()):
        _reject_offsets(offsets, indices.size)
    return indices, offsets


def _reject_offsets(offsets: np.ndarray, num_indices: int) -> None:
    if offsets.size == 0:
        raise ValueError("offsets must contain at least one element")
    if offsets.min() < 0:
        raise IndexOutOfRangeError(
            f"offsets contains values below 0: min={offsets.min()}")
    if offsets[0] != 0:
        raise ValueError(f"offsets[0] must be 0, got {offsets[0]}")
    if offsets[-1] != num_indices:
        raise ValueError(
            f"offsets[-1] ({offsets[-1]}) must equal len(indices) ({num_indices})"
        )
    raise ValueError("offsets must be non-decreasing")
