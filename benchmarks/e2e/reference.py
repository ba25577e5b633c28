"""The speed reference: a fixed kernel timed right after every operation.

This box is a few cores of a shared host, and its speed moves between
states that last from under a second to minutes: over 300 s one
closed-loop ``serve_open`` client read 2.3 ms, 2.95 ms or 3.9 ms per
request depending on the second, whatever the benchmark did with its own
CPUs (README "Speed reference"). A median inside a 15 s run cannot
remove a state that outlasts the run, so every timed operation is
followed by one call of ``kernel`` -- interpreter work plus small batched
GEMMs, the mix the program itself is made of -- and the operation is
reported at the reference speed::

    corrected_ms = op_ms * NOMINAL_MS / kernel_ms

A program that gets faster moves ``op_ms`` and not ``kernel_ms``, so the
corrected time moves with it; a host that gets slower moves both. The
kernel lives in the benchmark's own files, which a change claiming a
gain may not edit.
"""

from __future__ import annotations

from time import perf_counter_ns

import numpy as np

# The kernel's usual time on the box the baseline was measured on, so
# that corrected times read as milliseconds on that box.
NOMINAL_MS = 0.75

_rng = np.random.default_rng(0)
_LEFT = _rng.standard_normal((64, 32, 32))
_RIGHT = _rng.standard_normal((64, 32, 32))


def kernel() -> float:
    acc = 0
    for i in range(3000):
        acc += i * i
    for _ in range(4):
        block = np.maximum(_LEFT @ _RIGHT, 0.0)
    return acc + float(block[0, 0, 0])


class SpeedCorrected:
    """Turns operation times into times at the reference speed and keeps
    the raw pairs, so a result can state both."""

    def __init__(self):
        self.raw_ms: list[float] = []
        self.kernel_ms: list[float] = []

    def __call__(self, op_ms: float, rec) -> float:
        with rec.span("loadgen.reference"):
            kernel()   # untimed: the timed call must not see the caches the operation left
            t0 = perf_counter_ns()
            kernel()
            kernel_ms = (perf_counter_ns() - t0) / 1e6
        self.raw_ms.append(op_ms)
        self.kernel_ms.append(kernel_ms)
        return op_ms * NOMINAL_MS / kernel_ms

    def info(self) -> dict:
        """What the correction did, for the result's ``info`` block."""
        return {"raw_op_ms_p50": float(np.median(self.raw_ms)),
                "kernel_ms_p50": float(np.median(self.kernel_ms)),
                "kernel_nominal_ms": NOMINAL_MS}
