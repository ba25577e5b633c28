"""Process-wide metrics registry: counters, gauges and histograms.

Every instrumented component (TT kernels, the LFU cache, the trainer,
the serving tier) registers its instruments here instead of keeping
private counter attributes, so one ``repro profile`` run — or one
``--emit-json`` snapshot — sees the whole system through a single
registry. Instruments are identified by a metric *name* plus a set of
string *labels* (``cache.hits{module=emb0#2}``), mirroring the
Prometheus data model without the wire format.

Instruments are plain objects with ``__slots__`` and integer/float
fields; incrementing a counter is one attribute add, cheap enough to
leave permanently enabled on hot paths (the tracer, not the registry,
carries the disable switch — see :mod:`repro.telemetry.tracer`).
"""

from __future__ import annotations

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "metric_key",
]

# Geometric decades covering sub-microsecond to multi-second durations in
# nanoseconds — the default bucketing for span-duration histograms.
DEFAULT_BUCKET_BOUNDS = (
    1_000, 10_000, 100_000, 1_000_000, 10_000_000, 100_000_000, 1_000_000_000
)


def metric_key(name: str, labels: dict[str, str] | None = None) -> str:
    """Canonical string key, e.g. ``cache.hits{module=emb0}``."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class Counter:
    """Monotonic-by-convention integer counter (``set`` exists for
    checkpoint restore, which must re-seed cumulative statistics)."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def set(self, value: int) -> None:
        self.value = int(value)

    def reset(self) -> None:
        self.value = 0


class Gauge:
    """Last-value-wins instantaneous measurement."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def reset(self) -> None:
        self.value = 0.0


class Histogram:
    """Streaming distribution summary: count/total/min/max plus
    cumulative-style bucket counts over fixed upper bounds."""

    __slots__ = ("count", "total", "min", "max", "bounds", "bucket_counts")

    def __init__(self, bounds: tuple[float, ...] = DEFAULT_BUCKET_BOUNDS):
        if list(bounds) != sorted(bounds):
            raise ValueError(f"histogram bounds must be sorted, got {bounds}")
        self.bounds = tuple(bounds)
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        # bucket_counts[i] counts observations <= bounds[i]; the final
        # slot is the +inf overflow bucket.
        self.bucket_counts = [0] * (len(self.bounds) + 1)

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[i] += 1
                return
        self.bucket_counts[-1] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (``0 <= q <= 1``) of the stream.

        Walks the cumulative bucket counts to the bucket containing the
        target rank, then **interpolates linearly within that bucket**
        (assuming observations are uniform inside it) instead of
        snapping to the bucket's upper edge — the naive estimate that
        biases p99 upward by up to a full bucket width. The interpolated
        estimate is additionally clamped to the observed ``[min, max]``,
        so the error bound is::

            |quantile(q) - exact| <= width of the containing bucket
                                     (tight: 0 when the bucket holds a
                                      single distinct value, and the
                                      q=0 / q=1 ends are exact)

        where the first bucket's lower edge is the observed minimum and
        the overflow bucket's upper edge is the observed maximum.
        Returns 0.0 on an empty histogram.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        target = q * self.count
        cum = 0
        lo = self.min
        edges = [*self.bounds, self.max]
        for i, hi in enumerate(edges):
            n = self.bucket_counts[i]
            if n and cum + n >= target:
                lo_edge = max(lo, self.min)
                hi_edge = max(min(hi, self.max), lo_edge)
                frac = (target - cum) / n
                est = lo_edge + frac * (hi_edge - lo_edge)
                return min(max(est, self.min), self.max)
            cum += n
            lo = hi
        return self.max  # pragma: no cover - ranks always land in a bucket

    def reset(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self.bucket_counts = [0] * (len(self.bounds) + 1)

    def summary(self) -> dict:
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "buckets": dict(zip([*map(str, self.bounds), "+inf"],
                                self.bucket_counts)),
        }


class MetricsRegistry:
    """Get-or-create store of labelled instruments.

    ``counter``/``gauge``/``histogram`` return the *same* object for the
    same ``(name, labels)`` pair, so components hold direct references to
    their instruments and pay no lookup on the hot path.
    """

    def __init__(self):
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # ------------------------------------------------------------------ #

    def counter(self, name: str, **labels: str) -> Counter:
        key = metric_key(name, labels)
        inst = self._counters.get(key)
        if inst is None:
            inst = self._counters[key] = Counter()
        return inst

    def gauge(self, name: str, **labels: str) -> Gauge:
        key = metric_key(name, labels)
        inst = self._gauges.get(key)
        if inst is None:
            inst = self._gauges[key] = Gauge()
        return inst

    def histogram(self, name: str, *, bounds: tuple[float, ...] | None = None,
                  **labels: str) -> Histogram:
        key = metric_key(name, labels)
        inst = self._histograms.get(key)
        if inst is None:
            inst = self._histograms[key] = Histogram(
                bounds if bounds is not None else DEFAULT_BUCKET_BOUNDS
            )
        return inst

    # ------------------------------------------------------------------ #

    def snapshot(self) -> dict:
        """JSON-ready copy of every instrument's current value."""
        return {
            "counters": {k: c.value for k, c in sorted(self._counters.items())},
            "gauges": {k: g.value for k, g in sorted(self._gauges.items())},
            "histograms": {k: h.summary()
                           for k, h in sorted(self._histograms.items())},
        }

    def reset(self, prefix: str | None = None) -> None:
        """Zero every instrument (optionally only those whose key starts
        with ``prefix``); instruments stay registered."""
        for store in (self._counters, self._gauges, self._histograms):
            for key, inst in store.items():
                if prefix is None or key.startswith(prefix):
                    inst.reset()

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)


_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry all components share."""
    return _REGISTRY
