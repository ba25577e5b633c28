"""Deterministic fault injection for chaos-testing the training stack.

A single seeded :class:`FaultInjector` is shared by every instrumented
component (:class:`~repro.training.trainer.Trainer`,
:class:`~repro.cache.cached_embedding.CachedTTEmbeddingBag`, the serving
tier). Each component asks the injector whether a fault fires at a named
*site*; all draws come from one private PCG64 stream, so a fixed seed
plus a fixed call sequence reproduces the exact same fault schedule run
after run — chaos tests are as repeatable as clean ones.

Instrumented sites
------------------
==========================  ====================================================
``trainer.grad``            non-finite entries injected into the loss gradient
``cache.row``               one uncompressed cached embedding row is poisoned
``serving.request``         an inbound request's dense payload is corrupted
``serving.queue``           a queued request is lost (shed as a queue fault)
``serving.backend``         an embedding backend's pooled output is poisoned
==========================  ====================================================

Sites are just strings: components probe unconditionally and unregistered
sites never fire, so attaching an injector with a subset of specs enables
exactly that subset of fault classes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.telemetry import emit_event
from repro.utils.seeding import as_rng

__all__ = ["FaultSpec", "FaultInjector", "KNOWN_SITES"]

KNOWN_SITES = (
    "trainer.grad",
    "cache.row",
    "serving.request",
    "serving.queue",
    "serving.backend",
)

_KINDS = ("nan", "inf", "zero", "scale")


@dataclass(frozen=True)
class FaultSpec:
    """One fault class: where it fires, how often, and what it does.

    Parameters
    ----------
    site:
        Name of the injection point (see module docstring).
    probability:
        Per-probe firing probability in ``[0, 1]``.
    kind:
        Corruption applied to the target array when the fault carries a
        payload: ``"nan"``/``"inf"`` overwrite entries, ``"zero"`` clears
        them, and ``"scale"`` multiplies by ``magnitude``.
    magnitude:
        Factor for ``kind="scale"``.
    max_elements:
        Entries corrupted per firing (clipped to the array size).
    """

    site: str
    probability: float
    kind: str = "nan"
    magnitude: float = 1e30
    max_elements: int = 1

    def __post_init__(self):
        if not (0.0 <= self.probability <= 1.0):
            raise ValueError(
                f"probability must be in [0, 1], got {self.probability}"
            )
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if self.max_elements < 1:
            raise ValueError(
                f"max_elements must be >= 1, got {self.max_elements}"
            )


class FaultInjector:
    """Seeded, site-addressed fault source with per-site counters.

    Usage::

        inj = FaultInjector(seed=0)
        inj.register("trainer.grad", 0.02)                # NaN gradients
        inj.register("cache.row", 0.05, kind="zero")
        trainer = Trainer(model, guard=DivergenceGuard(), injector=inj)

    ``attempts`` counts probes per site, ``fired`` counts actual faults;
    both are plain dicts for direct inclusion in benchmark reports.
    """

    def __init__(self, seed: int | None | np.random.Generator = 0,
                 specs: tuple[FaultSpec, ...] = ()):
        self._rng = as_rng(seed)
        self._specs: dict[str, FaultSpec] = {}
        self.attempts: dict[str, int] = {}
        self.fired: dict[str, int] = {}
        for spec in specs:
            self.register(spec)

    # ------------------------------------------------------------------ #
    # Configuration
    # ------------------------------------------------------------------ #

    def register(self, site: str | FaultSpec, probability: float | None = None,
                 *, kind: str = "nan", magnitude: float = 1e30,
                 max_elements: int = 1) -> "FaultInjector":
        """Enable a fault class; returns ``self`` for chaining."""
        if isinstance(site, FaultSpec):
            spec = site
        else:
            if probability is None:
                raise ValueError("probability is required when site is a name")
            spec = FaultSpec(site, probability, kind=kind, magnitude=magnitude,
                             max_elements=max_elements)
        self._specs[spec.site] = spec
        self.attempts.setdefault(spec.site, 0)
        self.fired.setdefault(spec.site, 0)
        return self

    def spec(self, site: str) -> FaultSpec | None:
        return self._specs.get(site)

    @property
    def sites(self) -> tuple[str, ...]:
        return tuple(self._specs)

    # ------------------------------------------------------------------ #
    # Probing
    # ------------------------------------------------------------------ #

    def draw(self, site: str) -> FaultSpec | None:
        """Probe a site: returns its spec when the fault fires, else None.

        Unregistered sites are free (no RNG consumed), so components can
        probe unconditionally.
        """
        spec = self._specs.get(site)
        if spec is None:
            return None
        self.attempts[site] += 1
        if self._rng.random() >= spec.probability:
            return None
        self.fired[site] += 1
        emit_event("fault.fired", site=site, kind=spec.kind,
                   count=self.fired[site])
        return spec

    def fires(self, site: str) -> bool:
        """True when a registered fault fires at ``site`` this probe."""
        return self.draw(site) is not None

    def choose(self, n: int) -> int:
        """Deterministic uniform choice in ``[0, n)`` from the fault stream."""
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        return int(self._rng.integers(0, n))

    # ------------------------------------------------------------------ #
    # Payload corruption
    # ------------------------------------------------------------------ #

    def apply(self, spec: FaultSpec, array: np.ndarray) -> None:
        """Corrupt ``array`` in place according to ``spec``."""
        flat = array.reshape(-1)
        if flat.size == 0:
            return
        k = min(spec.max_elements, flat.size)
        picks = self._rng.choice(flat.size, size=k, replace=False)
        if spec.kind == "nan":
            flat[picks] = np.nan
        elif spec.kind == "inf":
            flat[picks] = np.inf
        elif spec.kind == "zero":
            flat[picks] = 0.0
        else:  # "scale"
            flat[picks] *= spec.magnitude

    def corrupt(self, site: str, array: np.ndarray) -> bool:
        """Probe ``site`` and, on firing, corrupt ``array`` in place.

        Returns whether a fault was injected.
        """
        spec = self.draw(site)
        if spec is None:
            return False
        self.apply(spec, array)
        return True

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #

    def counters(self) -> dict[str, dict[str, int]]:
        """Per-site ``{"attempts": ..., "fired": ...}`` (report-ready copy)."""
        return {
            site: {"attempts": self.attempts[site], "fired": self.fired[site]}
            for site in self._specs
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"FaultInjector(sites={list(self._specs)}, "
                f"fired={sum(self.fired.values())})")
