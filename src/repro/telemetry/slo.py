"""Declarative SLOs evaluated as multi-window burn rates with exemplars.

An *objective* says what fraction of requests must be good (``target``,
e.g. 0.99) and how each request is classified good/bad (``metric``).
The engine evaluates each objective over several sliding windows at
once — the classic multi-window burn-rate alert: a violation fires only
when **every** window's burn rate exceeds its threshold, so a short
blip trips the fast window but not the slow one (no alert), while a
sustained problem trips both. Burn rate is measured in budget units::

    burn = bad_fraction / (1 - target)

so burn 1.0 consumes the error budget exactly at the allowed pace, and
``max_burn`` of, say, 10 on a short window means "burning budget 10x
too fast right now".

Every bad observation records an exemplar — the request's trace id when
request tracing sampled it — so a fired violation links directly to
``repro trace`` output for the requests that burned the budget.

Supported metrics:

``availability``
    served = good, shed/rejected = bad.
``latency``
    served under ``threshold_ms`` = good, over = bad (shed ignored —
    availability owns those).
``degraded``
    served at full fidelity = good, served degraded (some table answered
    by a fallback rung) = bad.

Objectives carry ``gate: true|false`` — the serve-bench exit code only
considers gated objectives, so a policy can include tight informational
objectives (to demonstrate violations + exemplars in a chaos drill)
without failing CI.

Policy document (``repro.slo/v1``) and report (``repro.slo-report/v1``)
are both plain JSON; see ``benchmarks/slo_serving.json`` and
docs/OBSERVABILITY.md.
"""

from __future__ import annotations

import json
import math
import os
from collections import deque

__all__ = [
    "SLO_SCHEMA",
    "REPORT_SCHEMA",
    "Objective",
    "SLOEngine",
    "load_policy",
    "format_report",
]

SLO_SCHEMA = "repro.slo/v1"
REPORT_SCHEMA = "repro.slo-report/v1"

_METRICS = ("availability", "latency", "degraded")
_MAX_EXEMPLARS = 5


class Objective:
    """One parsed objective: classification rule + burn-rate windows."""

    __slots__ = ("name", "metric", "target", "threshold_ms", "gate",
                 "windows")

    def __init__(self, name: str, metric: str, target: float,
                 windows: list[dict], *, threshold_ms: float | None = None,
                 gate: bool = True):
        if metric not in _METRICS:
            raise ValueError(
                f"objective {name!r}: unknown metric {metric!r} "
                f"(expected one of {_METRICS})"
            )
        if not 0.0 < target < 1.0:
            raise ValueError(
                f"objective {name!r}: target must be in (0, 1), got {target}"
            )
        if metric == "latency" and threshold_ms is None:
            raise ValueError(
                f"objective {name!r}: latency objectives need threshold_ms"
            )
        if threshold_ms is not None and not math.isfinite(threshold_ms):
            raise ValueError(
                f"objective {name!r}: threshold_ms must be finite, "
                f"got {threshold_ms}"
            )
        if not isinstance(gate, bool):
            raise ValueError(
                f"objective {name!r}: gate must be true or false, "
                f"got {gate!r}"
            )
        if not windows:
            raise ValueError(f"objective {name!r}: needs at least one window")
        for w in windows:
            if not all(0 < v < math.inf
                       for v in (w.get("ms", 0), w.get("max_burn", 0))):
                raise ValueError(
                    f"objective {name!r}: windows need finite positive ms "
                    f"and max_burn, got {w}"
                )
        self.name = name
        self.metric = metric
        self.target = float(target)
        self.threshold_ms = (
            float(threshold_ms) if threshold_ms is not None else None
        )
        self.gate = gate
        self.windows = [
            {"ms": float(w["ms"]), "max_burn": float(w["max_burn"])}
            for w in windows
        ]

    @property
    def budget(self) -> float:
        return 1.0 - self.target

    def classify(self, kind: str, *, latency_ms=None,
                 degraded=False) -> str | None:
        """``"good"``, ``"bad"``, or ``None`` (not this objective's
        traffic) for one observation."""
        if self.metric == "availability":
            if kind == "served":
                return "good"
            if kind in ("shed", "rejected"):
                return "bad"
        elif self.metric == "latency":
            if kind == "served":
                over = latency_ms is not None and latency_ms > self.threshold_ms
                return "bad" if over else "good"
        elif self.metric == "degraded":
            if kind == "served":
                return "bad" if degraded else "good"
        return None

    def as_dict(self) -> dict:
        out = {
            "name": self.name,
            "metric": self.metric,
            "target": self.target,
            "gate": self.gate,
            "windows": [dict(w) for w in self.windows],
        }
        if self.threshold_ms is not None:
            out["threshold_ms"] = self.threshold_ms
        return out


def load_policy(source: str | os.PathLike | dict) -> list[Objective]:
    """Parse a ``repro.slo/v1`` policy (path or already-loaded dict)."""
    if isinstance(source, dict):
        doc = source
    else:
        with open(source) as fh:
            doc = json.load(fh)
    if doc.get("schema") != SLO_SCHEMA:
        raise ValueError(f"unknown SLO policy schema: {doc.get('schema')!r}")
    objectives = doc.get("objectives")
    if not isinstance(objectives, list) or not objectives:
        raise ValueError("SLO policy needs a non-empty 'objectives' list")
    parsed = []
    seen = set()
    for obj in objectives:
        name = obj.get("name")
        if not isinstance(name, str) or not name:
            raise ValueError(f"objective needs a string name, got {obj!r}")
        if name in seen:
            raise ValueError(f"duplicate objective name {name!r}")
        seen.add(name)
        parsed.append(Objective(
            name, obj.get("metric", ""), obj.get("target", 0.0),
            obj.get("windows", []),
            threshold_ms=obj.get("threshold_ms"),
            gate=obj.get("gate", True),
        ))
    return parsed


def _merge_exemplar(exemplars: list[str], exemplar: str) -> None:
    """Add ``exemplar`` to an episode's bounded exemplar list.

    Real trace ids beat ``req:<id>`` fallbacks: once the list is full a
    trace id replaces the first fallback entry, so a violation episode
    that overlaps any sampled request ends up resolvable by
    ``repro trace --trace-id``.
    """
    if exemplar in exemplars:
        return
    if len(exemplars) < _MAX_EXEMPLARS:
        exemplars.append(exemplar)
        return
    if not exemplar.startswith("req:"):
        for i, existing in enumerate(exemplars):
            if existing.startswith("req:"):
                exemplars[i] = exemplar
                return


class _ObjectiveState:
    """Sliding observation log + open/closed violation episodes."""

    __slots__ = ("objective", "log", "good", "bad", "exemplars",
                 "episodes", "open_episode", "evaluations")

    def __init__(self, objective: Objective):
        self.objective = objective
        # (now_ms, good_n, bad_n) samples, pruned to the longest window.
        self.log: deque[tuple[float, int, int]] = deque()
        self.good = 0
        self.bad = 0
        self.exemplars: deque[str] = deque(maxlen=_MAX_EXEMPLARS)
        self.episodes: list[dict] = []
        self.open_episode: dict | None = None
        self.evaluations = 0

    @property
    def max_window_ms(self) -> float:
        return max(w["ms"] for w in self.objective.windows)

    def add(self, now: float, verdict: str, exemplar: str | None,
            count: int) -> None:
        good_n = count if verdict == "good" else 0
        bad_n = count if verdict == "bad" else 0
        self.good += good_n
        self.bad += bad_n
        if bad_n and exemplar:
            self.exemplars.append(exemplar)
            if self.open_episode is not None:
                _merge_exemplar(
                    self.open_episode["exemplar_trace_ids"], exemplar
                )
        self.log.append((now, good_n, bad_n))
        horizon = now - self.max_window_ms
        while self.log and self.log[0][0] < horizon:
            self.log.popleft()

    def window_burns(self, now: float) -> list[dict]:
        """Burn rate per configured window at time ``now``."""
        out = []
        for w in self.objective.windows:
            start = now - w["ms"]
            good_n = bad_n = 0
            for ts, g, b in self.log:
                if ts >= start:
                    good_n += g
                    bad_n += b
            total = good_n + bad_n
            bad_frac = bad_n / total if total else 0.0
            out.append({
                "ms": w["ms"],
                "max_burn": w["max_burn"],
                "good": good_n,
                "bad": bad_n,
                "burn": bad_frac / self.objective.budget,
            })
        return out

    def evaluate(self, now: float, min_count: int) -> None:
        """Open/close violation episodes from the current window burns."""
        self.evaluations += 1
        burns = self.window_burns(now)
        violated = all(
            (b["good"] + b["bad"]) >= min_count and b["burn"] > b["max_burn"]
            for b in burns
        )
        if violated and self.open_episode is None:
            self.open_episode = {
                "objective": self.objective.name,
                "start_ms": now,
                "end_ms": None,
                "burns_at_open": burns,
                "exemplar_trace_ids": list(self.exemplars),
            }
        elif not violated and self.open_episode is not None:
            self.open_episode["end_ms"] = now
            self.episodes.append(self.open_episode)
            self.open_episode = None


class SLOEngine:
    """Streaming evaluator: feed observations, read verdicts.

    Timestamps are the caller's ``now=`` (``serve-bench``: the server's
    wall clock, so reports vary from run to run). ``min_count`` guards
    the short windows against firing on the first handful of requests.
    """

    def __init__(self, objectives: list[Objective], *, min_count: int = 20):
        self.objectives = objectives
        self.min_count = min_count
        self._states = {o.name: _ObjectiveState(o) for o in objectives}
        self.observations = 0

    # ------------------------------------------------------------------ #

    def observe(self, kind: str, *, now: float, latency_ms=None,
                degraded: bool = False, trace_id: str | None = None,
                request_id=None, count: int = 1) -> None:
        """Feed one observation to every objective it classifies under.

        ``kind``: ``served`` / ``shed`` / ``rejected``. The exemplar is
        the trace id when tracing
        sampled the request, else a ``req:<id>`` fallback.
        """
        if count <= 0:
            return
        self.observations += count
        exemplar = trace_id or (
            f"req:{request_id}" if request_id is not None else None
        )
        for state in self._states.values():
            verdict = state.objective.classify(
                kind, latency_ms=latency_ms, degraded=degraded
            )
            if verdict is None:
                continue
            state.add(float(now), verdict, exemplar, count)
            state.evaluate(float(now), self.min_count)

    # ------------------------------------------------------------------ #

    def report(self, now: float) -> dict:
        """``repro.slo-report/v1`` document: verdict per objective.

        Closes any still-open episodes at ``now`` (they stay recorded as
        violations) and reports ``compliant`` per objective (no episodes
        at all) plus the roll-ups ``compliant`` (all objectives) and
        ``gate_passed`` (gated objectives only — the exit-code signal).
        """
        objectives = []
        for state in self._states.values():
            state.evaluate(float(now), self.min_count)
            if state.open_episode is not None:
                state.open_episode["end_ms"] = float(now)
                state.episodes.append(state.open_episode)
                state.open_episode = None
            total = state.good + state.bad
            objectives.append({
                "objective": state.objective.as_dict(),
                "good": state.good,
                "bad": state.bad,
                "bad_fraction": state.bad / total if total else 0.0,
                "windows": state.window_burns(float(now)),
                "episodes": state.episodes,
                "compliant": not state.episodes,
            })
        return {
            "schema": REPORT_SCHEMA,
            "at_ms": float(now),
            "min_count": self.min_count,
            "observations": self.observations,
            "objectives": objectives,
            "compliant": all(o["compliant"] for o in objectives),
            "gate_passed": all(
                o["compliant"] for o in objectives
                if o["objective"]["gate"]
            ),
        }


def format_report(report: dict) -> str:
    """Human-readable rendering of a ``repro.slo-report/v1`` document."""
    if report.get("schema") != REPORT_SCHEMA:
        raise ValueError(f"unknown SLO report schema: {report.get('schema')!r}")
    lines = [
        f"SLO report @ {report['at_ms']:.1f} ms  "
        f"({report['observations']} observations)"
    ]
    for entry in report["objectives"]:
        obj = entry["objective"]
        status = "OK " if entry["compliant"] else "VIOLATED"
        gate = "gate" if obj["gate"] else "info"
        thr = (f" <{obj['threshold_ms']:g}ms"
               if obj.get("threshold_ms") is not None else "")
        lines.append(
            f"  [{status}] {obj['name']} ({obj['metric']}{thr}, "
            f"target {obj['target']:.4g}, {gate}): "
            f"good={entry['good']} bad={entry['bad']} "
            f"bad_frac={entry['bad_fraction']:.4f}"
        )
        for w in entry["windows"]:
            lines.append(
                f"      window {w['ms']:g}ms: burn {w['burn']:.2f} "
                f"(max {w['max_burn']:g}, n={w['good'] + w['bad']})"
            )
        for ep in entry["episodes"]:
            ex = ", ".join(ep["exemplar_trace_ids"]) or "none"
            lines.append(
                f"      episode {ep['start_ms']:.1f}–{ep['end_ms']:.1f} ms, "
                f"exemplars: {ex}"
            )
    lines.append(
        f"  overall: compliant={report['compliant']} "
        f"gate_passed={report['gate_passed']}"
    )
    return "\n".join(lines)
