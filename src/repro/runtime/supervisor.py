"""The supervisor's side: health verdicts, the recovery walk, kills, ledgers.

What every tier's control plane does to a fleet of
:class:`~repro.runtime.worker.SupervisedWorker` s, written once:
:class:`HealthPlane` turns heartbeats into verdicts, :func:`supervise` is
one control-plane round (fault probes, due heartbeats, the verdict-keyed
recovery walk), :func:`quiesce` the bounded settle phase a chaos run ends
with, :class:`KillSpec` and friends the operator-scheduled kills
(``--kill-shard 1@2s``), and :func:`reconcile_ledger` the exact
``{fired, counted, passed}`` fold every chaos drill reports.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.telemetry import emit_event, get_registry

__all__ = ["HealthPlane", "supervise", "readmit", "quiesce", "KillSpec",
           "parse_kill_spec", "check_kill_targets", "fire_kills",
           "reconcile_ledger", "worker_fault_rows"]


class HealthPlane:
    """Heartbeat bookkeeping and up/down verdicts for one worker fleet.

    Every ``heartbeat_interval_ms`` of simulated time the plane probes
    all ``num_shards`` workers; one that misses ``miss_threshold``
    consecutive probes is **marked down**, so the detection window is
    bounded by ``miss_threshold × heartbeat_interval_ms`` — an invariant
    the chaos tests assert. Tiers also mark a unit down *fail-fast* when
    its worker refuses a dispatch outright, and on transient dispatch
    faults once its breaker opens, so the plane is the backstop for
    silent deaths (a hang with no traffic), not the primary detector. It
    only tracks and reports, through the ``shard.marked_down`` /
    ``shard.readmitted`` events and the metrics ``shard.heartbeat_rounds``,
    per-shard ``shard.heartbeat_misses`` and the ``shard.up`` gauge.
    """

    def __init__(self, num_shards: int, *,
                 heartbeat_interval_ms: float = 50.0,
                 miss_threshold: int = 3):
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        if miss_threshold < 1:
            raise ValueError(
                f"miss_threshold must be >= 1, got {miss_threshold}"
            )
        if heartbeat_interval_ms <= 0:
            raise ValueError("heartbeat_interval_ms must be > 0")
        self.num_shards = num_shards
        self.heartbeat_interval_ms = heartbeat_interval_ms
        self.miss_threshold = miss_threshold
        self.verdict = ["up"] * num_shards        # up | down | rewarming
        self.misses = [0] * num_shards            # consecutive misses
        self.last_seen = [0.0] * num_shards       # last heartbeat reply (ms)
        self.marked_down_at = [None] * num_shards
        self._next_probe_ms = 0.0
        reg = get_registry()
        self._probe_rounds = reg.counter("shard.heartbeat_rounds")
        self._miss_counters = [
            reg.counter("shard.heartbeat_misses", shard=str(s))
            for s in range(num_shards)
        ]
        self._up_gauge = reg.gauge("shard.up")
        self._up_gauge.set(num_shards)

    # ------------------------------------------------------------------ #
    # Detection window
    # ------------------------------------------------------------------ #

    @property
    def detection_window_ms(self) -> float:
        """Worst-case simulated time from silent death to marked-down."""
        return self.miss_threshold * self.heartbeat_interval_ms

    def tick(self, now: float, workers) -> list[int]:
        """Run one probe round if due; returns shards newly marked down."""
        if now < self._next_probe_ms:
            return []
        self._next_probe_ms = now + self.heartbeat_interval_ms
        self._probe_rounds.inc()
        newly_down = []
        for s, worker in enumerate(workers):
            reply = worker.heartbeat(now)
            if reply is not None:
                self.misses[s] = 0
                self.last_seen[s] = now
                # A heartbeat alone never readmits: an "up" reply leaves a
                # non-up verdict for mark_up() at the end of recovery.
                if reply["state"] == "rewarming":
                    self.verdict[s] = "rewarming"
                continue
            self.misses[s] += 1
            self._miss_counters[s].inc()
            if self.misses[s] >= self.miss_threshold \
                    and self.verdict[s] == "up":
                self._mark_down(s, now, reason="heartbeat")
                newly_down.append(s)
        return newly_down

    # ------------------------------------------------------------------ #
    # Verdicts
    # ------------------------------------------------------------------ #

    def _mark_down(self, shard: int, now: float, *, reason: str) -> None:
        self.verdict[shard] = "down"
        self.marked_down_at[shard] = now
        self._up_gauge.set(self.up_count)
        emit_event("shard.marked_down", reason=reason,
                   at_ms=now, misses=self.misses[shard], shard=shard)

    def mark_down(self, shard: int, now: float, *,
                  reason: str = "dispatch") -> bool:
        """Fail-fast marking (the supervisor observed a dispatch failure).

        Returns True when this call changed the verdict.
        """
        if self.verdict[shard] != "up":
            return False
        self._mark_down(shard, now, reason=reason)
        return True

    def mark_rewarming(self, shard: int) -> None:
        self.verdict[shard] = "rewarming"

    def mark_up(self, shard: int, now: float) -> None:
        """Readmit a unit (the supervisor completed the recovery protocol)."""
        self.verdict[shard] = "up"
        self.misses[shard] = 0
        self.last_seen[shard] = now
        self.marked_down_at[shard] = None
        self._up_gauge.set(self.up_count)
        emit_event("shard.readmitted", at_ms=now, shard=shard)

    def is_up(self, shard: int) -> bool:
        return self.verdict[shard] == "up"

    @property
    def up_count(self) -> int:
        return sum(v == "up" for v in self.verdict)

    # ------------------------------------------------------------------ #

    def snapshot(self) -> dict:
        """The ``shards`` section of the global ``healthz`` document."""
        return {
            "up": self.up_count,
            "total": self.num_shards,
            "detection_window_ms": self.detection_window_ms,
            "verdicts": {
                str(s): {
                    "verdict": self.verdict[s],
                    "misses": self.misses[s],
                    "last_seen_ms": self.last_seen[s],
                    "marked_down_at_ms": self.marked_down_at[s],
                }
                for s in range(self.num_shards)
            },
        }


def supervise(workers, health, now: float, *, restart_after_ms: float | None,
              recover, probe_faults: bool = True) -> list[int]:
    """One control-plane round; returns units newly marked down.

    The recovery walk ``down`` ──restart_after_ms──▶ ``begin_rewarm`` ──▶
    ``rewarming`` ──rewarm_ms──▶ ``recover(unit)`` is keyed on the health
    *verdict*, never the worker's internal state: a unit can be marked
    down for a crash (worker down), a hang (worker self-heals after
    ``hang_ms``), or slow dispatches / dropped heartbeats (worker never
    left "up"); whatever the cause, it rejoins only through this
    pipeline. ``recover`` is the tier's payload; it ends with
    :func:`readmit`, or returns without it to be retried next round (no
    donor yet). ``restart_after_ms=None`` means detection only;
    ``probe_faults=False`` draws no new chaos (the quiesce phase).
    """
    if probe_faults:
        for worker in workers:  # unit order => deterministic injector draws
            worker.probe_faults(now)
    newly_down = health.tick(now, workers)
    if restart_after_ms is None:
        return newly_down
    for unit, worker in enumerate(workers):
        verdict = health.verdict[unit]
        if verdict == "down":
            down_at = health.marked_down_at[unit]
            if down_at is not None and now >= down_at + restart_after_ms:
                worker.begin_rewarm(now)
                health.mark_rewarming(unit)
        elif verdict == "rewarming" and worker.state == "rewarming" \
                and now >= worker.rewarm_until:
            recover(unit)
    return newly_down


def readmit(health, breaker, unit: int, now: float) -> None:
    """The last step of every recovery: verdict up, and a clean breaker —
    the failures that opened it belong to the unit's previous life."""
    breaker.reset()
    health.mark_up(unit, now)


def quiesce(clock, health, tick, *, restart_after_ms: float,
            rewarm_ms: float, hang_ms: float) -> None:
    """Advance simulated time, with no new faults, until the fleet is whole.

    ``tick()`` runs one round with ``probe_faults=False``. Bounded by a
    budget derived from the recovery ladder, so a report's final health
    reflects the recovery protocol rather than whatever mid-flight state
    the last request happened to leave.
    """
    budget = 2.0 * (health.detection_window_ms + restart_after_ms
                    + rewarm_ms + hang_ms) + 500.0
    deadline = clock.now() + budget
    while health.up_count < health.num_shards and clock.now() < deadline:
        clock.advance(health.heartbeat_interval_ms)
        tick()


_KILL_RE = re.compile(r"^(\d+)@(\d+(?:\.\d+)?)(ms|s)?$")


@dataclass
class KillSpec:
    """One scheduled kill: worker ``unit`` dies once the run reaches ``at``
    simulated ms.
    """

    unit: int
    at: float
    done: bool = False

    def __post_init__(self):
        if self.unit < 0 or self.at < 0:
            raise ValueError("kill target and position must be >= 0, "
                             f"got {self.unit}@{self.at}")


def parse_kill_spec(spec: str) -> KillSpec:
    """Parse ``<unit>@<time>[ms|s]`` (ms default).

    ``"1@2s"`` / ``"1@2000ms"`` / ``"1@2000"`` kill unit 1 two simulated
    seconds in.
    """
    m = _KILL_RE.match(spec.strip())
    if m is None:
        raise ValueError(
            f"bad kill spec {spec!r}: expected <shard>@<time>[ms|s]")
    at = float(m.group(2))
    return KillSpec(int(m.group(1)), at * 1000.0 if m.group(3) == "s" else at)


def check_kill_targets(kill_specs, fleet_size: int, label: str) -> None:
    """Reject a spec that names a unit the fleet does not have."""
    for ks in kill_specs:
        if ks.unit >= fleet_size:
            raise ValueError(
                f"--kill-{label} targets {label} {ks.unit} but the fleet "
                f"has {fleet_size} {label}s")


def fire_kills(kill_specs, workers, position: float, now: float) -> None:
    """Kill every pending spec's worker once ``position`` reaches it."""
    for ks in kill_specs:
        if not ks.done and position >= ks.at:
            workers[ks.unit].kill(now, cause="scheduled")
            ks.done = True


_WORKER_SITE_COUNTERS = {"crash": "crashes", "hang": "hangs",
                         "slow": "slows", "net_drop": "net_drops"}


def worker_fault_rows(site_prefix: str, worker_stats: list[dict]) -> dict:
    """Fault rows of the four worker sites, summed over the fleet."""
    return {
        f"{site_prefix}.{kind}": (f"{site_prefix}.{kind}",
                                  sum(s[counter] for s in worker_stats))
        for kind, counter in _WORKER_SITE_COUNTERS.items()
    }


def reconcile_ledger(injector, fault_rows: dict, invariants: dict, *,
                     clean: bool = True) -> dict:
    """Fold a run's ledgers into ``{checked, passed, checks}``.

    ``fault_rows`` maps a check name to ``(site, counted)``: every firing
    of the injector site must surface in the defensive counter. They
    count only when an injector ran over ``clean`` traffic: without an
    injector nothing fired, and garbage the caller sent is
    indistinguishable from an injected fault to the defensive counters
    (``skipped`` then says so). ``invariants`` maps a check name to
    ``(expected, counted)`` and is checked always — conservation of
    accepted work, fleet readmitted. A check passes on exact equality,
    and ``passed`` is the verdict in every drill: a check that gates is
    a row of ``checks``.
    """
    checks: dict[str, dict] = {}
    checked = injector is not None and clean
    if checked:
        for name, (site, counted) in fault_rows.items():
            checks[name] = {"fired": injector.fired.get(site, 0),
                            "counted": counted}
    for name, (expected, counted) in invariants.items():
        checks[name] = {"fired": expected, "counted": counted}
    for check in checks.values():
        check["passed"] = check["fired"] == check["counted"]
    recon = {
        "checked": checked,
        "passed": all(c["passed"] for c in checks.values()),
        "checks": checks,
    }
    if injector is not None and not clean:
        recon["skipped"] = "malformed traffic mixes with injected faults"
    return recon
