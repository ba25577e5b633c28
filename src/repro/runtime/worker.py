"""How a simulated process fails and is readmitted: the worker state machine.

A :class:`SupervisedWorker` plays the role of one process; its payload is
a serving shard (:class:`repro.sharding.worker.ShardWorker`). The process
boundary is *modelled*, not spawned: the supervisor talks to a worker
only through dispatch/heartbeat messages on a shared deterministic
clock, so every failure mode replays exactly under a seeded
:class:`~repro.reliability.fault_injection.FaultInjector` and the chaos
ledgers reconcile exactly. The failure model, driven through the
``<site_prefix>.{crash,hang,slow,net_drop}`` sites or a ``kill()``:

========= ===============================================================
state     behaviour
========= ===============================================================
up        dispatches and heartbeats answered
hung      no replies (dispatch raises :class:`WorkerTimeout`, heartbeats
          miss) until ``hang_ms`` of simulated time passes
down      dead until ``restart()``; dispatches raise :class:`WorkerDown`
rewarming restarted but not readmitted: heartbeats answer (reporting the
          state) while the tier's recovery payload runs; dispatches
          refuse
========= ===============================================================

``slow`` is transient rather than a state: the next dispatch carries a
simulated latency penalty, and a dispatch whose penalty exceeds the
deadline is treated exactly like a timeout.
"""

from __future__ import annotations

from repro.telemetry import emit_event, get_registry

__all__ = ["SupervisedWorker", "WorkerDown", "WorkerTimeout", "WorkerNetDrop"]


class WorkerDown(RuntimeError):
    """Dispatch refused: the worker is dead (or not yet readmitted)."""


class WorkerTimeout(RuntimeError):
    """Dispatch produced no reply within its deadline."""


class WorkerNetDrop(RuntimeError):
    """The supervisor<->worker message was lost in transit."""


class SupervisedWorker:
    """One simulated process as an ``up | hung | down | rewarming`` machine.

    A payload class adds the work a successful dispatch does and names
    its tier through two class attributes: ``site_prefix``, the
    namespace of the fault sites, the per-unit counters
    ``<site_prefix>.{heartbeats,dispatches,crashes,hangs,slows,net_drops,
    kills_scheduled}`` and the lifecycle events ``restart`` /
    ``rewarm_forced`` / ``rewarmed``; and ``label``, the key of the unit
    id on metrics, events and heartbeat replies.

    ``service_ms`` is the simulated cost of a healthy dispatch,
    ``slow_penalty_ms`` what a ``slow`` firing adds to the next one,
    ``hang_ms`` how long a ``hang`` lasts, and ``rewarm_ms`` how long a
    restarted worker re-warms before its recovery payload runs.
    """

    site_prefix: str
    label: str

    def __init__(self, unit_id: int, *, injector=None, service_ms: float,
                 slow_penalty_ms: float, hang_ms: float, rewarm_ms: float):
        self.unit_id = unit_id
        self.injector = injector
        self.service_ms = service_ms
        self.slow_penalty_ms = slow_penalty_ms
        self.hang_ms = hang_ms
        self.rewarm_ms = rewarm_ms
        self.state = "up"
        self.hang_until = -1.0
        self.rewarm_until = -1.0
        self.impaired_since = None  # when the current outage began (sim ms)
        self._pending_penalty_ms = 0.0
        reg = get_registry()
        prefix, labels = self.site_prefix, {self.label: str(unit_id)}
        self._heartbeats = reg.counter(f"{prefix}.heartbeats", **labels)
        self._dispatches = reg.counter(f"{prefix}.dispatches", **labels)
        self._crashes = reg.counter(f"{prefix}.crashes", **labels)
        self._hangs = reg.counter(f"{prefix}.hangs", **labels)
        self._slows = reg.counter(f"{prefix}.slows", **labels)
        self._net_drops = reg.counter(f"{prefix}.net_drops", **labels)

    def _event(self, name: str, **attrs) -> None:
        emit_event(name, **{self.label: self.unit_id}, **attrs)

    # ------------------------------------------------------------------ #
    # Failure model
    # ------------------------------------------------------------------ #

    def probe_faults(self, now: float) -> None:
        """One fault-probe round (control-plane tick): crash and hang sites."""
        if self.injector is None or self.state in ("down", "rewarming"):
            return
        if self.injector.fires(f"{self.site_prefix}.crash"):
            self.kill(now, cause="fault")
            return
        if self.injector.fires(f"{self.site_prefix}.hang"):
            self._hangs.inc()
            self.hang_until = now + self.hang_ms
            self.state = "hung"
            if self.impaired_since is None:
                self.impaired_since = now
            self._event(f"{self.site_prefix}.hang", until_ms=self.hang_until)

    def kill(self, now: float, *, cause: str = "scheduled") -> None:
        """Crash the worker (fault-injected, scheduled, or watchdog).

        Only ``cause="fault"`` counts under ``crashes``, so the ``crash``
        site reconciles against it; operator-scheduled and watchdog kills
        count under ``<site_prefix>.kills_scheduled``.
        """
        if self.state == "down":
            return
        if cause == "fault":
            self._crashes.inc()
        else:
            get_registry().counter(f"{self.site_prefix}.kills_scheduled",
                                   **{self.label: str(self.unit_id)}).inc()
        self.state = "down"
        if self.impaired_since is None:
            self.impaired_since = now
        self._event(f"{self.site_prefix}.crash", cause=cause, at_ms=now)

    def _on_restart(self) -> None:
        """What a fresh process has lost (payload hook; default nothing)."""

    def restart(self, now: float) -> None:
        """Supervised restart: a fresh process enters the re-warm phase."""
        if self.state != "down":
            return
        self._on_restart()
        self.state = "rewarming"
        self.rewarm_until = now + self.rewarm_ms
        self._event(f"{self.site_prefix}.restart", at_ms=now,
                    ready_ms=self.rewarm_until)

    def begin_rewarm(self, now: float) -> None:
        """Force the re-warm phase from whatever state the worker is in.

        The supervisor calls this when the health verdict is "down",
        whatever put it there: a crashed worker is restarted, one still
        hung past the restart deadline is watchdog-killed first (a wedged
        process is not waited out), and one that self-healed (hang
        expired, or it never left "up" — slow dispatches, dropped
        heartbeats) keeps its process but still rejoins only through
        re-warm → recovery payload → readmission.
        """
        self._tick_state(now)
        if self.state == "rewarming":
            return
        if self.state == "hung":
            self.kill(now, cause="watchdog")
        if self.state == "down":
            self.restart(now)
            return
        self.state = "rewarming"
        self.rewarm_until = now + self.rewarm_ms
        self._event(f"{self.site_prefix}.rewarm_forced", at_ms=now,
                    ready_ms=self.rewarm_until)

    def _readmit(self, **attrs) -> None:
        """Recovery complete: take traffic again (payloads call this last)."""
        self.state = "up"
        self.rewarm_until = -1.0
        self.impaired_since = None
        self._event(f"{self.site_prefix}.rewarmed", **attrs)

    def _tick_state(self, now: float) -> None:
        if self.state == "hung" and now >= self.hang_until:
            self.state = "up"
            self.hang_until = -1.0
            self.impaired_since = None

    # ------------------------------------------------------------------ #
    # Messages
    # ------------------------------------------------------------------ #

    def heartbeat(self, now: float) -> dict | None:
        """Answer a health-plane probe; ``None`` models a lost/absent reply."""
        self._tick_state(now)
        if self.state in ("down", "hung"):
            return None
        if self.injector is not None \
                and self.injector.fires(f"{self.site_prefix}.net_drop"):
            self._net_drops.inc()
            return None
        self._heartbeats.inc()
        return {self.label: self.unit_id, "state": self.state, "at_ms": now}

    def begin_dispatch(self, now: float, deadline_ms: float) -> float:
        """Run the failure model for one dispatch; returns its simulated
        cost, or raises :class:`WorkerDown`, :class:`WorkerNetDrop` or
        :class:`WorkerTimeout`. A payload calls this before its work.
        """
        who = f"{self.label} {self.unit_id}"
        self._tick_state(now)
        if self.state in ("down", "rewarming"):
            raise WorkerDown(f"{who} is {self.state}")
        if self.injector is not None \
                and self.injector.fires(f"{self.site_prefix}.net_drop"):
            self._net_drops.inc()
            raise WorkerNetDrop(f"message to {who} lost")
        if self.state == "hung":
            raise WorkerTimeout(f"{who} hung until {self.hang_until:.0f} ms")
        sim_ms = self.service_ms
        if self.injector is not None \
                and self.injector.fires(f"{self.site_prefix}.slow"):
            self._slows.inc()
            self._pending_penalty_ms = self.slow_penalty_ms
            self._event(f"{self.site_prefix}.slow",
                        penalty_ms=self.slow_penalty_ms)
        if self._pending_penalty_ms:
            sim_ms += self._pending_penalty_ms
            self._pending_penalty_ms = 0.0
        if sim_ms > deadline_ms:
            raise WorkerTimeout(f"{who} needed {sim_ms:.1f} ms > "
                                f"deadline {deadline_ms:.1f} ms")
        return sim_ms

    # ------------------------------------------------------------------ #

    def stats(self) -> dict:
        """The machine's counters; payloads append their own."""
        return {
            self.label: self.unit_id,
            "state": self.state,
            "heartbeats": self._heartbeats.value,
            "dispatches": self._dispatches.value,
            "crashes": self._crashes.value,
            "hangs": self._hangs.value,
            "slows": self._slows.value,
            "net_drops": self._net_drops.value,
        }
