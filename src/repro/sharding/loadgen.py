"""Closed-loop load + chaos driver for the sharded tier (``serve-bench``).

Runs :func:`repro.serving.loadgen.run_load` — the one burst-arrival /
serve / advance loop on a :class:`ManualClock` — over a
:class:`ShardRouter` fleet, supplying its control plane: ``router.tick()``
after every time advance (fault probes, heartbeats, supervised
recovery), scheduled ``--kill-shard`` kills, periodic hot-row replica
refresh/consistency audits, and the settle phase that lets recovery finish.

``reconcile_sharded`` balances the chaos ledgers: every ``shard.*``
injector firing must surface in the matching defensive counter (read
when an injector ran over clean traffic), and on every run mirrors must
audit clean, the fleet must end readmitted and **no accepted request may
vanish** — everything queued is either served or counted as a deadline
shed. The drill CI runs (``serve-bench --shards 4 --kill-shard 1@2s``)
fails the build when any ledger is out of balance or failover p99
exceeds its threshold.
"""

from __future__ import annotations

from repro.runtime import supervisor
from repro.runtime.supervisor import KillSpec, parse_kill_spec
from repro.serving.loadgen import run_load
from repro.serving.queue import ManualClock
from repro.sharding.router import ShardRouter
from repro.telemetry import get_registry

__all__ = ["KillSpec", "parse_kill_spec", "run_sharded_load",
           "reconcile_sharded"]


def reconcile_sharded(router: ShardRouter, outcomes: dict, served: int, *,
                      clean: bool = True) -> dict:
    """Balance the sharded tier's ledgers against its fault injector.

    The shard sites and the PR-3 ``serving.*`` sites must balance
    exactly, mirrors must audit clean, and the tier must not lose
    accepted requests: ``queued == served + deadline sheds``.
    """
    stats = router.stats()
    invariants = {
        "no_lost_requests": (outcomes.get("queued", 0),
                             served + stats["shed"]["deadline"]),
        "replica_mirrors_clean": (0, sum(r["violations"]
                                         for r in stats["replicas"])),
    }
    if router.shard_config.restart_after_ms is not None:
        # With supervised restarts enabled, every shard the chaos took out
        # must have been readmitted by the end of the (quiesced) run.
        invariants["fleet_readmitted"] = (router.shard_config.num_shards,
                                          stats["health"]["up"])
    return supervisor.reconcile_ledger(
        router.injector,
        {
            **supervisor.worker_fault_rows("shard", stats["workers"]),
            "serving.backend": (
                "serving.backend",
                sum(w["ladders"][k]["backend_failures"]
                    for w in stats["workers"] for k in w["ladders"])),
            "serving.queue": ("serving.queue", stats["shed"]["fault"]),
            "serving.request": (
                "serving.request",
                stats["admission"]["rejected"].get("dense_non_finite", 0)),
        },
        invariants,
        clean=clean,
    )


def _shard_report(router: ShardRouter, stats: dict, outcomes: dict,
                  served: int, clean: bool) -> dict:
    reg = get_registry()
    per_shard = []
    for w in stats["workers"]:
        service = reg.histogram("shard.service_ms", shard=str(w["shard"]))
        per_shard.append({
            "shard": w["shard"],
            "state": w["state"],
            "dispatches": w["dispatches"],
            "p50_ms": service.quantile(0.50),
            "p99_ms": service.quantile(0.99),
            "heartbeats": w["heartbeats"],
            "crashes": w["crashes"],
            "hangs": w["hangs"],
            "slows": w["slows"],
            "net_drops": w["net_drops"],
            "rewarmed_rows": w["rewarmed_rows"],
        })
    failover = stats["failover_ms"]
    return {
        "failovers": stats["failovers"],
        "replica_hits": stats["replica_hits"],
        "prior_fills": stats["prior_fills"],
        "failover_ms": {
            "count": failover["count"],
            "mean": failover["mean"],
            "p99": reg.histogram("shard.failover_ms").quantile(0.99),
            "max": failover["max"] if failover["count"] else 0.0,
        },
        "per_shard": per_shard,
        "health": router.healthz(),
        "ready": router.readyz(),
        "stats": stats,
        "reconciliation": reconcile_sharded(router, outcomes, served,
                                            clean=clean),
    }


def run_sharded_load(router: ShardRouter, *, num_requests: int = 1000,
                     mean_interarrival_ms: float = 1.0,
                     deadline_ms: float | None = None,
                     malformed: float = 0.0, seed: int = 0,
                     clock: ManualClock | None = None,
                     kill_specs: list[KillSpec] | None = None,
                     refresh_every_ms: float = 500.0, slo=None) -> dict:
    """Drive the sharded tier; returns a JSON-ready per-shard report.

    The loop is :func:`repro.serving.loadgen.run_load` plus the control
    plane: after every time advance pending ``--kill-shard`` specs fire,
    the router ticks (fault probes, due heartbeats, restart/re-warm),
    and replicas are re-warmed to the observed hot head every
    ``refresh_every_ms``. Bookkeeping reads the shared histograms
    (``serving.latency_ms``, ``shard.service_ms{shard=}``,
    ``shard.failover_ms``), reset at run start so the report is
    run-local. Pass an :class:`~repro.telemetry.slo.SLOEngine` as ``slo``
    to stream served/shed/staleness outcomes into objective evaluation.
    """
    kill_specs = list(kill_specs or [])
    sc = router.shard_config
    supervisor.check_kill_targets(kill_specs, sc.num_shards, "shard")
    for prefix in ("shard.service_ms", "shard.failover_ms"):
        get_registry().reset(prefix)
    next_refresh = refresh_every_ms

    def control_plane(clock: ManualClock) -> None:
        nonlocal next_refresh
        now = clock.now()
        supervisor.fire_kills(kill_specs, router.workers, now, now)
        router.tick(now)
        if now >= next_refresh:
            router.refresh_replicas()
            stale = router.check_replica_consistency()
            if slo is not None:
                slo.observe("replica_check", now=now)
                if stale:
                    slo.observe("staleness", now=now, count=stale)
            next_refresh = now + refresh_every_ms

    def settle(clock: ManualClock) -> None:
        # A scheduled kill beyond the traffic window still fires: keep the
        # clock moving until every spec has fired, then through the
        # heartbeat detection window, so the silent death is caught by the
        # backstop and the quiesce phase drives readmission.
        if any(not ks.done for ks in kill_specs):
            while any(not ks.done for ks in kill_specs):
                clock.advance(sc.heartbeat_interval_ms)
                control_plane(clock)
            horizon = clock.now() + router.health.detection_window_ms \
                + sc.heartbeat_interval_ms
            while clock.now() < horizon:
                clock.advance(sc.heartbeat_interval_ms)
                control_plane(clock)
        if sc.restart_after_ms is not None:
            supervisor.quiesce(
                clock, router.health,
                lambda: router.tick(clock.now(), probe_faults=False),
                restart_after_ms=sc.restart_after_ms,
                rewarm_ms=sc.rewarm_ms, hang_ms=sc.hang_ms)

    return run_load(
        router, num_requests=num_requests,
        mean_interarrival_ms=mean_interarrival_ms, deadline_ms=deadline_ms,
        malformed=malformed, seed=seed, clock=clock, slo=slo,
        control_plane=control_plane, settle=settle,
        tier_report=_shard_report,
    )
