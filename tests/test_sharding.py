"""Tests for the sharded serving tier (ISSUE-6).

The acceptance spec: topology tiles every table with bounded imbalance,
failover to the hot-row replica is **bit-identical** for mirrored rows,
chaos at every ``shard.*`` site reconciles against the defensive
ledgers with zero lost accepted requests, the health plane detects a
silent death within one heartbeat window, and a killed shard walks the
supervised restart → re-warm → readmission path.
"""

import numpy as np
import pytest

from repro.data import KAGGLE
from repro.inference import Predictor
from repro.models import DLRMConfig, TTConfig, build_ttrec
from repro.reliability import FaultInjector
from repro.serving import ManualClock, Request, ServerConfig
from repro.sharding import (
    ReplicaStore,
    ShardConfig,
    ShardRouter,
    build_shard_plan,
    parse_kill_spec,
    pool_rows,
    run_sharded_load,
)
from repro.telemetry import get_registry

SPEC = KAGGLE.scaled(0.0003)
CFG = DLRMConfig(table_sizes=SPEC.table_sizes, emb_dim=8,
                 bottom_mlp=(16,), top_mlp=(16,))


@pytest.fixture(autouse=True)
def _fresh_metrics():
    """Serving and shard counters live in the process-wide registry."""
    reg = get_registry()
    reg.reset(prefix="serving.")
    reg.reset(prefix="shard.")
    yield
    reg.reset(prefix="serving.")
    reg.reset(prefix="shard.")


@pytest.fixture(scope="module")
def predictor():
    # Nothing to pin: a row's bits depend on its id and the table's shape
    # alone (TestLookupIsBatchIndependent), which is what lets replica
    # failover promise bit-identity.
    tt = TTConfig(rank=4, use_cache=False)
    model = build_ttrec(CFG, num_tt_tables=5, tt=tt, min_rows=50, rng=0)
    return Predictor(model)


def make_router(predictor, *, num_shards=3, injector=None, clock=None,
                shard_kwargs=None, server_kwargs=None):
    clock = clock if clock is not None else ManualClock()
    return ShardRouter(
        predictor,
        config=ServerConfig(**(server_kwargs or {})),
        shard_config=ShardConfig(num_shards=num_shards,
                                 **(shard_kwargs or {})),
        injector=injector, clock=clock,
    ), clock


def hot_request(rng, rid, *, hot_rows=64, deadline_ms=None):
    """A request whose ids all fall in every slice's mirrored head."""
    sparse = [
        rng.integers(0, min(hot_rows, size), size=2)
        for size in CFG.table_sizes
    ]
    return Request(dense=rng.normal(size=CFG.num_dense), sparse=sparse,
                   deadline_ms=deadline_ms, request_id=rid)


# ---------------------------------------------------------------------- #
# Topology
# ---------------------------------------------------------------------- #

class TestShardPlan:
    def test_slices_tile_every_table(self):
        plan = build_shard_plan(CFG.table_sizes, 4)
        for t, size in enumerate(CFG.table_sizes):
            parts = plan.slices_of_table(t)
            assert parts[0].row_lo == 0 and parts[-1].row_hi == size
            for a, b in zip(parts, parts[1:]):
                assert a.row_hi == b.row_lo

    def test_giant_table_is_row_split(self):
        sizes = (100_000, 10, 10, 10)
        plan = build_shard_plan(sizes, 4)
        parts = plan.slices_of_table(0)
        assert len(parts) > 1
        assert {sl.shard for sl in parts} == set(range(4))
        hi, lo = plan.spread()
        assert hi - lo <= sizes[0]  # and in fact far tighter:
        assert hi <= 1.2 * sum(sizes) / 4

    def test_replica_is_a_sibling(self):
        plan = build_shard_plan(CFG.table_sizes, 4)
        for sl in plan.slices:
            assert sl.replica != sl.shard
            assert 0 <= sl.replica < 4

    def test_single_shard_degenerate(self):
        plan = build_shard_plan(CFG.table_sizes, 1)
        assert all(sl.shard == 0 and sl.replica == 0 for sl in plan.slices)

    def test_deterministic(self):
        a = build_shard_plan(CFG.table_sizes, 4)
        b = build_shard_plan(CFG.table_sizes, 4)
        assert [sl.describe() for sl in a.slices] \
            == [sl.describe() for sl in b.slices]

    @pytest.mark.parametrize("seed", range(5))
    def test_property_spread_bounded(self, seed):
        rng = np.random.default_rng(seed)
        sizes = tuple(int(10 ** rng.uniform(1, 5)) for _ in range(12))
        for shards in (2, 4, 7):
            plan = build_shard_plan(sizes, shards)
            hi, lo = plan.spread()
            # Row-splitting caps every piece at the ideal share, so the
            # LPT bound applies to pieces, not whole tables.
            max_piece = max(sl.num_rows for sl in plan.slices)
            assert hi - lo <= max_piece

    def test_covers_mask(self):
        plan = build_shard_plan((100,), 1)
        sl = plan.slices[0]
        np.testing.assert_array_equal(
            sl.covers(np.array([0, 50, 99, 100, -1])),
            [True, True, True, False, False],
        )


# ---------------------------------------------------------------------- #
# Replication primitives
# ---------------------------------------------------------------------- #

class TestReplicaStore:
    def _slice(self):
        return build_shard_plan((100,), 1).slices[0]

    def test_warm_gather_roundtrip(self):
        sl = self._slice()
        rows = np.arange(800, dtype=np.float64).reshape(100, 8)
        store = ReplicaStore(hot_rows=16)
        n = store.warm(sl, np.arange(30), lambda ids: rows[ids])
        assert n == 16  # capped at hot_rows
        got = store.gather(sl, np.array([3, 1, 3]))
        np.testing.assert_array_equal(got, rows[[3, 1, 3]])

    def test_coverage_mask(self):
        sl = self._slice()
        rows = np.zeros((100, 8))
        store = ReplicaStore(hot_rows=4)
        store.warm(sl, np.array([5, 7, 9, 11]), lambda ids: rows[ids])
        np.testing.assert_array_equal(
            store.coverage(sl, np.array([5, 6, 11])), [True, False, True]
        )

    def test_consistency_check_detects_and_repairs(self):
        sl = self._slice()
        rows = np.random.default_rng(0).normal(size=(100, 8))
        store = ReplicaStore(hot_rows=8)
        store.warm(sl, np.arange(8), lambda ids: rows[ids])
        mirror = store._mirrors[(0, 0)]
        mirror.rows[2, 3] += 1e-9  # a single flipped bit is a violation
        assert store.consistency_check(sl, lambda ids: rows[ids]) == 1
        assert store.consistency_check(sl, lambda ids: rows[ids]) == 0
        assert store.stats()["violations"] == 1

    def test_pool_rows_matches_naive(self):
        rng = np.random.default_rng(1)
        rows = rng.normal(size=(10, 4))
        bag_of = np.array([0, 0, 1, 2, 2, 2, 4, 4, 4, 4])
        pooled = pool_rows(rows, bag_of, 5, 4)
        for b in range(5):
            np.testing.assert_array_equal(pooled[b],
                                          rows[bag_of == b].sum(axis=0))


# ---------------------------------------------------------------------- #
# Failover determinism (the headline property)
# ---------------------------------------------------------------------- #

class TestFailoverDeterminism:
    def _serve(self, router, clock, requests):
        for req in requests:
            clock.advance(1.0)
            status = router.submit(req)
            assert status["status"] == "queued"
        out = {}
        for resp in router.drain():
            out[resp["request_id"]] = resp
        return out

    def test_replica_failover_is_bit_identical(self, predictor):
        rng = np.random.default_rng(7)
        requests = [hot_request(rng, rid) for rid in range(16)]

        router_a, clock_a = make_router(predictor)
        healthy = self._serve(router_a, clock_a, requests)

        get_registry().reset(prefix="serving.")
        get_registry().reset(prefix="shard.")
        router_b, clock_b = make_router(predictor)
        victim = 1
        router_b.kill_shard(victim, clock_b.now())
        failed_over = self._serve(router_b, clock_b, requests)

        assert router_b.stats()["replica_hits"] > 0
        assert router_b.stats()["prior_fills"] == 0
        for rid, resp in healthy.items():
            # Bit-identical, not approximately equal: the replica path
            # materialises the same lookup rows and pools with the same
            # reduction as the primary.
            assert resp["prob"] == failed_over[rid]["prob"], (
                f"request {rid}: primary {resp['prob']!r} != "
                f"replica {failed_over[rid]['prob']!r}"
            )
        assert any(r["degraded"] for r in failed_over.values())
        assert not any(r["degraded"] for r in healthy.values())

    def test_unmirrored_rows_fall_to_prior(self, predictor):
        rng = np.random.default_rng(3)
        router, clock = make_router(predictor,
                                    shard_kwargs={"hot_rows": 4})
        router.kill_shard(0, clock.now())
        # Ids far beyond any 4-row mirror head on at least some tables.
        sparse = [np.array([size - 1], dtype=np.int64)
                  for size in CFG.table_sizes]
        req = Request(dense=rng.normal(size=CFG.num_dense), sparse=sparse,
                      deadline_ms=None, request_id=0)
        assert router.submit(req)["status"] == "queued"
        (resp,) = router.drain()
        assert np.isfinite(resp["prob"])
        assert resp["degraded"]
        assert router.stats()["prior_fills"] > 0


# ---------------------------------------------------------------------- #
# Chaos reconciliation
# ---------------------------------------------------------------------- #

class TestShardChaos:
    @pytest.mark.parametrize("seed", range(3))
    def test_crash_slow_chaos_reconciles(self, predictor, seed):
        inj = FaultInjector(seed=seed)
        inj.register("shard.crash", 0.02)
        inj.register("shard.slow", 0.08)
        router, clock = make_router(predictor, injector=inj)
        report = run_sharded_load(router, num_requests=250, seed=seed,
                                  clock=clock)
        assert report["reconciliation"]["passed"], \
            report["reconciliation"]["checks"]
        assert report["non_finite_outputs"] == 0
        # Every shard the chaos took out was readmitted by the end.
        assert report["ready"]["full_capacity"]
        assert report["served"] + report["outcomes"]["shed"] \
            + report["outcomes"]["rejected"] \
            + report["stats"]["shed"]["deadline"] == report["requests"]

    def test_all_sites_chaos_reconciles(self, predictor):
        inj = FaultInjector(seed=11)
        inj.register("shard.crash", 0.01)
        inj.register("shard.hang", 0.01)
        inj.register("shard.slow", 0.05)
        inj.register("shard.net_drop", 0.05)
        inj.register("serving.backend", 0.03)
        router, clock = make_router(predictor, injector=inj)
        report = run_sharded_load(router, num_requests=300, seed=5,
                                  clock=clock,
                                  kill_specs=[parse_kill_spec("2@40ms")])
        assert report["reconciliation"]["passed"], \
            report["reconciliation"]["checks"]
        assert report["non_finite_outputs"] == 0
        assert report["failovers"] >= 1  # the scheduled kill at least
        assert "fleet_readmitted" in report["reconciliation"]["checks"]
        assert report["ready"]["full_capacity"]

    def test_failover_latency_reported(self, predictor):
        router, clock = make_router(predictor)
        report = run_sharded_load(router, num_requests=150, seed=0,
                                  clock=clock,
                                  kill_specs=[parse_kill_spec("1@30ms")])
        assert report["failover_ms"]["count"] >= 1
        assert report["failover_ms"]["p99"] >= 0.0


# ---------------------------------------------------------------------- #
# Health plane and supervised recovery
# ---------------------------------------------------------------------- #

class TestHealthPlane:
    def test_silent_death_detected_within_window(self, predictor):
        router, clock = make_router(
            predictor,
            shard_kwargs={"heartbeat_interval_ms": 50.0,
                          "miss_threshold": 3,
                          "restart_after_ms": None},
        )
        router.tick(clock.now())  # baseline probe round at t=0
        clock.advance(10.0)
        kill_at = clock.now()
        router.workers[2].kill(kill_at, cause="scheduled")
        window = router.health.detection_window_ms
        while router.health.is_up(2):
            clock.advance(25.0)
            router.tick(clock.now())
            assert clock.now() - kill_at <= window + 50.0 + 25.0, \
                "heartbeat backstop missed its detection window"
        down_at = router.health.marked_down_at[2]
        assert down_at is not None
        assert down_at - kill_at <= window + 50.0
        assert router.healthz()["status"] == "degraded"
        assert router.healthz()["shards"]["up"] == 2
        assert router.readyz() == {"ready": True, "full_capacity": False,
                                   "shards_up": 2}

    def test_restart_rewarm_readmit(self, predictor):
        router, clock = make_router(
            predictor,
            shard_kwargs={"heartbeat_interval_ms": 20.0,
                          "miss_threshold": 2,
                          "restart_after_ms": 100.0,
                          "rewarm_ms": 50.0},
        )
        router.tick(clock.now())
        clock.advance(5.0)
        router.kill_shard(1, clock.now())
        for _ in range(60):
            clock.advance(10.0)
            router.tick(clock.now())
            if router.health.is_up(1) \
                    and router.workers[1].state == "up":
                break
        else:
            pytest.fail("shard 1 never readmitted")
        stats = router.workers[1].stats()
        assert stats["rewarmed_rows"] > 0
        assert router.readyz()["full_capacity"]
        # The readmitted shard's mirrors were refreshed and audited.
        assert sum(r["consistency_checks"]
                   for r in router.stats()["replicas"]) > 0

    def test_dispatch_failure_marks_down_fail_fast(self, predictor):
        rng = np.random.default_rng(0)
        router, clock = make_router(predictor)
        router.kill_shard(0, clock.now())
        assert router.health.is_up(0)  # not yet detected
        clock.advance(1.0)
        assert router.submit(hot_request(rng, 0))["status"] == "queued"
        router.drain()
        assert not router.health.is_up(0)  # fail-fast on the dispatch

    def _serve_one(self, router, clock, rng, rid):
        clock.advance(1.0)
        assert router.submit(hot_request(rng, rid))["status"] == "queued"
        (resp,) = router.drain()
        return resp

    def test_single_timeout_does_not_mark_down(self, predictor):
        """One slow dispatch is a breaker strike, not a dead shard."""
        rng = np.random.default_rng(2)
        router, clock = make_router(predictor)
        worker = router.workers[0]
        worker._pending_penalty_ms = \
            10 * router.shard_config.shard_deadline_ms
        resp = self._serve_one(router, clock, rng, 0)
        assert resp["degraded"]  # this dispatch failed over...
        assert router.health.is_up(0)  # ...but the shard stays up
        assert worker.breaker.state == "closed"
        assert worker.breaker.snapshot()["recent_failures"] == 1
        # The penalty was transient: the next batch is served clean.
        resp = self._serve_one(router, clock, rng, 1)
        assert not resp["degraded"]

    def test_breaker_opening_marks_down_then_readmits(self, predictor):
        """Repeated timeouts open the breaker -> down -> re-warm -> up."""
        rng = np.random.default_rng(4)
        router, clock = make_router(
            predictor,
            shard_kwargs={"restart_after_ms": 60.0, "rewarm_ms": 30.0},
        )
        worker = router.workers[0]
        threshold = router.config.failure_threshold
        for rid in range(threshold):
            assert router.health.is_up(0)
            worker._pending_penalty_ms = \
                10 * router.shard_config.shard_deadline_ms
            self._serve_one(router, clock, rng, rid)
        assert worker.breaker.state == "open"
        assert not router.health.is_up(0)  # down only once it opened
        assert router.health.verdict[0] == "down"
        # The worker itself never died; the supervisor still routes it
        # through forced re-warm before readmission.
        assert worker.state == "up"
        for _ in range(40):
            clock.advance(10.0)
            router.tick(clock.now())
            if router.health.is_up(0):
                break
        else:
            pytest.fail("breaker-marked shard never readmitted")
        assert worker.state == "up"
        assert worker.breaker.state == "closed"  # clean slate on readmit
        assert router.readyz()["full_capacity"]
        resp = self._serve_one(router, clock, rng, 99)
        assert not resp["degraded"]

    def test_hung_shard_self_heals_and_is_readmitted(self, predictor):
        """Heartbeat-detected hang: shard self-heals, re-warms, rejoins."""
        router, clock = make_router(
            predictor,
            shard_kwargs={"heartbeat_interval_ms": 20.0,
                          "miss_threshold": 2, "hang_ms": 60.0,
                          "restart_after_ms": 80.0, "rewarm_ms": 30.0},
        )
        router.tick(clock.now())
        clock.advance(5.0)
        worker = router.workers[1]
        now = clock.now()
        worker.state = "hung"
        worker.hang_until = now + worker.hang_ms
        worker.impaired_since = now
        saw_down = False
        for _ in range(60):
            clock.advance(10.0)
            router.tick(clock.now())
            saw_down = saw_down or not router.health.is_up(1)
            if saw_down and router.health.is_up(1) \
                    and worker.state == "up":
                break
        else:
            pytest.fail("hung shard never marked down + readmitted")
        assert worker.stats()["crashes"] == 0  # healed, never killed
        assert worker.stats()["rewarmed_rows"] > 0
        assert router.readyz()["full_capacity"]

    def test_watchdog_kills_shard_hung_past_restart_deadline(self,
                                                             predictor):
        """A wedged worker is killed and restarted, not waited out."""
        router, clock = make_router(
            predictor,
            shard_kwargs={"heartbeat_interval_ms": 20.0,
                          "miss_threshold": 2, "hang_ms": 100_000.0,
                          "restart_after_ms": 80.0, "rewarm_ms": 30.0},
        )
        router.tick(clock.now())
        clock.advance(5.0)
        worker = router.workers[2]
        now = clock.now()
        worker.state = "hung"
        worker.hang_until = now + worker.hang_ms
        worker.impaired_since = now
        for _ in range(60):
            clock.advance(10.0)
            router.tick(clock.now())
            if router.health.is_up(2) and worker.state == "up":
                break
        else:
            pytest.fail("wedged shard never watchdog-restarted")
        # Killed by the watchdog (scheduled-kill ledger, not a chaos
        # crash: reconciliation against shard.crash stays balanced).
        assert worker.stats()["crashes"] == 0
        assert worker.stats()["rewarmed_rows"] > 0
        assert router.readyz()["full_capacity"]


# ---------------------------------------------------------------------- #
# Kill-spec parsing
# ---------------------------------------------------------------------- #

class TestKillSpec:
    @pytest.mark.parametrize("spec,shard,at_ms", [
        ("1@2s", 1, 2000.0),
        ("0@500ms", 0, 500.0),
        ("3@250", 3, 250.0),
        (" 2@1.5s ", 2, 1500.0),
    ])
    def test_parses(self, spec, shard, at_ms):
        ks = parse_kill_spec(spec)
        assert (ks.unit, ks.at) == (shard, at_ms)

    @pytest.mark.parametrize("bad", ["", "x@2s", "1@", "1@2m", "@2s", "1"])
    def test_rejects_garbage(self, bad):
        with pytest.raises(ValueError):
            parse_kill_spec(bad)

    def test_kill_targets_existing_shard(self, predictor):
        router, clock = make_router(predictor, num_shards=2)
        with pytest.raises(ValueError, match="shard 7"):
            run_sharded_load(router, num_requests=1, clock=clock,
                             kill_specs=[parse_kill_spec("7@1ms")])
