"""Tests for the supervised-worker runtime (``repro.runtime``).

One lifecycle suite runs against the state machine's payload, a 2-slice
:class:`ShardWorker`, so "how a simulated process fails and is readmitted"
is asserted once; a seeded property test then drives it through random
message sequences and requires its counters to match the injector ledger
and every state to be visited. The kill-spec grammar cases run against
the one parser, and the ledger fold's one rule for which rows gate a
verdict is pinned at the end.
"""

import numpy as np
import pytest

from repro.ops.embedding import EmbeddingBag
from repro.reliability import FaultInjector
from repro.runtime.supervisor import (
    KillSpec,
    fire_kills,
    parse_kill_spec,
    reconcile_ledger,
)
from repro.runtime.worker import (
    SupervisedWorker,
    WorkerDown,
    WorkerNetDrop,
    WorkerTimeout,
)
from repro.serving import CircuitBreaker
from repro.sharding import ShardWorker, build_shard_plan
from repro.telemetry import get_registry

TIMING = dict(service_ms=10.0, slow_penalty_ms=30.0, hang_ms=120.0,
              rewarm_ms=50.0)
KINDS = ("crash", "hang", "slow", "net_drop")


@pytest.fixture(autouse=True)
def _fresh_metrics():
    reg = get_registry()
    for prefix in ("shard.", "serving."):
        reg.reset(prefix=prefix)
    yield


class Payload:
    """A worker plus the tier-specific way to dispatch to and readmit it."""

    def __init__(self, worker: SupervisedWorker, dispatch, readmit):
        self.worker = worker
        self.dispatch = dispatch   # (now, deadline_ms) -> simulated ms
        self.readmit = readmit     # (now) -> None

    def counter(self, name: str) -> int:
        w = self.worker
        return get_registry().counter(f"{w.site_prefix}.{name}",
                                      **{w.label: str(w.unit_id)}).value


def shard_payload(injector=None) -> Payload:
    sizes = (40, 24)
    slices = build_shard_plan(sizes, 1).slices
    tables = [EmbeddingBag(n, 4, rng=t) for t, n in enumerate(sizes)]
    worker = ShardWorker(
        0, slices, tables, [np.zeros(4) for _ in sizes], emb_dim=4,
        breaker=CircuitBreaker("shard0"), injector=injector, **TIMING)
    requests = [(sl, np.array([sl.row_lo]), np.array([0, 1]))
                for sl in slices]
    return Payload(worker,
                   lambda now, deadline: worker.dispatch(
                       requests, now, deadline)[1],
                   lambda now: worker.complete_rewarm({}))


@pytest.fixture(params=["shard"])
def make_payload(request):
    """The payload factory; the id names the tier."""
    return shard_payload


def injector_for(worker_cls, seed=0, **rates) -> FaultInjector:
    inj = FaultInjector(seed=seed)
    for kind in KINDS:
        if kind in rates:
            inj.register(f"{worker_cls.site_prefix}.{kind}", rates[kind])
    return inj


# --------------------------------------------------------------------- #
# Lifecycle
# --------------------------------------------------------------------- #

class TestLifecycle:
    def test_timings_match(self, make_payload):
        w = make_payload().worker
        assert {k: getattr(w, k) for k in TIMING} == TIMING

    def test_hang_self_heals_after_hang_ms(self, make_payload):
        p = make_payload()
        w = p.worker
        w.state, w.hang_until, w.impaired_since = "hung", 120.0, 0.0
        assert w.heartbeat(50.0) is None
        with pytest.raises(WorkerTimeout):
            p.dispatch(60.0, 50.0)
        assert w.state == "hung"
        assert w.heartbeat(120.0)["state"] == "up"
        assert (w.state, w.hang_until, w.impaired_since) == ("up", -1.0, None)
        assert p.dispatch(121.0, 50.0) == w.service_ms

    def test_still_hung_at_restart_is_watchdog_killed(self, make_payload):
        p = make_payload()
        w = p.worker
        w.state, w.hang_until, w.impaired_since = "hung", 1e9, 5.0
        w.begin_rewarm(100.0)
        assert w.state == "rewarming"
        assert w.rewarm_until == 100.0 + w.rewarm_ms
        # Killed by the watchdog: not an injector crash.
        assert p.counter("kills_scheduled") == 1
        assert w.stats()["crashes"] == 0

    def test_self_healed_worker_is_forced_through_rewarm(self, make_payload):
        w = make_payload().worker
        w.begin_rewarm(10.0)               # never left "up"
        assert w.state == "rewarming" and w.rewarm_until == 10.0 + w.rewarm_ms
        w.begin_rewarm(20.0)               # idempotent while rewarming
        assert w.rewarm_until == 10.0 + w.rewarm_ms

    def test_down_restart_rewarm_readmit(self, make_payload):
        p = make_payload()
        w = p.worker
        w.kill(100.0)
        assert w.state == "down" and w.impaired_since == 100.0
        assert w.heartbeat(110.0) is None
        with pytest.raises(WorkerDown):
            p.dispatch(120.0, 50.0)
        w.restart(200.0)
        assert w.state == "rewarming"
        assert w.rewarm_until == 200.0 + w.rewarm_ms
        assert w.impaired_since == 100.0   # the outage is not over yet
        p.readmit(260.0)
        assert (w.state, w.rewarm_until, w.impaired_since) == ("up", -1.0,
                                                               None)
        assert p.dispatch(261.0, 50.0) == w.service_ms

    def test_restart_is_a_noop_unless_down(self, make_payload):
        w = make_payload().worker
        w.restart(10.0)
        assert w.state == "up" and w.rewarm_until == -1.0

    def test_rewarming_heartbeats_but_refuses_dispatch(self, make_payload):
        p = make_payload()
        w = p.worker
        w.kill(0.0)
        w.restart(10.0)
        reply = w.heartbeat(20.0)
        assert reply == {w.label: 0, "state": "rewarming", "at_ms": 20.0}
        with pytest.raises(WorkerDown):
            p.dispatch(30.0, 50.0)
        assert w.stats()["dispatches"] == 0

    def test_slow_penalty_over_deadline_is_consumed_once(self, make_payload):
        p = make_payload()
        w = p.worker
        w._pending_penalty_ms = w.slow_penalty_ms
        with pytest.raises(WorkerTimeout):
            p.dispatch(0.0, w.service_ms + w.slow_penalty_ms - 1.0)
        assert w._pending_penalty_ms == 0.0
        assert p.dispatch(10.0, w.service_ms) == w.service_ms
        assert w.stats()["dispatches"] == 1

    def test_slow_site_penalises_the_next_dispatch(self, make_payload):
        cls = make_payload().worker.__class__
        p = make_payload(injector_for(cls, slow=1.0))
        w = p.worker
        assert p.dispatch(0.0, 1e9) == w.service_ms + w.slow_penalty_ms
        assert w.stats()["slows"] == 1

    def test_kill_ledgers_are_separate(self, make_payload):
        cls = make_payload().worker.__class__
        p = make_payload(injector_for(cls, crash=1.0))
        w = p.worker
        w.kill(0.0, cause="scheduled")
        w.kill(1.0, cause="scheduled")     # already down: not recounted
        assert (p.counter("kills_scheduled"), w.stats()["crashes"]) == (1, 0)
        w.restart(10.0)
        p.readmit(70.0)
        w.probe_faults(80.0)               # injector crash, rate 1.0
        assert w.state == "down"
        assert (p.counter("kills_scheduled"), w.stats()["crashes"]) == (1, 1)
        assert w.injector.fired[f"{w.site_prefix}.crash"] == 1

    def test_net_drop_is_probed_before_the_hung_check(self, make_payload):
        """A message to a hung worker can still be lost in transit, and is
        counted as lost."""
        cls = make_payload().worker.__class__
        p = make_payload(injector_for(cls, net_drop=1.0))
        w = p.worker
        w.state, w.hang_until = "hung", 1e9
        with pytest.raises(WorkerNetDrop):
            p.dispatch(0.0, 50.0)
        assert w.stats()["net_drops"] == 1


# --------------------------------------------------------------------- #
# Random messages under faults: the ledger matches, every state is visited
# --------------------------------------------------------------------- #

def drive(payload: Payload, ops_seed: int, steps: int = 160) -> list:
    """Random probe / heartbeat / dispatch / advance (+ the supervisor's
    rewarm / readmit) messages; returns the (op, outcome, state) trace."""
    rng = np.random.default_rng(ops_seed)
    w = payload.worker
    now, trace = 0.0, []
    for _ in range(steps):
        op = ("probe", "heartbeat", "dispatch", "advance", "rewarm",
              "readmit")[int(rng.integers(0, 6))]
        outcome = None
        if op == "probe":
            w.probe_faults(now)
        elif op == "heartbeat":
            reply = w.heartbeat(now)
            outcome = None if reply is None else reply["state"]
        elif op == "dispatch":
            deadline = float(rng.choice([20.0, 50.0]))
            try:
                outcome = payload.dispatch(now, deadline)
            except (WorkerDown, WorkerTimeout, WorkerNetDrop) as exc:
                outcome = type(exc).__name__
        elif op == "advance":
            now += float(rng.choice([5.0, 40.0, 130.0]))
        elif op == "rewarm":
            w.begin_rewarm(now)
        elif w.state == "rewarming" and now >= w.rewarm_until:
            payload.readmit(now)
            outcome = "readmitted"
        trace.append((op, outcome, w.state, w.impaired_since))
    return trace


def test_random_walk_matches_the_ledger_and_visits_every_state():
    rates = dict(crash=0.1, hang=0.2, slow=0.2, net_drop=0.1)
    visited = set()
    for seed in range(4):
        get_registry().reset(prefix=f"{ShardWorker.site_prefix}.")
        injector = injector_for(ShardWorker, seed=seed, **rates)
        payload = shard_payload(injector)
        trace = drive(payload, ops_seed=100 + seed)
        stats = payload.worker.stats()
        assert [stats[c] for c in ("crashes", "hangs", "slows", "net_drops")] \
            == [injector.fired[f"{ShardWorker.site_prefix}.{kind}"]
                for kind in KINDS], f"seed {seed}"
        visited |= {state for _, _, state, _ in trace}
    # The walks are not vacuous: every state of the machine was visited.
    assert visited == {"up", "hung", "down", "rewarming"}


# --------------------------------------------------------------------- #
# Kill-spec grammar
# --------------------------------------------------------------------- #

class TestKillSpec:
    @pytest.mark.parametrize("spec,unit,at", [
        ("1@2s", 1, 2000.0),
        ("0@500ms", 0, 500.0),
        ("3@250", 3, 250.0),
        (" 2@1.5s ", 2, 1500.0),
    ])
    def test_parses_times(self, spec, unit, at):
        ks = parse_kill_spec(spec)
        assert (ks.unit, ks.at, ks.done) == (unit, at, False)

    @pytest.mark.parametrize("bad", ["", "x@2s", "1@", "1@2m", "@2s", "1"])
    def test_rejects_malformed_times(self, bad):
        with pytest.raises(ValueError):
            parse_kill_spec(bad)

    def test_direct_construction_is_validated(self):
        with pytest.raises(ValueError):
            KillSpec(-1, 5)
        with pytest.raises(ValueError):
            KillSpec(0, -1.0)

    def test_fire_kills_fires_each_spec_once(self, make_payload):
        p = make_payload()
        specs = [KillSpec(0, 30)]
        fire_kills(specs, [p.worker], 29, 1.0)
        assert p.worker.state == "up" and not specs[0].done
        fire_kills(specs, [p.worker], 30, 2.0)
        assert p.worker.state == "down" and specs[0].done
        assert p.worker.impaired_since == 2.0
        p.worker.restart(3.0)
        fire_kills(specs, [p.worker], 31, 4.0)   # done: does not re-fire
        assert p.worker.state == "rewarming"
        assert p.counter("kills_scheduled") == 1


# --------------------------------------------------------------------- #
# The ledger fold: which rows gate a verdict
# --------------------------------------------------------------------- #

class TestReconcileLedger:
    FAULTS = {"site_counted": ("x.site", 1)}      # fired twice, counted once
    INVARIANTS = {"kept": (5, 5)}

    def _injector(self):
        inj = FaultInjector(seed=0).register("x.site", 1.0)
        assert inj.fires("x.site") and inj.fires("x.site")
        return inj

    def test_fault_rows_gate_an_injector_over_clean_traffic(self):
        recon = reconcile_ledger(self._injector(), self.FAULTS,
                                 self.INVARIANTS)
        assert recon["checked"] and not recon["passed"]
        assert list(recon["checks"]) == ["site_counted", "kept"]
        assert recon["checks"]["site_counted"] == {
            "fired": 2, "counted": 1, "passed": False}
        assert "skipped" not in recon

    def test_unclean_traffic_leaves_the_fault_rows_out_and_says_so(self):
        recon = reconcile_ledger(self._injector(), self.FAULTS,
                                 self.INVARIANTS, clean=False)
        assert not recon["checked"] and recon["passed"]
        assert list(recon["checks"]) == ["kept"]
        assert "malformed traffic" in recon["skipped"]
        # Nothing fired without an injector, so nothing is skipped either.
        assert "skipped" not in reconcile_ledger(None, self.FAULTS,
                                                 self.INVARIANTS, clean=False)

    @pytest.mark.parametrize("injector", [None, "armed"])
    @pytest.mark.parametrize("clean", [True, False])
    def test_invariants_gate_always(self, injector, clean):
        recon = reconcile_ledger(injector and self._injector(), {},
                                 {"kept": (5, 4)}, clean=clean)
        assert not recon["passed"]
        assert recon["checks"]["kept"] == {
            "fired": 5, "counted": 4, "passed": False}
