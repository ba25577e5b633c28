"""Chaos and property tests for the hardened serving runtime.

Covers the ISSUE-3 acceptance spec: faults injected at every ``serving.*``
site never produce a non-finite probability, the circuit breaker walks
its closed/open/half-open FSM per spec, shed requests are counted, and
random malformed offsets/indices never escape the admission layer.
"""

import numpy as np
import pytest

from repro.data import KAGGLE, SyntheticCTRDataset
from repro.inference import Predictor
from repro.models import DLRMConfig, TTConfig, build_ttrec
from repro.ops.activations import sigmoid
from repro.reliability import FaultInjector
from repro.serving import (
    CircuitBreaker,
    InferenceServer,
    ManualClock,
    MicroBatchQueue,
    Rejection,
    Request,
    RequestSanitizer,
    SanitizedRequest,
    ServerConfig,
    repair_offsets,
    run_load,
)
from repro.utils.validation import check_csr

SPEC = KAGGLE.scaled(0.0003)
CFG = DLRMConfig(table_sizes=SPEC.table_sizes, emb_dim=8,
                 bottom_mlp=(16,), top_mlp=(16,))


@pytest.fixture(autouse=True)
def _fresh_serving_metrics():
    """Serving counters live in the process-wide registry; zero them so
    each test reads only its own server's activity."""
    from repro.telemetry import get_registry

    get_registry().reset(prefix="serving.")
    yield
    get_registry().reset(prefix="serving.")


@pytest.fixture(scope="module")
def predictor():
    tt = TTConfig(rank=4, use_cache=True, warmup_steps=0,
                  refresh_interval=None, cache_fraction=0.05)
    model = build_ttrec(CFG, num_tt_tables=5, tt=tt, min_rows=50, rng=0)
    ds = SyntheticCTRDataset(SPEC, seed=0, noise=0.7)
    from repro.training import Trainer

    Trainer(model, lr=0.1).train(ds.batches(64, 10))
    return Predictor(model)


def make_request(rng, rid=0, deadline_ms=None):
    return Request(
        dense=rng.normal(size=CFG.num_dense),
        sparse=[rng.integers(0, s, size=2) for s in CFG.table_sizes],
        deadline_ms=deadline_ms, request_id=rid,
    )


# ---------------------------------------------------------------------- #
# Admission layer
# ---------------------------------------------------------------------- #

class TestRepairOffsets:
    def test_valid_pair_unchanged(self):
        idx = np.array([3, 1, 4, 1, 5], dtype=np.int64)
        off = np.array([0, 2, 2, 5], dtype=np.int64)
        i2, o2, repaired = repair_offsets(idx, off, num_bags=3)
        assert not repaired
        np.testing.assert_array_equal(o2, off)
        np.testing.assert_array_equal(i2, idx)

    @pytest.mark.parametrize("seed", range(20))
    def test_random_garbage_always_repairs_to_valid_csr(self, seed):
        """Property: whatever the client sends, the repaired pair passes
        the operator contract (check_csr) exactly."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(0, 12))
        num_bags = int(rng.integers(1, 6))
        indices = rng.integers(-3, 10, size=n)
        kind = rng.integers(0, 4)
        if kind == 0:   # wrong length
            offsets = rng.integers(-5, n + 5, size=int(rng.integers(1, 9)))
        elif kind == 1:  # non-monotone / out-of-range values
            offsets = rng.integers(-5, n + 5, size=num_bags + 1)
        elif kind == 2:  # float offsets with NaN/Inf
            offsets = rng.normal(scale=n + 1, size=num_bags + 1)
            offsets[int(rng.integers(0, num_bags + 1))] = np.nan
        else:            # plausible but endpoints broken
            offsets = np.linspace(1, n + 2, num_bags + 1)
        fixed_idx, fixed_off, _ = repair_offsets(indices, offsets, num_bags)
        assert fixed_off.shape == (num_bags + 1,)
        # Range errors in *indices* are the sanitizer's job, not the
        # offset repairer's: lift them out before the contract check.
        check_csr(np.zeros_like(fixed_idx), fixed_off, num_rows=1)

    def test_total_membership_preserved(self):
        idx = np.arange(7)
        _, off, _ = repair_offsets(idx, np.array([2, 9, -1]), num_bags=2)
        assert off[0] == 0 and off[-1] == 7


class TestRequestSanitizer:
    def test_clean_request_admitted_unchanged(self):
        san = RequestSanitizer(CFG, oov_policy="clamp")
        rng = np.random.default_rng(0)
        req = make_request(rng, rid=7)
        out = san.sanitize(req)
        assert isinstance(out, SanitizedRequest)
        assert out.request_id == 7 and out.repairs == ()
        for t, ids in enumerate(out.values):
            np.testing.assert_array_equal(ids, req.sparse[t])

    def test_nan_dense_rejected_and_counted(self):
        san = RequestSanitizer(CFG)
        before = san.stats()["rejected"]["dense_non_finite"]
        req = make_request(np.random.default_rng(1))
        req.dense[3] = np.inf
        out = san.sanitize(req)
        assert isinstance(out, Rejection) and out.reason == "dense_non_finite"
        assert san.stats()["rejected"]["dense_non_finite"] == before + 1

    def test_wrong_dense_shape_rejected(self):
        san = RequestSanitizer(CFG)
        req = make_request(np.random.default_rng(2))
        req.dense = np.zeros(CFG.num_dense + 2)
        assert san.sanitize(req).reason == "dense_shape"

    def test_wrong_table_count_rejected(self):
        san = RequestSanitizer(CFG)
        req = make_request(np.random.default_rng(3))
        req.sparse = req.sparse[:-1]
        assert san.sanitize(req).reason == "table_count"

    def test_oov_clamped(self):
        san = RequestSanitizer(CFG, oov_policy="clamp")
        req = make_request(np.random.default_rng(4))
        req.sparse[0] = np.array([-4, CFG.table_sizes[0] + 100])
        out = san.sanitize(req)
        assert "oov_clamped" in out.repairs
        np.testing.assert_array_equal(
            out.values[0], [0, CFG.table_sizes[0] - 1]
        )

    def test_oov_hashed_lands_in_range_deterministically(self):
        san = RequestSanitizer(CFG, oov_policy="hash")
        req = make_request(np.random.default_rng(5))
        bad = np.array([-4, CFG.table_sizes[0] + 100])
        req.sparse[0] = bad
        out1 = san.sanitize(req)
        out2 = san.sanitize(req)
        assert "oov_hashed" in out1.repairs
        assert (0 <= out1.values[0]).all()
        assert (out1.values[0] < CFG.table_sizes[0]).all()
        np.testing.assert_array_equal(out1.values[0], out2.values[0])

    def test_oov_reject_policy(self):
        san = RequestSanitizer(CFG, oov_policy="reject")
        req = make_request(np.random.default_rng(6))
        req.sparse[2] = np.array([CFG.table_sizes[2]])
        assert san.sanitize(req).reason == "oov"

    def test_fractional_ids_rejected(self):
        san = RequestSanitizer(CFG)
        req = make_request(np.random.default_rng(7))
        req.sparse[1] = np.array([0.5, 1.25])
        assert san.sanitize(req).reason == "ids_dtype"

    def test_none_and_scalar_entries(self):
        san = RequestSanitizer(CFG)
        req = make_request(np.random.default_rng(8))
        req.sparse[0] = None
        req.sparse[1] = 3
        out = san.sanitize(req)
        assert out.values[0].size == 0
        np.testing.assert_array_equal(out.values[1], [3])

    @pytest.mark.parametrize("seed", range(15))
    @pytest.mark.parametrize("policy", ["clamp", "hash"])
    def test_property_malformed_never_escapes(self, seed, policy):
        """Random garbage requests either get rejected or come out
        satisfying every model input invariant."""
        san = RequestSanitizer(CFG, oov_policy=policy)
        rng = np.random.default_rng(seed)
        req = make_request(rng)
        t = int(rng.integers(0, CFG.num_tables))
        kind = rng.integers(0, 4)
        if kind == 0:
            req.sparse[t] = rng.integers(-10**6, 10**6, size=5)
        elif kind == 1:
            req.dense[int(rng.integers(0, CFG.num_dense))] = np.nan
        elif kind == 2:
            req.sparse[t] = rng.normal(size=4) * 100
        else:
            req.sparse[t] = None
        out = san.sanitize(req)
        if isinstance(out, Rejection):
            assert out.reason in ("dense_non_finite", "ids_dtype")
            return
        assert np.isfinite(out.dense).all()
        for tt, ids in enumerate(out.values):
            assert ids.dtype == np.int64
            if ids.size:
                assert 0 <= ids.min() and ids.max() < CFG.table_sizes[tt]

    def test_sanitize_table_csr_repairs_offsets(self):
        san = RequestSanitizer(CFG, oov_policy="clamp")
        before = san.stats()["sanitized"]["offsets_repaired"]
        ids, off = san.sanitize_table_csr(
            0, np.array([1, 2, 3]), np.array([1, 5, -2]), num_bags=2
        )
        check_csr(ids, off, CFG.table_sizes[0])
        assert san.stats()["sanitized"]["offsets_repaired"] == before + 1


# ---------------------------------------------------------------------- #
# Queue
# ---------------------------------------------------------------------- #

def queued(rid, deadline_ms=None):
    return SanitizedRequest(dense=np.zeros(2), values=[], request_id=rid,
                            deadline_ms=deadline_ms)


class TestMicroBatchQueue:
    @pytest.mark.parametrize("name, value", [
        ("max_depth", 0), ("max_batch", 0),
        ("default_deadline_ms", 0.0), ("default_deadline_ms", -1.0),
        ("default_deadline_ms", float("nan")),
        ("high_watermark", 0.0), ("high_watermark", 1.5),
    ])
    def test_rejects_bad_arguments(self, name, value):
        """A queue that could hold nothing, serve nothing or never shed at
        its deadline is refused, naming the argument."""
        with pytest.raises(ValueError, match=name):
            MicroBatchQueue(clock=ManualClock(), **{name: value})

    def test_depth_bound_sheds(self):
        clock = ManualClock()
        q = MicroBatchQueue(max_depth=3, max_batch=8, clock=clock)
        results = [q.submit(queued(i)) for i in range(5)]
        assert results == ["queued"] * 3 + ["shed_queue_full"] * 2
        assert q.shed_counts()["queue_full"] == 2
        assert q.depth == 3

    def test_batch_is_edf_ordered_and_bounded(self):
        clock = ManualClock()
        q = MicroBatchQueue(max_depth=16, max_batch=2, clock=clock)
        for rid, dl in ((0, 30.0), (1, 10.0), (2, 20.0)):
            q.submit(queued(rid, deadline_ms=dl))
        batch = q.next_batch()
        assert [r.request_id for r in batch] == [1, 2]
        assert q.depth == 1

    def test_expired_requests_shed_at_forming(self):
        clock = ManualClock()
        q = MicroBatchQueue(max_depth=16, max_batch=8,
                            default_deadline_ms=5.0, clock=clock)
        q.submit(queued(0))
        clock.advance(10.0)
        q.submit(queued(1))
        batch = q.next_batch()
        assert [r.request_id for r in batch] == [1]
        assert q.shed_counts()["deadline"] == 1

    def test_service_ewma_widens_infeasibility_horizon(self):
        clock = ManualClock()
        q = MicroBatchQueue(max_depth=16, max_batch=8,
                            default_deadline_ms=5.0, clock=clock)
        q.observe_service(100.0)  # service now takes far longer than 5 ms
        q.submit(queued(0))
        assert q.next_batch() == []
        assert q.shed_counts()["deadline"] == 1

    def test_one_stall_does_not_wedge_the_queue(self):
        """Regression: a single 10x-deadline observation used to push the
        EWMA above every default deadline; each next_batch then shed the
        whole queue, returned nothing, observe_service never ran again and
        the server shed forever."""
        from repro.telemetry import get_registry

        clock = ManualClock()
        q = MicroBatchQueue(max_depth=16, max_batch=8,
                            default_deadline_ms=50.0, clock=clock)
        q.observe_service(500.0)  # one stall, ten deadlines long
        submitted = served = calls = 0
        while not served:
            calls += 1
            assert calls <= 12, "queue stayed wedged"  # 0.8**11 < 1/10
            for _ in range(3):
                assert q.submit(queued(submitted)) == "queued"
                submitted += 1
            batch = q.next_batch()
            served += len(batch)
            if batch:
                q.observe_service(4.0)
            clock.advance(10.0)
        assert calls > 1  # the stall did shed: recovery is gradual, not a reset
        assert q.expected_service_ms < 50.0
        # Healthy again: the next arrivals are served at once ...
        q.submit(queued(submitted))
        submitted += 1
        served += len(q.next_batch())
        # ... and the ledger closes: every arrival was served or shed.
        assert q.depth == 0
        assert submitted == served + q.shed_counts()["deadline"]
        assert get_registry().counter("serving.enqueued").value == submitted

    def test_backpressure_watermark(self):
        q = MicroBatchQueue(max_depth=10, high_watermark=0.5,
                            clock=ManualClock())
        for i in range(4):
            q.submit(queued(i))
        assert not q.should_backpressure()
        q.submit(queued(4))
        assert q.should_backpressure()

    def test_queue_fault_sheds(self):
        inj = FaultInjector(seed=0).register("serving.queue", 1.0)
        q = MicroBatchQueue(max_depth=4, clock=ManualClock(), injector=inj)
        assert q.submit(queued(0)) == "shed_fault"
        assert q.depth == 0
        assert q.shed_counts()["fault"] == 1 == inj.fired["serving.queue"]


# ---------------------------------------------------------------------- #
# Circuit breaker FSM
# ---------------------------------------------------------------------- #

class TestCircuitBreaker:
    def brk(self, **kw):
        defaults = dict(failure_threshold=3, window=10, cooldown=4,
                        half_open_successes=2)
        defaults.update(kw)
        return CircuitBreaker("test", **defaults)

    def test_closed_until_threshold(self):
        b = self.brk()
        for _ in range(2):
            b.record_failure()
        assert b.state == "closed" and b.allow()
        b.record_failure()
        assert b.state == "open" and not b.allow()
        assert b.transitions == [("closed", "open")]

    def test_successes_age_out_of_window(self):
        b = self.brk(failure_threshold=3, window=4)
        for _ in range(2):
            b.record_failure()
        for _ in range(4):  # push the failures out of the window
            b.record_success()
        b.record_failure()
        assert b.state == "closed"

    def test_open_to_half_open_after_cooldown(self):
        b = self.brk(cooldown=3)
        for _ in range(3):
            b.record_failure()
        assert not b.allow() and not b.allow()
        assert b.allow()  # third probe ends the cooldown
        assert b.state == "half_open"

    def test_half_open_success_closes(self):
        b = self.brk(cooldown=1, half_open_successes=2)
        for _ in range(3):
            b.record_failure()
        assert b.allow()
        b.record_success()
        assert b.state == "half_open"
        b.record_success()
        assert b.state == "closed"
        assert b.transitions[-1] == ("half_open", "closed")

    def test_half_open_failure_reopens(self):
        b = self.brk(cooldown=1)
        for _ in range(3):
            b.record_failure()
        assert b.allow()
        b.record_failure()
        assert b.state == "open"
        assert b.transitions == [("closed", "open"), ("open", "half_open"),
                                 ("half_open", "open")]

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker("x", failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker("x", failure_threshold=5, window=3)
        with pytest.raises(ValueError):
            CircuitBreaker("x", cooldown=0)


# ---------------------------------------------------------------------- #
# Server + degradation ladder under chaos
# ---------------------------------------------------------------------- #

def small_config(**cfg_kw) -> ServerConfig:
    defaults = dict(failure_threshold=2, breaker_window=10, cooldown=3,
                    default_deadline_ms=1000.0)
    defaults.update(cfg_kw)
    return ServerConfig(**defaults)


def build_server(predictor, injector=None, **cfg_kw):
    """A server on a :class:`ManualClock` the test steps by hand."""
    clock = ManualClock()
    return InferenceServer(predictor, config=small_config(**cfg_kw),
                           injector=injector, clock=clock), clock


def wall_server(predictor, injector=None, **cfg_kw):
    """The same server on the default wall clock, as ``run_load``
    requires."""
    return InferenceServer(predictor, config=small_config(**cfg_kw),
                           injector=injector)


class TestInferenceServer:
    def test_matches_predictor_on_clean_traffic(self, predictor):
        server, _ = build_server(predictor)
        rng = np.random.default_rng(0)
        req = make_request(rng, rid=1)
        assert server.submit(req)["status"] == "queued"
        (resp,) = server.step()
        assert resp["request_id"] == 1 and not resp["degraded"]
        from repro.data.batching import make_offsets

        sparse = [(np.asarray(v), make_offsets(np.array([len(v)])))
                  for v in req.sparse]
        expected = sigmoid(predictor.predict_logits(req.dense.reshape(1, -1),
                                                    sparse))
        assert resp["prob"] == float(expected[0])

    def test_health_and_ready_probes(self, predictor):
        server, _ = build_server(predictor)
        assert server.readyz() == {"ready": True}
        h = server.healthz()
        assert h["status"] == "ok" and h["queue_depth"] == 0

    def test_poisoned_cache_served_by_lower_rung(self, predictor):
        server, _ = build_server(predictor)
        # Poison every cached table's resident rows directly, then request
        # exactly those resident ids so the primary rung must read them.
        embeddings = predictor.embeddings
        cached = [e for e in embeddings
                  if hasattr(e, "cache_rows") and e._cached_ids.size]
        assert cached, "fixture must include populated cached TT tables"
        try:
            for emb in cached:
                emb.cache_rows.data[:] = np.nan
            sparse = [
                np.array([emb._cached_ids[0]], dtype=np.int64)
                if (hasattr(emb, "cache_rows") and emb._cached_ids.size)
                else np.array([0], dtype=np.int64)
                for emb in embeddings
            ]
            req = Request(dense=np.zeros(CFG.num_dense), sparse=sparse)
            assert server.submit(req)["status"] == "queued"
            responses = server.drain()
        finally:
            for emb in cached:  # repair regardless: predictor is shared
                emb.scrub()
        assert responses and all(np.isfinite(r["prob"]) for r in responses)
        # The failing primary rung tripped its breaker, triggered the PR-1
        # scrub hook, and a lower rung served the batch.
        stats = server.stats()
        assert stats["backend_failures"] >= len(cached)
        assert stats["scrubbed_rows"] >= len(cached)
        # Per-table attribution (the shard roll-up hook): the lump sums
        # decompose by the table whose ladder actually degraded, and
        # every failing table also shows a fallback rung serving it.
        assert sum(stats["backend_failures_by_table"].values()) \
            == stats["backend_failures"]
        assert sum(stats["scrubs_by_table"].values()) \
            == stats["scrubbed_rows"]
        for t in stats["backend_failures_by_table"]:
            assert any(stats["fallbacks"][t].values()), \
                f"table {t} failed its primary rung but shows no fallback"
        assert all(r["degraded"] for r in responses)
        for emb in cached:
            assert np.isfinite(
                emb.cache_rows.data[emb._cache_slot]
            ).all()

    @pytest.mark.parametrize("site", ["serving.request", "serving.queue",
                                      "serving.backend"])
    def test_single_site_chaos(self, predictor, site):
        """Faults at each site alone: never a non-finite output, and the
        site's firings reconcile with the matching defensive counter."""
        inj = FaultInjector(seed=11).register(site, 0.3, kind="nan",
                                              max_elements=4)
        server, clock = build_server(predictor, injector=inj)
        rng = np.random.default_rng(2)
        served = []
        for rid in range(40):
            clock.advance(1.0)
            server.submit(make_request(rng, rid=rid))
            served.extend(server.step())
        served.extend(server.drain())
        assert all(np.isfinite(r["prob"]) for r in served)
        stats = server.stats()
        assert stats["final_guard"] == 0
        fired = inj.fired[site]
        assert fired > 0
        if site == "serving.request":
            assert stats["admission"]["rejected"]["dense_non_finite"] == fired
        elif site == "serving.queue":
            assert stats["shed"]["fault"] == fired
        else:
            assert stats["backend_failures"] == fired

    def test_all_sites_chaos_run_load(self, predictor):
        """The acceptance drill at test scale: every serving.* site at
        5-ish%, ledgers reconcile, breaker transitions recorded."""
        inj = FaultInjector(seed=123)
        for site in ("serving.request", "serving.queue", "serving.backend"):
            inj.register(site, 0.08, kind="nan", max_elements=4)
        server = wall_server(predictor, injector=inj)
        report = run_load(server, num_requests=300, mean_interarrival_ms=0.5,
                          deadline_ms=500.0, seed=3)
        assert report["non_finite_outputs"] == 0
        assert report["reconciliation"]["passed"], report["reconciliation"]
        kept = report["reconciliation"]["checks"]["no_lost_requests"]
        assert kept["passed"] and kept["fired"] == report["outcomes"]["queued"]
        assert sum(report["outcomes"].values()) == 300
        assert report["served"] <= report["outcomes"]["queued"]
        assert len(report["breaker_transitions"]) >= 1
        # Latency accounting covered every served request.
        assert report["stats"]["latency_ms"]["count"] == report["served"]

    def test_clean_run_load_balances_requests(self, predictor):
        """Without an injector nothing else is checked, but accepted work
        is still conserved: queued == served + deadline sheds."""
        server = wall_server(predictor, max_depth=8, max_batch=4,
                             default_deadline_ms=5.0)
        report = run_load(server, num_requests=200, mean_interarrival_ms=0.05,
                          seed=1)
        recon = report["reconciliation"]
        assert not recon["checked"] and recon["passed"]
        assert list(recon["checks"]) == ["no_lost_requests"]
        kept = recon["checks"]["no_lost_requests"]
        assert kept["fired"] == report["outcomes"]["queued"]
        assert kept["counted"] == report["served"] + report["shed"]["deadline"]

    def test_run_load_rejects_bad_arguments(self, predictor):
        """A run that would serve nothing, draw a negative gap, wait
        forever or never shed is refused before it starts, naming the
        argument."""
        server = wall_server(predictor)
        for name, value in [("num_requests", 0), ("num_requests", -5),
                            ("mean_interarrival_ms", -1.0),
                            ("mean_interarrival_ms", float("inf")),
                            ("mean_interarrival_ms", float("nan")),
                            ("deadline_ms", 0.0), ("deadline_ms", -1.0),
                            ("deadline_ms", float("nan")),
                            ("malformed", 2.0)]:
            with pytest.raises(ValueError, match=name):
                run_load(server, **{name: value})
        assert server.stats()["requests"] == 0
        manual, _ = build_server(predictor)
        with pytest.raises(ValueError, match="ManualClock"):
            run_load(manual)
        assert manual.stats()["requests"] == 0

    def test_breaker_recovery_closes_after_faults_stop(self, predictor):
        inj = FaultInjector(seed=5).register("serving.backend", 1.0,
                                             kind="nan")
        server, clock = build_server(predictor, injector=inj,
                                     failure_threshold=2, cooldown=2)
        rng = np.random.default_rng(4)
        for rid in range(6):
            clock.advance(1.0)
            server.submit(make_request(rng, rid=rid))
            server.step()
        assert any(b["state"] != "closed" for b in server.breaker_snapshots())
        # Faults stop; the half-open probes must eventually re-close.
        inj.register("serving.backend", 0.0, kind="nan")
        for rid in range(30):
            clock.advance(1.0)
            server.submit(make_request(rng, rid=100 + rid))
            server.step()
        server.drain()
        # Primary rungs recover fully. Lower rungs (tt_direct) may stay
        # open/half-open: once the primary answers, the ladder returns
        # before ever probing them again — they heal on next use.
        assert all(b["state"] == "closed" for b in server.breaker_snapshots()
                   if b["name"].endswith(".primary"))
        # And the recovered primaries really are serving again, unfaulted.
        before = server.stats()["backend_failures"]
        server.submit(make_request(rng, rid=999))
        (resp,) = server.drain()
        assert not resp["degraded"]
        assert server.stats()["backend_failures"] == before

    def test_overload_sheds_instead_of_queueing_unboundedly(self, predictor):
        server, clock = build_server(predictor, max_depth=8, max_batch=4)
        rng = np.random.default_rng(6)
        statuses = [server.submit(make_request(rng, rid=i))["status"]
                    for i in range(20)]
        assert statuses.count("shed") == 12
        assert server.queue.depth == 8
        assert server.stats()["shed"]["queue_full"] == 12

    def test_malformed_traffic_mixed_with_faults(self, predictor):
        """The kitchen sink: malformed requests AND faults everywhere —
        still no non-finite output ever reaches a client."""
        inj = FaultInjector(seed=9)
        for site in ("serving.request", "serving.queue", "serving.backend"):
            inj.register(site, 0.1, kind="nan", max_elements=2)
        server = wall_server(predictor, injector=inj)
        report = run_load(server, num_requests=200, malformed=0.3,
                          deadline_ms=500.0, seed=10)
        assert report["non_finite_outputs"] == 0
        assert report["outcomes"]["rejected"] > 0
