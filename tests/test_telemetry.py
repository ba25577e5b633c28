"""Tests for the telemetry layer: registry, tracer, events, overhead."""

import json
import time

import numpy as np
import pytest

from repro.data import KAGGLE, SyntheticCTRDataset
from repro.models import DLRMConfig, build_dlrm
from repro.telemetry import (
    SNAPSHOT_SCHEMA,
    TRACE_SCHEMA,
    Histogram,
    MetricsRegistry,
    disable_tracing,
    emit_event,
    enable_tracing,
    get_registry,
    get_request_tracer,
    get_tracer,
    metric_key,
    read_events,
    read_trace,
    snapshot,
    trace,
    tracing_enabled,
    validate_snapshot,
    validate_trace_record,
    write_snapshot,
)
from repro.training import Trainer


@pytest.fixture(autouse=True)
def _clean_tracer():
    """Keep the process-wide tracer/stream state from leaking across tests."""
    tracer = get_tracer()
    was_enabled = tracer.enabled
    tracer.reset()
    yield
    get_request_tracer().shutdown()
    tracer.reset()
    tracer.enabled = was_enabled


def tiny_training_run(iters=12, seed=0):
    spec = KAGGLE.scaled(0.0002)
    ds = SyntheticCTRDataset(spec, seed=seed)
    cfg = DLRMConfig(table_sizes=spec.table_sizes, emb_dim=8,
                     bottom_mlp=(16, 8), top_mlp=(16,))
    model = build_dlrm(cfg, rng=seed)
    trainer = Trainer(model, lr=0.05)
    return trainer.train(ds.batches(64, iters))


# ---------------------------------------------------------------------- #
# MetricsRegistry
# ---------------------------------------------------------------------- #

class TestMetricsRegistry:
    def test_metric_key_labels_sorted(self):
        assert metric_key("cache.hits") == "cache.hits"
        assert (metric_key("cache.hits", {"b": "2", "a": "1"})
                == "cache.hits{a=1,b=2}")

    def test_counter_get_or_create_identity(self):
        reg = MetricsRegistry()
        c1 = reg.counter("x.count", module="m0")
        c2 = reg.counter("x.count", module="m0")
        assert c1 is c2
        assert reg.counter("x.count", module="m1") is not c1

    def test_counter_semantics(self):
        reg = MetricsRegistry()
        c = reg.counter("n")
        c.inc()
        c.inc(4)
        assert c.value == 5
        c.set(11)
        assert c.value == 11
        c.reset()
        assert c.value == 0

    def test_gauge_last_value_wins(self):
        reg = MetricsRegistry()
        g = reg.gauge("load")
        g.set(1.5)
        g.set(0.25)
        assert g.value == 0.25

    def test_histogram_buckets_and_mean(self):
        h = Histogram(bounds=(10, 100))
        for v in (5, 50, 500, 7):
            h.observe(v)
        assert h.count == 4
        assert h.min == 5 and h.max == 500
        assert h.mean == pytest.approx(562 / 4)
        s = h.summary()
        assert s["buckets"] == {"10": 2, "100": 1, "+inf": 1}
        h.reset()
        assert h.count == 0 and h.summary()["min"] is None

    def test_histogram_rejects_unsorted_bounds(self):
        with pytest.raises(ValueError):
            Histogram(bounds=(100, 10))

    def test_snapshot_and_reset_prefix(self):
        reg = MetricsRegistry()
        reg.counter("cache.hits", module="e0").inc(3)
        reg.counter("collective.count").inc(2)
        reg.gauge("mem").set(9.0)
        snap = reg.snapshot()
        assert snap["counters"]["cache.hits{module=e0}"] == 3
        assert snap["counters"]["collective.count"] == 2
        assert snap["gauges"]["mem"] == 9.0
        reg.reset(prefix="cache.")
        assert reg.counter("cache.hits", module="e0").value == 0
        assert reg.counter("collective.count").value == 2
        reg.reset()
        assert reg.counter("collective.count").value == 0
        assert len(reg) == 3

    def test_global_registry_is_shared(self):
        assert get_registry() is get_registry()


# ---------------------------------------------------------------------- #
# Tracer
# ---------------------------------------------------------------------- #

class TestTracer:
    def test_disabled_returns_shared_noop(self):
        disable_tracing()
        assert not tracing_enabled()
        s1 = trace("a")
        s2 = trace("b", core=1)
        assert s1 is s2  # one shared no-op object, no allocation
        with s1:
            pass
        assert get_tracer().total_spans() == 0

    def test_nested_aggregation(self):
        enable_tracing()
        for _ in range(3):
            with trace("outer"):
                with trace("inner", core=0):
                    pass
                with trace("inner", core=1):
                    pass
        tree = get_tracer().tree_dict()
        assert tree["outer"]["count"] == 3
        children = tree["outer"]["children"]
        assert children["inner[core=0]"]["count"] == 3
        assert children["inner[core=1]"]["count"] == 3
        assert get_tracer().total_spans() == 9

    def test_timing_monotonicity(self):
        """Parent total covers its children; min <= mean <= max."""
        enable_tracing()
        with trace("outer"):
            with trace("inner"):
                time.sleep(0.002)
        tree = get_tracer().tree_dict()
        outer, inner = tree["outer"], tree["outer"]["children"]["inner"]
        assert outer["total_ns"] >= inner["total_ns"] > 0
        assert inner["min_ns"] <= inner["total_ns"] / inner["count"] <= inner["max_ns"]
        assert inner["total_ns"] >= 2_000_000  # the 2 ms sleep is covered

    def test_depth_and_reset(self):
        enable_tracing()
        tracer = get_tracer()
        assert tracer.depth == 0
        with trace("a"):
            assert tracer.depth == 1
            with trace("b"):
                assert tracer.depth == 2
        assert tracer.depth == 0
        tracer.reset()
        assert tracer.tree_dict() == {}
        assert tracer.enabled  # reset keeps the flag

    def test_format_tree_lists_spans(self):
        enable_tracing()
        with trace("tt.forward.gemm", core=1):
            pass
        text = get_tracer().format_tree()
        assert "tt.forward.gemm[core=1]" in text
        get_tracer().reset()
        assert "no spans recorded" in get_tracer().format_tree()

    def test_self_time_is_total_minus_children(self):
        enable_tracing()
        for _ in range(2):
            with trace("outer"):
                with trace("inner", core=0):
                    pass
                with trace("inner", core=1):
                    time.sleep(0.001)
        outer = get_tracer().tree_dict()["outer"]
        kids = outer["children"].values()
        assert outer["self_ns"] == (outer["total_ns"]
                                    - sum(k["total_ns"] for k in kids))
        assert 0 <= outer["self_ns"] < outer["total_ns"]
        for leaf in kids:  # a leaf's time is all its own
            assert leaf["self_ns"] == leaf["total_ns"]
        header, _, row = get_tracer().format_tree().splitlines()[:3]
        assert header.split() == ["span", "count", "total", "ms", "self",
                                  "ms", "mean", "us"]
        assert row.split()[0] == "outer"
        assert float(row.split()[3]) == pytest.approx(
            outer["self_ns"] / 1e6, abs=1e-3)

    def test_span_records_on_exception(self):
        enable_tracing()
        with pytest.raises(RuntimeError):
            with trace("boom"):
                raise RuntimeError("x")
        assert get_tracer().tree_dict()["boom"]["count"] == 1
        assert get_tracer().depth == 0


# ---------------------------------------------------------------------- #
# Events on the telemetry stream & snapshots
# ---------------------------------------------------------------------- #

class TestEvents:
    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        ticks = iter([4.0, 6.5])
        get_request_tracer().configure(sample_every=0, path=path,
                                       clock=lambda: next(ticks))
        emit_event("guard.skip", loss=float("nan"), failure_streak=1)
        emit_event("cache.repair", rows=3)
        get_request_tracer().shutdown()
        events = read_events(path)
        assert [e["name"] for e in events] == ["event:guard.skip",
                                               "event:cache.repair"]
        assert [e["span_id"] for e in events] == [1, 2]
        assert [(e["start_ms"], e["end_ms"]) for e in events] == [
            (4.0, 4.0), (6.5, 6.5)]
        assert events[0]["schema"] == TRACE_SCHEMA
        # NaN ships as a string so the line stays strict JSON.
        assert events[0]["attrs"]["loss"] == "nan"
        assert events[1]["attrs"]["rows"] == 3
        only = read_events(path, event_type="cache.repair")
        assert len(only) == 1
        assert read_trace(path) == {}  # no request was traced

    def test_emit_without_sink_is_noop(self, tmp_path):
        get_request_tracer().shutdown()
        emit_event("anything", x=1)  # must not raise
        # A rerun truncates the stream: only its own events are read.
        path = tmp_path / "stream.jsonl"
        for run in range(2):
            get_request_tracer().configure(sample_every=0, path=path)
            emit_event("anything", run=run)
            get_request_tracer().shutdown()
        assert [e["attrs"] for e in read_events(path)] == [{"run": 1}]

    def test_numpy_payloads_coerced(self, tmp_path):
        path = tmp_path / "np.jsonl"
        get_request_tracer().configure(sample_every=0, path=path)
        emit_event("t", a=np.int64(7), b=np.array([1.0, 2.0]))
        get_request_tracer().shutdown()
        (rec,) = read_events(path)
        assert rec["attrs"] == {"a": 7, "b": [1.0, 2.0]}
        json.dumps(rec)  # strictly serializable

    def test_validate_trace_record_rejects_malformed(self):
        good = {"schema": TRACE_SCHEMA, "trace_id": "ab", "span_id": 2,
                "parent_id": 1, "name": "serving.batch", "start_ms": 1.0,
                "end_ms": 2.0, "attrs": {}}
        validate_trace_record(good)
        validate_trace_record({**good, "trace_id": None, "parent_id": None,
                               "name": "event:guard.skip"})
        for bad in ({"schema": "bogus/v9"},
                    {"span_id": "0"},
                    {"trace_id": None},  # only an event may be trace-less
                    {"start_ms": float("nan")},
                    {"end_ms": float("inf")},
                    {"span_id": True},
                    {"parent_id": False},
                    {"end_ms": 0.5}):    # ends before it starts
            with pytest.raises(ValueError):
                validate_trace_record({**good, **bad})

    def test_snapshot_schema_round_trip(self, tmp_path):
        get_registry().counter("test.snapshot.counter").inc(2)
        enable_tracing()
        with trace("test.span"):
            pass
        path = tmp_path / "snap.json"
        doc = write_snapshot(path, command="unit-test",
                             result={"ok": True, "loss": float("inf")})
        loaded = json.loads(path.read_text())
        assert loaded == doc
        validate_snapshot(loaded)
        assert loaded["schema"] == SNAPSHOT_SCHEMA
        assert loaded["command"] == "unit-test"
        assert loaded["metrics"]["counters"]["test.snapshot.counter"] >= 2
        assert loaded["spans"]["test.span"]["count"] == 1
        assert loaded["result"] == {"ok": True, "loss": "inf"}

    def test_validate_snapshot_rejects_malformed(self):
        good = snapshot(command="x")
        validate_snapshot(good)
        with pytest.raises(ValueError):
            validate_snapshot({**good, "schema": "nope"})
        with pytest.raises(ValueError):
            validate_snapshot({**good, "metrics": []})
        bad = json.loads(json.dumps(good))
        bad["metrics"]["counters"]["evil"] = "NaN"
        with pytest.raises(ValueError):
            validate_snapshot(bad)

    def test_validate_snapshot_accepts_trees_without_self_time(self):
        """Snapshots written before ``self_ns`` existed stay readable."""
        enable_tracing()
        with trace("outer"):
            with trace("inner"):
                pass
        doc = json.loads(json.dumps(snapshot(command="x")))
        assert "self_ns" in doc["spans"]["outer"]
        del doc["spans"]["outer"]["self_ns"]
        del doc["spans"]["outer"]["children"]["inner"]["self_ns"]
        validate_snapshot(doc)


# ---------------------------------------------------------------------- #
# Integration: shared registry sees every subsystem
# ---------------------------------------------------------------------- #

class TestSharedRegistry:
    def test_cache_and_collectives_share_one_registry(self):
        from repro.cache import CachedTTEmbeddingBag
        from repro.distributed.collectives import Communicator

        emb = CachedTTEmbeddingBag(600, 8, rank=4, cache_fraction=0.1,
                                   warmup_steps=0, rng=0)
        emb.forward(np.arange(12), np.array([0, 4, 8, 12]))
        comm = Communicator(4)
        comm.allreduce_mean([np.ones(8) for _ in range(4)])

        snap = get_registry().snapshot()
        cache_keys = [k for k in snap["counters"]
                      if k.startswith("cache.lookups")
                      and emb.metrics_label in k]
        coll_keys = [k for k in snap["counters"]
                     if k.startswith("collective.bytes")
                     and comm.metrics_label in k]
        assert cache_keys and snap["counters"][cache_keys[0]] == emb.lookups
        assert coll_keys and any(snap["counters"][k] > 0 for k in coll_keys)

    def test_trace_covers_tt_forward_and_trainer(self):
        enable_tracing()
        tiny_training_run(iters=4)
        tree = get_tracer().tree_dict()
        for stage in ("trainer.forward", "trainer.backward",
                      "trainer.optimizer"):
            assert tree[stage]["count"] == 4
        # The stream is exhausted by one extra fetch (the StopIteration).
        assert tree["trainer.data"]["count"] >= 4


# ---------------------------------------------------------------------- #
# Overhead guard: the disabled path must stay (near-)free and inert
# ---------------------------------------------------------------------- #

class TestOverheadGuard:
    def test_disabled_tracing_is_bit_identical(self):
        disable_tracing()
        res_off = tiny_training_run(iters=8, seed=3)
        enable_tracing()
        res_on = tiny_training_run(iters=8, seed=3)
        assert res_on.losses == res_off.losses  # telemetry never perturbs math

    def test_disabled_overhead_under_5_percent(self):
        """Bound: (#spans a traced run would open) x (disabled per-call
        cost) must stay below 5% of the run's wall-clock. This isolates
        the instrumentation cost from machine noise, which dwarfs a
        direct wall-clock A/B at this scale."""
        iters = 8
        # Count the spans this workload opens.
        enable_tracing()
        tracer = get_tracer()
        tracer.reset()
        t0 = time.perf_counter()
        tiny_training_run(iters=iters, seed=1)
        run_s = time.perf_counter() - t0
        span_count = tracer.total_spans()
        assert span_count > 0

        # Micro-time the disabled fast path.
        disable_tracing()
        n = 20_000
        t0 = time.perf_counter()
        for _ in range(n):
            with trace("overhead.probe", core=0):
                pass
        per_call_s = (time.perf_counter() - t0) / n

        overhead_s = span_count * per_call_s
        assert overhead_s < 0.05 * run_s, (
            f"{span_count} spans x {per_call_s * 1e9:.0f} ns "
            f"= {overhead_s * 1e3:.2f} ms vs run {run_s * 1e3:.1f} ms"
        )
