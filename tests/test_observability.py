"""Tests for the ISSUE-7 observability plane.

The acceptance spec: sampled requests produce span trees crossing
batch -> table ladder -> TT kernels with correct parentage; the SLO
engine fires multi-window burn-rate episodes with exemplar trace ids;
and the interpolated histogram quantile stays within one bucket width of
the exact percentile.
"""

import ast
import gc
import json
import re
from itertools import product

import numpy as np
import pytest

from repro.cli import main
from repro.data import KAGGLE
from repro.inference import Predictor
from repro.models import DLRMConfig, TTConfig, build_ttrec
from repro.serving import (
    InferenceServer,
    ManualClock,
    ServerConfig,
    run_load,
)
from repro.serving.queue import monotonic_ms
from repro.telemetry import (
    REPORT_SCHEMA,
    TRACE_SCHEMA,
    FlightRecorder,
    SLOEngine,
    Tracer,
    disable_tracing,
    emit_event,
    enable_tracing,
    format_report,
    format_trace_tree,
    get_registry,
    get_request_tracer,
    get_tracer,
    install_flight_recorder,
    load_policy,
    read_events,
    read_trace,
    slowest_traces,
    trace,
    trace_duration_ms,
    uninstall_flight_recorder,
    validate_trace_record,
)
from repro.telemetry.flightrec import read_dump
from repro.telemetry.registry import Histogram
from tests.tree_checks import (
    REPO,
    class_literals,
    pattern_to_regex,
    registrations,
    static_names,
)

SPEC = KAGGLE.scaled(0.0003)
CFG = DLRMConfig(table_sizes=SPEC.table_sizes, emb_dim=8,
                 bottom_mlp=(16,), top_mlp=(16,))


@pytest.fixture(autouse=True)
def _fresh_telemetry():
    reg = get_registry()
    reg.reset(prefix="serving.")
    yield
    get_request_tracer().shutdown()
    uninstall_flight_recorder()
    disable_tracing()
    get_tracer().reset()
    reg.reset(prefix="serving.")


@pytest.fixture(scope="module")
def predictor():
    tt = TTConfig(rank=4, use_cache=False)
    model = build_ttrec(CFG, num_tt_tables=5, tt=tt, min_rows=50, rng=0)
    return Predictor(model)


def drill_policy() -> dict:
    """Loose gated availability + tight non-gating fidelity objective."""
    return {
        "schema": "repro.slo/v1",
        "objectives": [
            {"name": "availability", "metric": "availability",
             "target": 0.9,
             "windows": [{"ms": 100, "max_burn": 8.0},
                         {"ms": 1000, "max_burn": 4.0}]},
            {"name": "full-fidelity", "metric": "degraded",
             "target": 0.999, "gate": False,
             "windows": [{"ms": 100, "max_burn": 2.0},
                         {"ms": 400, "max_burn": 2.0}]},
        ],
    }


def run_drill(predictor, tmp_path, tag, *, trace_sample=5, requests=150,
              injector=None):
    """One served run on the wall clock with tracing + SLO + flight
    recorder armed."""
    trace_path = tmp_path / f"trace-{tag}.jsonl"
    flight_dir = tmp_path / f"flight-{tag}"
    rt = get_request_tracer()
    rt.configure(sample_every=trace_sample, path=trace_path,
                 clock=monotonic_ms, seed=0)
    install_flight_recorder(FlightRecorder(flight_dir, clock=monotonic_ms))
    slo = SLOEngine(load_policy(drill_policy()), min_count=10)
    server = InferenceServer(
        predictor,
        config=ServerConfig(default_deadline_ms=100.0, cooldown=10),
        injector=injector,
    )
    report = run_load(server, num_requests=requests, deadline_ms=100.0,
                      seed=0, slo=slo)
    rt.shutdown()
    uninstall_flight_recorder()
    return report, trace_path, flight_dir


# ---------------------------------------------------------------------- #
# Histogram quantile interpolation (satellite 1)
# ---------------------------------------------------------------------- #

class TestHistogramQuantile:
    def _bucket_width(self, hist: Histogram, value: float) -> float:
        lo = hist.min
        for hi in [*hist.bounds, hist.max]:
            if value <= hi:
                return max(min(hi, hist.max) - max(lo, hist.min), 0.0)
            lo = hi
        return hist.max - lo

    def test_interpolation_within_bucket_width_of_exact(self):
        rng = np.random.default_rng(7)
        values = rng.exponential(20.0, size=2000)
        hist = Histogram()
        for v in values:
            hist.observe(float(v))
        for q in (0.10, 0.25, 0.50, 0.90, 0.95, 0.99):
            exact = float(np.percentile(values, q * 100))
            err = abs(hist.quantile(q) - exact)
            assert err <= self._bucket_width(hist, exact) + 1e-9, \
                f"q={q}: err {err} exceeds bucket width"

    def test_edges_are_exact(self):
        hist = Histogram()
        for v in (3.0, 7.0, 11.0, 400.0):
            hist.observe(v)
        assert hist.quantile(0.0) == 3.0
        assert hist.quantile(1.0) == 400.0

    def test_single_value_bucket_is_exact(self):
        hist = Histogram()
        for _ in range(100):
            hist.observe(42.0)
        for q in (0.0, 0.5, 0.99, 1.0):
            assert hist.quantile(q) == 42.0

    def test_empty_and_validation(self):
        hist = Histogram()
        assert hist.quantile(0.5) == 0.0
        with pytest.raises(ValueError):
            hist.quantile(1.5)


# ---------------------------------------------------------------------- #
# Request tracing core
# ---------------------------------------------------------------------- #

class TestRequestTracer:
    def test_sampling_and_deterministic_ids(self, tmp_path):
        rt = get_request_tracer()
        rt.configure(sample_every=3, seed=11)
        assert rt.maybe_start(1) is None
        ctx = rt.maybe_start(3)
        assert ctx is not None and len(ctx.trace_id) == 16
        rt.configure(sample_every=3, seed=11)
        again = rt.maybe_start(3)
        assert again.trace_id == ctx.trace_id
        rt.configure(sample_every=3, seed=12)
        assert rt.maybe_start(3).trace_id != ctx.trace_id
        assert rt.maybe_start(None) is None

    def test_one_entry_point_each(self):
        import repro.telemetry as telemetry

        # trace() and emit_event() are the only ways in: no second,
        # "propagating" helper pair, no hook, no span method to bypass.
        assert not [n for n in dir(telemetry)
                    if n.startswith("traced_") or "hook" in n]
        public = set(telemetry.__all__)
        assert {n for n in public if n.startswith("trace")} == {
            "trace", "trace_duration_ms"}
        assert {n for n in public if n.endswith(("_span", "_event"))} == {
            "annotate_span", "emit_event"}
        assert not hasattr(Tracer, "span")

    def test_nothing_listening_is_one_shared_noop(self):
        rt = get_request_tracer()
        disable_tracing()
        assert not rt.enabled
        assert rt.maybe_start(0) is None
        noop = trace("serving.batch", batch_size=4)
        assert trace("tt.plan") is noop  # no allocation per call
        assert rt.scope([None]) is noop and rt.scope([]) is noop
        with noop:
            pass
        emit_event("serving.breaker", breaker="t0", to_state="open")
        assert get_tracer().total_spans() == 0

    @pytest.mark.parametrize("aggregate,scoped", [
        (False, True), (True, False), (True, True)],
        ids=["scope", "tree", "both"])
    def test_span_reaches_exactly_its_listeners(self, tmp_path, aggregate,
                                                scoped):
        path = tmp_path / "t.jsonl"
        clock = ManualClock()
        rt = get_request_tracer()
        rt.configure(sample_every=1, path=path, clock=clock.now, seed=0)
        if aggregate:
            enable_tracing()
        ctx = rt.maybe_start(0, now=clock.now())
        with rt.scope([ctx] if scoped else []):
            clock.advance(1.0)
            with trace("serving.batch"):
                with trace("shard.dispatch", shard="1"):
                    clock.advance(2.0)
                emit_event("shard.failover", shard=1)
        rt.finish(ctx, "served", now=clock.now(), latency_ms=3.0)
        rt.shutdown()

        tree = get_tracer().tree_dict()
        if aggregate:
            assert list(tree) == ["serving.batch"]
            assert tree["serving.batch"]["count"] == 1
            kids = tree["serving.batch"]["children"]
            assert list(kids) == ["shard.dispatch[shard=1]"]
            assert kids["shard.dispatch[shard=1]"]["count"] == 1
        else:
            assert tree == {}
        assert get_tracer().depth == 0

        (spans,) = read_trace(path).values()
        for rec in spans:
            validate_trace_record(rec)
        by_name = {s["name"]: s for s in spans}
        root = by_name["request"]
        assert root["parent_id"] is None
        assert root["attrs"]["status"] == "served"
        assert trace_duration_ms(spans) == pytest.approx(3.0)
        (event,) = read_events(path)
        assert event["attrs"] == {"shard": 1}
        assert event["start_ms"] == event["end_ms"] == 3.0
        if not scoped:
            assert list(by_name) == ["request"]
            assert (event["trace_id"], event["parent_id"]) == (None, None)
            return
        assert event["trace_id"] == ctx.trace_id
        batch, dispatch = by_name["serving.batch"], by_name["shard.dispatch"]
        assert batch["parent_id"] == root["span_id"]
        assert (batch["start_ms"], batch["end_ms"]) == (1.0, 3.0)
        assert dispatch["parent_id"] == batch["span_id"]
        assert dispatch["attrs"] == {"shard": "1"}
        assert (by_name["event:shard.failover"]["parent_id"]
                == batch["span_id"])

    def test_nested_scopes_restore_and_exceptions_close_spans(self,
                                                              tmp_path):
        clock = ManualClock()
        rt = get_request_tracer()
        rt.configure(sample_every=1, path=tmp_path / "t.jsonl",
                     clock=clock.now, seed=0)
        enable_tracing()
        a, b = rt.maybe_start(0), rt.maybe_start(1)
        with rt.scope([a]):
            with trace("outer"):
                with rt.scope([b]):
                    with trace("inner"):
                        pass
                with pytest.raises(RuntimeError):
                    with trace("boom"):
                        clock.advance(1.0)
                        raise RuntimeError("x")
                with trace("after"):  # the outer context is active again
                    pass
        disable_tracing()
        assert trace("outside") is rt.scope([None])  # nothing left active
        rt.finish(a, "served")
        rt.finish(b, "served")
        rt.shutdown()
        traces = read_trace(tmp_path / "t.jsonl")

        def names(ctx):
            spans = traces[ctx.trace_id]
            by_id = {s["span_id"]: s["name"] for s in spans}
            return [(s["name"], by_id.get(s["parent_id"])) for s in spans]

        assert names(a) == [("request", None), ("outer", "request"),
                            ("boom", "outer"), ("after", "outer")]
        assert names(b) == [("request", None), ("inner", "request")]
        boom = traces[a.trace_id][2]
        assert (boom["start_ms"], boom["end_ms"]) == (0.0, 1.0)
        outer = get_tracer().tree_dict()["outer"]
        assert {k: v["count"] for k, v in outer["children"].items()} == {
            "inner": 1, "boom": 1, "after": 1}
        assert get_tracer().depth == 0

    def test_events_join_the_requests_in_flight_from_any_module(
            self, tmp_path):
        """A fault firing and a cache repair — emitted by modules that
        know nothing about serving — carry the trace id and appear under
        the innermost open span."""
        from repro.cache import CachedTTEmbeddingBag
        from repro.reliability import FaultInjector

        emb = CachedTTEmbeddingBag(600, 8, rank=4, cache_size=4,
                                   warmup_steps=0, rng=0)
        emb.forward(np.arange(4))

        def provoke():
            assert FaultInjector(seed=0).register(
                "cache.row", probability=1.0).fires("cache.row")
            emb.cache_rows.data[0, 0] = np.nan
            assert emb.scrub() == 1

        types = ["fault.fired", "cache.repair"]
        rt = get_request_tracer()
        rt.configure(sample_every=0, path=tmp_path / "outside.jsonl")
        provoke()
        outside = read_events(tmp_path / "outside.jsonl")
        assert [e["name"] for e in outside] == [f"event:{t}" for t in types]
        assert {e["trace_id"] for e in outside} == {None}
        assert set(outside[0]["attrs"]) == {"site", "kind", "count"}
        assert set(outside[1]["attrs"]) == {"module", "rows", "step"}

        rt.configure(sample_every=1, path=tmp_path / "inside.jsonl", seed=0)
        ctx = rt.maybe_start(0)
        with rt.scope([ctx]):
            with trace("serving.batch"):
                with trace("serving.pooled"):
                    provoke()
        rt.finish(ctx, "served")
        rt.shutdown()
        inside = read_events(tmp_path / "inside.jsonl")
        assert [e["name"] for e in inside] == [f"event:{t}" for t in types]
        (spans,) = read_trace(tmp_path / "inside.jsonl").values()
        pooled = next(s for s in spans if s["name"] == "serving.pooled")
        for before, event in zip(outside, inside):
            assert event["trace_id"] == ctx.trace_id
            assert event["parent_id"] == pooled["span_id"]
            assert event["attrs"] == before["attrs"]

    def test_event_payload_cannot_collide_with_emit_parameters(
            self, tmp_path):
        payload = {"etype": "e", "type": "t", "data": 1, "name": "n",
                   "now": 2, "start_ms": 3, "end_ms": 4, "self": 5,
                   "attrs": 6, "trace_id": 7}
        path = tmp_path / "stream.jsonl"
        rt = get_request_tracer()
        rt.configure(sample_every=1, path=path, seed=0)
        ctx = rt.maybe_start(0)
        rec = install_flight_recorder(FlightRecorder(tmp_path))
        emit_event("x.outside", **payload)
        with rt.scope([ctx]):
            emit_event("x.inside", **payload)
        rt.shutdown()
        outside, inside = read_events(path)
        assert (outside["name"], outside["trace_id"]) == ("event:x.outside",
                                                          None)
        assert (inside["name"], inside["trace_id"]) == ("event:x.inside",
                                                        ctx.trace_id)
        assert outside["attrs"] == inside["attrs"] == payload
        assert rec.summary()["events_seen"] == 2

    def test_trace_views(self, tmp_path):
        path = tmp_path / "t.jsonl"
        clock = ManualClock()
        rt = get_request_tracer()
        rt.configure(sample_every=1, path=path, clock=clock.now, seed=0)
        for rid, dur in ((0, 5.0), (1, 9.0), (2, 1.0)):
            ctx = rt.maybe_start(rid, now=clock.now())
            clock.advance(dur)
            rt.finish(ctx, "served", now=clock.now())
        rt.shutdown()
        traces = read_trace(path)
        ranked = slowest_traces(traces, 2)
        assert [trace_duration_ms(spans) for _, spans in ranked] == [9.0, 5.0]
        text = format_trace_tree(*ranked[0])
        assert "request" in text and "9.00 ms" in text
        # Offsets start at the root: the slowest trace began at 5.0 ms.
        root_line = text.splitlines()[1]
        assert root_line.lstrip().startswith("request")
        assert "+0.00 ms (9.00 ms)" in root_line


# ---------------------------------------------------------------------- #
# The catalogue in docs/OBSERVABILITY.md is checked against the code
# ---------------------------------------------------------------------- #

@pytest.fixture(scope="module")
def emitted_names(tree) -> dict[str, set[str]]:
    """Every span, event and metric name ``src/repro`` can emit, read off
    the session parse by the metric check's own resolver
    (``tree_checks.static_names``): f-strings over class-level literals
    or a literal comprehension become exact names, the rest ``*``
    patterns."""
    src = [m for m in tree if m.path.startswith("src/repro/")]
    literals = class_literals(src)
    out = {"Spans": set(), "Events": set(), "Metrics": set()}
    entry = {"trace": out["Spans"], "emit_event": out["Events"]}
    for m in src:
        for node in m.nodes:
            if not (isinstance(node, ast.Call) and node.args):
                continue
            head, _, leaf = (m.resolve(node.func) or "").rpartition(".")
            if not head.startswith("repro.telemetry") or leaf not in entry:
                continue
            found = static_names(m, node.args[0], literals)
            assert found, f"{m.path}:{node.lineno}: not static"
            entry[leaf].update(found)
        for reg in registrations(m, literals):
            out["Metrics"].update(reg.keys)
    return out


def documented_names(section: str) -> set[str]:
    """First-column names of the ``### <section>`` catalogue table,
    brace families (``tt.forward.{gather,pool}``) expanded."""
    text = (REPO / "docs" / "OBSERVABILITY.md").read_text()
    body = text.split(f"\n### {section}\n", 1)[1].split("\n#", 1)[0]
    found = set()
    for row in body.splitlines():
        if not row.startswith("| `"):
            continue
        for family in re.findall(r"`([^`]+)`", row.split("|")[1]):
            parts = re.split(r"\{([^{}]*)\}", family)
            choices = [p.split(",") if i % 2 else [p]
                       for i, p in enumerate(parts)]
            found.update("".join(combo) for combo in product(*choices))
    return found


class TestCatalogue:
    @pytest.mark.parametrize("section", ["Spans", "Events", "Metrics"])
    def test_docs_list_exactly_what_the_code_emits(self, section,
                                                   emitted_names):
        emitted = emitted_names[section]
        listed = documented_names(section)
        assert len(emitted) > 10 and len(listed) > 10

        def covered(name, by):
            return any(pattern_to_regex(other).match(name)
                       or pattern_to_regex(name).match(other)
                       for other in by)

        missing = sorted(n for n in emitted if not covered(n, listed))
        phantom = sorted(n for n in listed if not covered(n, emitted))
        assert not missing, f"emitted but not in the docs: {missing}"
        assert not phantom, f"in the docs but never emitted: {phantom}"


# ---------------------------------------------------------------------- #
# End-to-end: a served run with every listener armed
# ---------------------------------------------------------------------- #

class TestServingDrill:
    def test_spans_cross_every_layer_with_correct_parentage(
            self, predictor, tmp_path):
        report, trace_path, _ = run_drill(predictor, tmp_path, "layers")
        traces = read_trace(trace_path)
        assert traces, "sampled drill produced no traces"
        deep = None
        for spans in traces.values():
            names = {s["name"] for s in spans}
            if {"serving.pooled", "queue.wait"} <= names and any(
                    n.startswith("tt.") for n in names):
                deep = spans
                break
        assert deep is not None, "no trace crossed into the table ladder"
        by_id = {s["span_id"]: s for s in deep}

        def chain(rec):
            names = []
            while rec is not None:
                names.append(rec["name"])
                parent = rec["parent_id"]
                rec = by_id[parent] if parent is not None else None
            return names

        pooled = next(s for s in deep if s["name"] == "serving.pooled")
        assert chain(pooled) == ["serving.pooled", "serving.batch",
                                 "request"]
        kernel = next(s for s in deep if s["name"].startswith("tt."))
        assert "serving.pooled" in chain(kernel)
        # Spans are stamped on the wall clock: real work has real length.
        timed = [s for spans in traces.values() for s in spans
                 if s["name"].startswith("tt.")
                 or s["name"] == "serving.pooled"]
        assert timed and all(s["end_ms"] > s["start_ms"] for s in timed)
        waits = [s for s in deep if s["name"] == "queue.wait"]
        assert all(by_id[w["parent_id"]]["name"] == "request"
                   for w in waits)

    def test_served_responses_carry_trace_ids(self, predictor, tmp_path):
        report, trace_path, _ = run_drill(predictor, tmp_path, "ids")
        traces = read_trace(trace_path)
        outcomes = report["outcomes"]
        assert sum(outcomes.values()) == 150
        assert report["served"] + report["shed"]["deadline"] \
            == outcomes["queued"]
        # Every sampled request ends as one trace, whatever its outcome.
        assert len(traces) == 30  # 150 requests, every 5th sampled

    def test_fault_firing_joins_a_sampled_request(self, predictor,
                                                  tmp_path):
        """A backend fault fired while a sampled request was served is a
        record of that request's trace, under the pooled call it
        poisoned."""
        from repro.reliability import FaultInjector

        injector = FaultInjector(seed=123)
        injector.register("serving.backend", 0.05, kind="nan",
                          max_elements=4)
        _, trace_path, _ = run_drill(predictor, tmp_path, "faults",
                                     injector=injector)
        spans = {(s["trace_id"], s["span_id"]): s
                 for trace in read_trace(trace_path).values()
                 for s in trace}
        joined = [e for e in read_events(trace_path, "fault.fired")
                  if e["trace_id"] is not None]
        assert joined, "no fault.fired event joined a sampled request"
        assert all(spans[e["trace_id"], e["parent_id"]]["name"]
                   == "serving.pooled" for e in joined)

    def test_reconciliation_survives_observability(self, predictor,
                                                   tmp_path):
        report, _, _ = run_drill(predictor, tmp_path, "recon")
        recon = report["reconciliation"]
        lost = recon["checks"]["no_lost_requests"]
        assert lost["passed"], "exact-ledger semantics regressed"


# ---------------------------------------------------------------------- #
# Loadgen latency bookkeeping (satellite 2)
# ---------------------------------------------------------------------- #

class TestLoadgenHistograms:
    def test_run_load_reads_shared_histogram(self):
        tt = TTConfig(rank=4, use_cache=False)
        model = build_ttrec(CFG, num_tt_tables=3, tt=tt, min_rows=50,
                            rng=0)
        server = InferenceServer(Predictor(model), config=ServerConfig())
        report = run_load(server, num_requests=60, seed=0)
        hist = get_registry().histogram("serving.latency_ms")
        assert hist.count == report["served"]
        assert report["latency_ms"]["p50"] == hist.quantile(0.50)
        assert report["latency_ms"]["p99"] == hist.quantile(0.99)
        assert report["latency_ms"]["max"] == hist.max


# ---------------------------------------------------------------------- #
# SLO engine
# ---------------------------------------------------------------------- #

def availability_policy(**kw):
    return load_policy({
        "schema": "repro.slo/v1",
        "objectives": [dict({
            "name": "avail", "metric": "availability", "target": 0.9,
            "windows": [{"ms": 100, "max_burn": 1.0}],
        }, **kw)],
    })


class TestSLOEngine:
    def test_compliant_stream(self):
        eng = SLOEngine(availability_policy(), min_count=5)
        for i in range(20):
            eng.observe("served", now=float(i), latency_ms=1.0)
        rep = eng.report(20.0)
        assert rep["compliant"] and rep["gate_passed"]
        assert rep["objectives"][0]["good"] == 20

    def test_sustained_burn_opens_and_closes_episode(self):
        eng = SLOEngine(availability_policy(), min_count=5)
        for i in range(10):
            eng.observe("shed", now=float(i), request_id=i)
        for i in range(10, 130):
            eng.observe("served", now=float(i), latency_ms=1.0)
        rep = eng.report(130.0)
        obj = rep["objectives"][0]
        assert not obj["compliant"]
        assert len(obj["episodes"]) == 1
        ep = obj["episodes"][0]
        assert ep["end_ms"] is not None and ep["exemplar_trace_ids"]
        assert not rep["gate_passed"]

    def test_short_blip_does_not_trip_multi_window(self):
        eng = SLOEngine(load_policy({
            "schema": "repro.slo/v1",
            "objectives": [{
                "name": "avail", "metric": "availability", "target": 0.9,
                "windows": [{"ms": 50, "max_burn": 1.0},
                            {"ms": 1000, "max_burn": 1.0}],
            }],
        }), min_count=5)
        for i in range(100):
            eng.observe("served", now=float(i), latency_ms=1.0)
        for i in range(100, 110):  # 10 bad in the fast window only
            eng.observe("shed", now=float(i), request_id=i)
        rep = eng.report(110.0)
        assert rep["objectives"][0]["compliant"], \
            "slow window should have vetoed the blip"

    def test_trace_id_exemplars_replace_request_fallbacks(self):
        eng = SLOEngine(availability_policy(), min_count=2)
        for i in range(8):
            eng.observe("shed", now=float(i), request_id=i)
        eng.observe("shed", now=8.0, trace_id="aaaa000011112222")
        rep = eng.report(9.0)
        exemplars = rep["objectives"][0]["episodes"][0][
            "exemplar_trace_ids"]
        assert "aaaa000011112222" in exemplars
        assert len(exemplars) <= 5

    def test_latency_and_staleness_classification(self):
        eng = SLOEngine(load_policy({
            "schema": "repro.slo/v1",
            "objectives": [
                {"name": "lat", "metric": "latency", "target": 0.5,
                 "threshold_ms": 10.0,
                 "windows": [{"ms": 100, "max_burn": 100.0}]},
            ],
        }), min_count=1)
        eng.observe("served", now=1.0, latency_ms=5.0)
        eng.observe("served", now=2.0, latency_ms=50.0)
        eng.observe("shed", now=3.0)  # latency objective ignores sheds
        (lat,) = eng.report(6.0)["objectives"]
        assert (lat["good"], lat["bad"]) == (1, 1)
        # No tier reports replica staleness: the metric is not accepted.
        with pytest.raises(ValueError, match="staleness"):
            load_policy({
                "schema": "repro.slo/v1",
                "objectives": [
                    {"name": "fresh", "metric": "staleness", "target": 0.5,
                     "windows": [{"ms": 100, "max_burn": 100.0}]},
                ],
            })

    @pytest.mark.parametrize("mutate", [
        lambda d: d.update(schema="nope"),
        lambda d: d.update(objectives=[]),
        lambda d: d["objectives"].append(dict(d["objectives"][0])),
        lambda d: d["objectives"][0].pop("windows"),
        lambda d: d["objectives"][0].update(metric="latency"),
        lambda d: d["objectives"][0].update(target=1.5),
        lambda d: d["objectives"][0]["windows"][0].update(ms=float("nan")),
        lambda d: d["objectives"][0]["windows"][0].update(
            max_burn=float("inf")),
        lambda d: d["objectives"][0].update(metric="latency",
                                            threshold_ms=float("nan")),
        lambda d: d["objectives"][0].update(gate="false"),
    ])
    def test_load_policy_rejects_bad_documents(self, mutate):
        doc = {
            "schema": "repro.slo/v1",
            "objectives": [{
                "name": "avail", "metric": "availability", "target": 0.9,
                "windows": [{"ms": 100, "max_burn": 1.0}],
            }],
        }
        mutate(doc)
        with pytest.raises(ValueError):
            load_policy(doc)

    def test_format_report_renders_episodes(self):
        eng = SLOEngine(availability_policy(), min_count=2)
        for i in range(6):
            eng.observe("shed", now=float(i), request_id=i)
        text = format_report(eng.report(6.0))
        assert "VIOLATED" in text and "req:" in text
        assert "gate_passed=False" in text


# ---------------------------------------------------------------------- #
# Flight recorder
# ---------------------------------------------------------------------- #

class TestFlightRecorder:
    def test_breaker_open_triggers_single_dump(self, tmp_path):
        clock = ManualClock(start_ms=7.0)
        get_request_tracer().configure(sample_every=0, clock=clock.now)
        rec = install_flight_recorder(
            FlightRecorder(tmp_path, clock=clock.now, ring=4))
        for i in range(6):
            emit_event("serving.other", i=i)
        emit_event("serving.breaker", breaker="t0", from_state="closed",
                     to_state="open")
        emit_event("serving.breaker", breaker="t1", from_state="closed",
                     to_state="open")
        dump = tmp_path / "flightrec-breaker-open.json"
        assert dump.is_file()
        doc = read_dump(dump)
        assert len(doc["records"]) == 4  # bounded ring
        assert doc["trigger"] == "breaker-open"
        for record in doc["records"]:
            validate_trace_record(record)
        last = doc["records"][-1]
        assert last["name"] == "event:serving.breaker"
        assert last["attrs"]["breaker"] == "t0"
        assert last["start_ms"] == last["end_ms"] == 7.0
        summ = rec.summary()
        assert summ["suppressed"] == {"breaker-open": 1}
        uninstall_flight_recorder()
        # A dump of another contract generation is refused, not misread.
        dump.write_text(json.dumps({**doc, "schema": "repro.flightrec/v1"}))
        with pytest.raises(ValueError, match="repro.flightrec/v2"):
            read_dump(dump)

    def test_half_open_transition_does_not_trigger(self, tmp_path):
        install_flight_recorder(FlightRecorder(tmp_path))
        emit_event("serving.breaker", breaker="t0", from_state="open",
                     to_state="half_open")
        assert not list(tmp_path.iterdir())
        uninstall_flight_recorder()


# ---------------------------------------------------------------------- #
# CLI: repro trace / repro slo-report / serve-bench flags
# ---------------------------------------------------------------------- #

class TestObservabilityCLI:
    def _write_trace(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        clock = ManualClock()
        rt = get_request_tracer()
        rt.configure(sample_every=1, path=path, clock=clock.now, seed=0)
        ctx = rt.maybe_start(0, now=clock.now())
        with rt.scope([ctx]):
            with trace("serving.batch"):
                clock.advance(4.0)
        rt.finish(ctx, "served", now=clock.now())
        rt.shutdown()
        return path

    def test_trace_tree_and_critical_path(self, tmp_path, capsys):
        path = self._write_trace(tmp_path)
        assert main(["trace", str(path), "--critical-path"]) == 0
        out = capsys.readouterr().out
        assert "serving.batch" in out and "critical path" in out

    def test_trace_missing_id_and_file(self, tmp_path):
        path = self._write_trace(tmp_path)
        assert main(["trace", str(path), "--trace-id", "beef"]) == 2
        assert main(["trace", str(tmp_path / "nope.jsonl")]) == 2

    def test_slo_report_gates_exit_code(self, tmp_path):
        eng = SLOEngine(availability_policy(), min_count=2)
        for i in range(6):
            eng.observe("shed", now=float(i), request_id=i)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(eng.report(6.0)))
        assert main(["slo-report", str(bad)]) == 1

        eng = SLOEngine(availability_policy(), min_count=2)
        for i in range(6):
            eng.observe("served", now=float(i), latency_ms=1.0)
        good = tmp_path / "good.json"
        good.write_text(json.dumps(eng.report(6.0)))
        assert main(["slo-report", str(good)]) == 0

        junk = tmp_path / "junk.json"
        junk.write_text("{}")
        assert main(["slo-report", str(junk)]) == 2

    def test_serve_bench_with_observability_flags(self, tmp_path,
                                                  capsys):
        trace_path = tmp_path / "serve.jsonl"
        policy = tmp_path / "policy.json"
        policy.write_text(json.dumps(drill_policy()))
        # The drill runs on the wall clock with a 100 ms deadline. A gen-2
        # collection over pytest's heap (100-230 ms late in a run) landing
        # in the first served step sheds every queued request; frozen, the
        # heap is left out of collections, as in a fresh serve-bench process.
        gc.freeze()
        try:
            rc = main([
                "serve-bench", "--requests", "40", "--rank", "4",
                "--trace-sample", "4", "--trace-jsonl", str(trace_path),
                "--slo", str(policy), "--flight-dir", str(tmp_path / "fr"),
            ])
        finally:
            gc.unfreeze()
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "SLO report" in out and "traces    :" in out
        traces = read_trace(trace_path)
        assert traces
        for spans in traces.values():
            for rec in spans:
                assert rec["schema"] == TRACE_SCHEMA
