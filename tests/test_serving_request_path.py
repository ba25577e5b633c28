"""The served request handled as one array, checked against the per-table
code it replaced.

Four places treat a request's ids as one flat ``int64`` array plus a count
per table — admission, batching, the one read pass over every table and
the read path under the ladders. Each test here runs the one-pass code
beside the per-table reference: the sanitizer's own repair loop, the
batching loop the server used to run (kept here as ``reference_tables``),
each table's ``lookup_bags`` alone, the fault counts a per-table ladder
walk made, and a byte-level snapshot of every operator around 50 served
requests.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import KAGGLE
from repro.data.batching import make_offsets
from repro.inference import Predictor
from repro.models import DLRMConfig, TTConfig, build_ttrec
from repro.ops.embedding import lookup_tables
from repro.reliability import FaultInjector
from repro.serving import (
    InferenceServer,
    ManualClock,
    Rejection,
    Request,
    RequestSanitizer,
    SanitizedRequest,
    ServerConfig,
)
from repro.serving import server as server_module
from repro.serving.server import table_batches

# Small enough that uint8 ids overflow table 0 and table 3, large enough
# that int32/int64 ids matter on table 2.
TABLE_SIZES = (5, 300, 70_000, 2)
SMALL = DLRMConfig(table_sizes=TABLE_SIZES, emb_dim=4, bottom_mlp=(8,),
                   top_mlp=(8,))

SPEC = KAGGLE.scaled(0.0003)
CFG = DLRMConfig(table_sizes=SPEC.table_sizes, emb_dim=8,
                 bottom_mlp=(16,), top_mlp=(16,))


@pytest.fixture(autouse=True)
def _fresh_serving_metrics():
    from repro.telemetry import get_registry

    get_registry().reset(prefix="serving.")
    yield
    get_registry().reset(prefix="serving.")


# ---------------------------------------------------------------------- #
# Admission: one pass == the per-table loop
# ---------------------------------------------------------------------- #


def wrapped(ids, dtype):
    """``ids`` as ``dtype``, wrapping the way a C client's cast would."""
    return np.array(ids, dtype=np.int64).astype(dtype)


def entry_strategy(size: int):
    in_range = st.integers(0, size - 1)
    any_id = st.one_of(in_range, st.integers(-3, size + 3),
                       st.sampled_from([-2**40, 2**40]))
    int_dtype = st.sampled_from([np.int32, np.uint8, np.uint64, np.int64])
    clean = st.one_of(
        st.none(),
        in_range,
        st.lists(in_range, min_size=1, max_size=4),
        st.builds(wrapped, st.lists(in_range, max_size=4), int_dtype),
        # Integer entries the int64 route hands to the per-entry cast.
        st.builds(wrapped, st.lists(in_range, max_size=4), st.just(">i8")),
        in_range.map(lambda i: np.array(i)),                        # 0-d
        st.lists(in_range, min_size=1, max_size=4).map(
            lambda ids: np.array([ids])),                          # 2-D
        st.just(np.empty(0, dtype=np.int64)),
    )
    repairable = st.one_of(
        st.just([]),                                     # float64, no ids
        any_id,
        st.lists(any_id, min_size=1, max_size=4),
        st.builds(wrapped, st.lists(any_id, min_size=1, max_size=4), int_dtype),
        st.just(np.array([2**63 + 5], dtype=np.uint64)),  # wraps negative
        st.lists(in_range, min_size=1, max_size=3).map(
            lambda ids: np.array(ids, dtype=np.float64)),  # integral floats
    )
    garbage = st.sampled_from([np.array([0.5]), np.array([0.0, np.nan]),
                               "seven", True, np.array([True, False])])
    # Weighted so that the four-table requests split roughly evenly
    # between clean end to end, repaired and rejected.
    return st.sampled_from([clean] * 13 + [repairable] * 6 + [garbage]).flatmap(
        lambda kind: kind)


def int64_entry_strategy(size: int):
    """A 1-D native int64 array, what the data pipeline and the load
    generator send; out of range one time in four."""
    in_range = st.lists(st.integers(0, size - 1), max_size=4)
    any_id = st.lists(st.integers(-3, size + 3), min_size=1, max_size=4)
    return st.sampled_from([in_range] * 3 + [any_id]).flatmap(
        lambda ids: ids).map(lambda ids: np.array(ids, dtype=np.int64))


request_strategy = st.tuples(
    st.one_of(
        st.tuples(*(entry_strategy(size) for size in TABLE_SIZES)),
        st.tuples(*(int64_entry_strategy(size) for size in TABLE_SIZES)),
    ),
    st.sampled_from([0] * 10 + [-1, 1]),   # wrong table count
)


def loop_only(policy: str) -> RequestSanitizer:
    """A sanitizer that never takes the one-pass route."""
    san = RequestSanitizer(SMALL, oov_policy=policy)
    san._clean_ids = lambda sparse: None
    return san


def sanitize_counted(san: RequestSanitizer, request: Request):
    before = san.stats()
    out = san.sanitize(request)
    after = san.stats()
    moved = {"admitted": after["admitted"] - before["admitted"]}
    for family in ("rejected", "sanitized"):
        for key, value in after[family].items():
            moved[f"{family}.{key}"] = value - before[family][key]
    return out, moved


class TestAdmissionOnePass:
    @pytest.mark.parametrize("policy", ["clamp", "hash", "reject"])
    @given(request_strategy)
    @settings(max_examples=220, deadline=None)
    def test_equals_the_per_table_loop(self, policy, generated):
        entries, extra = generated
        sparse = list(entries)
        if extra < 0:
            sparse.pop()
        elif extra > 0:
            sparse.append(None)
        request = Request(dense=np.linspace(0.0, 1.0, SMALL.num_dense),
                          sparse=sparse, deadline_ms=7.0, request_id=11)
        got, got_moved = sanitize_counted(
            RequestSanitizer(SMALL, oov_policy=policy), copy.deepcopy(request))
        want, want_moved = sanitize_counted(loop_only(policy), request)
        assert got_moved == want_moved
        assert type(got) is type(want)
        if isinstance(want, Rejection):
            assert got == want
            return
        assert (got.repairs, got.request_id, got.deadline_ms) \
            == (want.repairs, want.request_id, want.deadline_ms)
        np.testing.assert_array_equal(got.dense, want.dense)
        assert len(got.values) == len(want.values) == len(TABLE_SIZES)
        for mine, theirs in zip(got.values, want.values):
            assert mine.dtype == np.int64
            np.testing.assert_array_equal(mine, theirs)
        for name in ("ids", "counts"):
            assert getattr(got, name).dtype == np.int64
            np.testing.assert_array_equal(getattr(got, name),
                                          getattr(want, name))
        np.testing.assert_array_equal(got.ids, np.concatenate(
            [np.empty(0, dtype=np.int64), *got.values]))

    def test_a_clean_request_never_reaches_the_loop(self, monkeypatch):
        san = RequestSanitizer(SMALL, oov_policy="reject")
        monkeypatch.setattr(san, "_sanitize_ids", None)  # calling it raises
        request = Request(
            dense=np.zeros(SMALL.num_dense),
            sparse=[None, 7, np.array([3, 3], dtype=np.uint8),
                    np.array([1], dtype=np.uint64)])
        out = san.sanitize(request)
        assert [v.tolist() for v in out.values] == [[], [7], [3, 3], [1]]
        assert out.counts.tolist() == [0, 1, 2, 1] and out.repairs == ()
        # Views of one array, not of the caller's buffers.
        assert all(v.base is out.ids for v in out.values)

    def test_an_int64_request_never_reaches_the_per_entry_cast(
            self, monkeypatch):
        san = RequestSanitizer(SMALL, oov_policy="clamp")
        monkeypatch.setattr(san, "_as_int64", None)  # calling it raises
        sparse = [np.array([4], dtype=np.int64), np.empty(0, dtype=np.int64),
                  np.array([69_999, 0, 5], dtype=np.int64),
                  np.array([1], dtype=np.int64)]
        out = san.sanitize(Request(dense=np.zeros(SMALL.num_dense),
                                   sparse=sparse))
        assert [v.tolist() for v in out.values] == [[4], [], [69_999, 0, 5], [1]]
        assert out.counts.tolist() == [1, 0, 3, 1] and out.repairs == ()
        assert not any(np.shares_memory(out.ids, entry) for entry in sparse)
        # Out of range: straight to the per-table loop, which repairs it.
        sparse[2] = np.array([70_000, -1], dtype=np.int64)
        out = san.sanitize(Request(dense=np.zeros(SMALL.num_dense),
                                   sparse=sparse))
        assert out.ids.tolist() == [4, 69_999, 0, 1]
        assert out.repairs == ("oov_clamped",)

    def test_one_dirty_table_sends_the_whole_request_to_the_loop(self):
        san = RequestSanitizer(SMALL, oov_policy="clamp")
        out = san.sanitize(Request(dense=np.zeros(SMALL.num_dense),
                                   sparse=[4, 299, 70_000, [1.0]]))
        assert [v.tolist() for v in out.values] == [[4], [299], [69_999], [1]]
        assert out.repairs == ("oov_clamped",)
        assert out.ids.tolist() == [4, 299, 69_999, 1]


# ---------------------------------------------------------------------- #
# Batching: one sort == the per-table concatenation
# ---------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def predictor():
    tt = TTConfig(rank=4, use_cache=True, warmup_steps=0,
                  refresh_interval=None, cache_fraction=0.05)
    return Predictor(build_ttrec(CFG, num_tt_tables=5, tt=tt, min_rows=50,
                                 rng=0))


def reference_tables(batch, num_tables):
    """The per-table loop the server's step used to run: one
    concatenation per table over the batch."""
    tables = []
    for t in range(num_tables):
        counts = np.array([r.values[t].size for r in batch], dtype=np.int64)
        indices = (np.concatenate([r.values[t] for r in batch])
                   if counts.sum() else np.empty(0, dtype=np.int64))
        tables.append((indices, counts))
    return tables


def ragged_request(rng, rid, empty_table):
    sparse = []
    for t, size in enumerate(CFG.table_sizes):
        n = 0 if t == empty_table else int(rng.integers(0, 4))
        sparse.append(rng.integers(0, size, size=n) if n else None)
    return Request(dense=rng.normal(size=CFG.num_dense), sparse=sparse,
                   request_id=rid)


class TestBatchingOnePass:
    @pytest.mark.parametrize("size", [1, 5, 32])
    def test_step_forms_the_per_table_batches(self, predictor, size,
                                              monkeypatch):
        server = InferenceServer(
            predictor, clock=ManualClock(),
            config=ServerConfig(max_batch=32, default_deadline_ms=1e6))
        assert size <= server.config.max_batch
        seen = {}
        pool = server._pool
        monkeypatch.setattr(server, "_pool", lambda batch, tables: (
            seen.update(batch=batch, tables=tables), pool(batch, tables))[1])
        served = []
        monkeypatch.setattr(server_module, "lookup_tables", lambda embs, tables: (
            served.extend(tables), lookup_tables(embs, tables))[1])
        rng = np.random.default_rng(size)
        for rid in range(size):
            # Table 3 is empty in every request; other bags are 0-3 ids.
            assert server.submit(ragged_request(rng, rid, empty_table=3)
                                 )["status"] == "queued"
        responses = server.step()
        assert len(responses) == size == len(seen["batch"])
        want = reference_tables(seen["batch"], CFG.num_tables)
        assert len(seen["tables"]) == len(served) == CFG.num_tables
        assert want[3][0].size == 0 and not want[3][1].any()
        assert any(0 in counts for _, counts in want)  # empty bags in use
        for (indices, counts), (w_indices, w_counts), (s_indices, s_offsets) \
                in zip(seen["tables"], want, served):
            for got, ref in ((indices, w_indices), (counts, w_counts),
                             (s_indices, w_indices),
                             (s_offsets, make_offsets(w_counts))):
                assert got.dtype == np.int64 and got.flags.c_contiguous
                np.testing.assert_array_equal(got, ref)

    def test_hand_built_requests_batch_the_same(self):
        """``ids``/``counts`` are derived when only ``values`` is given."""
        rng = np.random.default_rng(0)
        batch = [SanitizedRequest(dense=np.zeros(2), values=[
            rng.integers(0, 9, size=int(rng.integers(0, 3))) for _ in range(4)])
            for _ in range(6)]
        for (indices, counts), (w_indices, w_counts) in zip(
                table_batches(batch), reference_tables(batch, 4)):
            np.testing.assert_array_equal(indices, w_indices)
            np.testing.assert_array_equal(counts, w_counts)


# ---------------------------------------------------------------------- #
# The read pass: one lookup_tables call, per-table outcomes in table order
# ---------------------------------------------------------------------- #


def fault_drill(predictor, requests=160, batch=8):
    """A fixed request list served on a ManualClock under a seeded
    ``serving.backend`` injector, with breakers that open after two
    failures; returns what the fault walk decided."""
    injector = FaultInjector(seed=11).register("serving.backend", 0.03,
                                               kind="nan", max_elements=2)
    server = InferenceServer(
        predictor, clock=ManualClock(), injector=injector,
        config=ServerConfig(max_batch=batch, default_deadline_ms=1e6,
                            failure_threshold=2, breaker_window=10,
                            cooldown=3, half_open_successes=2))
    rng = np.random.default_rng(5)
    responses = []
    for rid in range(requests):
        request = ragged_request(rng, rid, empty_table=-1)
        assert server.submit(request)["status"] == "queued"
        if rid % batch == batch - 1:
            responses.extend(server.step())
    responses.extend(server.drain())
    assert len(responses) == requests
    assert all(np.isfinite(r["prob"]) for r in responses)
    return {
        "injector": injector.counters(),
        "fallbacks": {t: {rung: n for rung, n in counts.items() if n}
                      for t, counts in server.stats()["fallbacks"].items()
                      if any(counts.values())},
        "backend_failures": server.stats()["backend_failures_by_table"],
        "transitions": [(tr["breaker"], tr["from"], tr["to"])
                        for tr in server.breaker_transitions()],
        "degraded": sum(r["degraded"] for r in responses),
    }


# What a per-table walk of the ladders (each table's primary read, fault
# probe and outcome before the next table's) made of fault_drill, pinned
# from that implementation: the one read pass must draw, fail over and
# trip breakers exactly as it did.
PINNED_DRILL = {
    "injector": {"serving.backend": {"attempts": 521, "fired": 18}},
    "fallbacks": {
        "0": {"default_row": 1}, "3": {"tt_direct": 2}, "4": {"default_row": 1},
        "5": {"default_row": 4}, "7": {"default_row": 1},
        "11": {"tt_direct": 1}, "12": {"default_row": 4},
        "13": {"default_row": 1}, "15": {"tt_direct": 4},
        "17": {"default_row": 1}, "18": {"default_row": 1},
        "22": {"default_row": 1}, "23": {"default_row": 1},
        "24": {"default_row": 1},
    },
    "backend_failures": {
        "0": 1, "3": 2, "4": 1, "5": 2, "7": 1, "11": 1, "12": 2, "13": 1,
        "15": 2, "17": 1, "18": 1, "22": 1, "23": 1, "24": 1,
    },
    "transitions": [
        ("t5.primary", "closed", "open"), ("t5.primary", "open", "half_open"),
        ("t5.primary", "half_open", "closed"),
        ("t12.primary", "closed", "open"), ("t12.primary", "open", "half_open"),
        ("t15.primary", "closed", "open"), ("t15.primary", "open", "half_open"),
        ("t15.primary", "half_open", "closed"),
    ],
    "degraded": 112,
}


class TestOneReadPass:
    def test_each_requests_slice_is_its_lookup_bags_alone(self, predictor,
                                                          monkeypatch):
        server = InferenceServer(
            predictor, clock=ManualClock(),
            config=ServerConfig(max_batch=32, default_deadline_ms=1e6))
        seen = []
        pool = server._pool
        monkeypatch.setattr(server, "_pool", lambda batch, tables: (
            seen.append((batch, pool(batch, tables))), seen[-1][1])[1])
        rng = np.random.default_rng(9)
        for rid in range(32):
            assert server.submit(ragged_request(rng, rid, empty_table=-1)
                                 )["status"] == "queued"
        assert len(server.step()) == 32
        ((batch, (pooled, served_by)),) = seen
        assert served_by == {} and len(pooled) == CFG.num_tables
        for emb, vecs, t in zip(predictor.embeddings, pooled,
                                range(CFG.num_tables)):
            assert vecs.shape == (32, CFG.emb_dim) and vecs.dtype == np.float64
            for req, got in zip(batch, vecs):
                ids = req.values[t]
                alone = emb.lookup_bags(ids, np.array([0, ids.size]))
                assert got.tobytes() == alone[0].astype(np.float64).tobytes()

    def test_fault_draws_and_breakers_keep_the_per_table_order(self,
                                                              predictor):
        drill = fault_drill(predictor)
        assert drill == PINNED_DRILL


# ---------------------------------------------------------------------- #
# Read path: serving does not mutate the model
# ---------------------------------------------------------------------- #

COUNTED = {"extra:lookups", "extra:hits", "extra:misses"}


def snapshot(model):
    """Every operator's ``state_dict()`` as bytes, minus the served-traffic
    counters: parameters (TT cores, cache rows, dense tables), the resident
    set, ``steps``/``populated``, the tracker and the maintenance counts."""
    return [{key: (value.dtype.str, value.shape, value.tobytes())
             for key, value in emb.state_dict().items() if key not in COUNTED}
            for emb in model.embeddings]


def changed(before, after):
    """``(table, key)`` of every snapshot entry that is not the same bytes."""
    return [(t, key) for t, (was, now) in enumerate(zip(before, after))
            for key in was.keys() | now.keys() if was.get(key) != now.get(key)]


def warmed_model():
    """A cached model left exactly as training leaves it: past warm-up,
    populated, and due a refresh every third step."""
    tt = TTConfig(rank=4, use_cache=True, cache_fraction=0.05,
                  warmup_steps=2, refresh_interval=3)
    model = build_ttrec(CFG, num_tt_tables=5, tt=tt, min_rows=50, rng=0)
    rng = np.random.default_rng(1)
    for _ in range(4):
        for emb, size in zip(model.embeddings, CFG.table_sizes):
            emb.forward(np.minimum(rng.zipf(1.3, size=64) - 1, size - 1))
    cached = [emb for emb in model.embeddings if hasattr(emb, "tracker")]
    assert len(cached) == 5 and all(emb.is_warm for emb in cached)
    return model, cached


def serve(server, count, seed):
    rng = np.random.default_rng(seed)
    responses = []
    for rid in range(count):
        request = Request(
            dense=rng.normal(size=CFG.num_dense), request_id=rid,
            sparse=[np.minimum(rng.zipf(1.3, size=2) - 1, size - 1)
                    for size in CFG.table_sizes])
        assert server.submit(request)["status"] == "queued"
        if rid % 4 == 3:
            responses.extend(server.step())
    responses.extend(server.drain())
    assert len(responses) == count
    assert all(np.isfinite(r["prob"]) for r in responses)
    return responses


class TestServingDoesNotMutateTheModel:
    def test_fifty_requests_leave_every_operator_byte_identical(self):
        model, cached = warmed_model()
        server = InferenceServer(
            Predictor(model), clock=ManualClock(),
            config=ServerConfig(default_deadline_ms=1e6))
        before = snapshot(model)
        stats = [emb.stats() for emb in cached]
        responses = serve(server, 50, seed=2)
        assert not any(r["degraded"] for r in responses)
        assert changed(before, snapshot(model)) == []
        for emb, was in zip(cached, stats):
            now = emb.stats()
            assert now["lookups"] == was["lookups"] + 100  # 50 bags of 2
            assert now["lookups"] == now["hits"] + now["misses"]
            assert now["hits"] > was["hits"] and now["misses"] > was["misses"]

    def test_a_model_serves_like_its_predictor(self):
        from repro.telemetry import get_registry

        model, _ = warmed_model()
        runs = []
        for frontend in (model, Predictor(model)):
            get_registry().reset(prefix="serving.")
            server = InferenceServer(
                frontend, clock=ManualClock(),
                config=ServerConfig(default_deadline_ms=1e6))
            responses = serve(server, 50, seed=2)
            probs = np.array([r["prob"] for r in responses])
            runs.append((probs.tobytes(), responses, server.stats()))
        assert runs[0] == runs[1]

    def test_tt_direct_fall_through_reads_without_writing(self):
        model, cached = warmed_model()
        server = InferenceServer(
            Predictor(model), clock=ManualClock(),
            config=ServerConfig(default_deadline_ms=1e6, failure_threshold=1,
                                cooldown=10_000))
        cached_tables = [t for t, emb in enumerate(model.embeddings)
                         if emb in cached]
        for t in cached_tables:
            primary = server.ladders[t].rungs[0]
            primary.breaker.record_failure()
            assert primary.breaker.state == "open"
        before = snapshot(model)
        stats = [emb.stats() for emb in cached]
        responses = serve(server, 50, seed=3)
        assert all(r["served_by"] == {t: "tt_direct" for t in cached_tables}
                   for r in responses)
        assert changed(before, snapshot(model)) == []
        # The cores answered; the cache in front of them saw no traffic.
        assert [emb.stats() for emb in cached] == stats
