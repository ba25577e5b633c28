"""Batch execution planner: schedule equivalence, cost model, buffers.

The load-bearing property (ISSUE 5): every contraction schedule, with and
without dedup, produces the same rows as the naive per-row reference, and
the planned path's core gradients are *bit-identical* to the unplanned
fixed-l2r path (backward always consumes l2r left partials).
"""

from __future__ import annotations

import numpy as np
import pytest

from tests.helpers import random_csr
from repro.telemetry import get_registry
from repro.tt import TTEmbeddingBag, TTShape, candidate_schedules, schedule_cost
from repro.tt.kernels import tt_lookup_reference
from repro.tt.planner import BufferPool, ExecutionPlanner, _bucket
from repro.utils.seeding import as_rng

# d=3 (the common case) and d=4 (where interior splits are distinct
# schedules and auto genuinely picks a non-l2r order).
SHAPE_D3 = TTShape(num_rows=120, dim=16, row_factors=(4, 5, 6),
                   col_factors=(2, 2, 4), ranks=(1, 3, 3, 1))
SHAPE_D4 = TTShape(num_rows=360, dim=16, row_factors=(3, 4, 5, 6),
                   col_factors=(2, 2, 2, 2), ranks=(1, 5, 5, 5, 1))

POLICIES_D3 = ["fixed", "l2r", "r2l", "split:1", "split:2", "auto"]
POLICIES_D4 = ["fixed", "r2l", "split:1", "split:2", "split:3", "auto"]


def make_emb(shape: TTShape, policy: str, *, dedup: bool,
             mode: str = "sum", store_intermediates: bool = True,
             rng: int = 0) -> TTEmbeddingBag:
    return TTEmbeddingBag(shape.num_rows, shape.dim, shape=shape,
                          plan_policy=policy, dedup=dedup, mode=mode,
                          store_intermediates=store_intermediates, rng=rng)


# --------------------------------------------------------------------- #
# Cost model
# --------------------------------------------------------------------- #

def test_l2r_flops_match_hand_count():
    # l2r on SHAPE_D3: (1, n1*R1) then two GEMMs:
    #   k=1: (P=2, R1=3) @ (3, 2*3)  -> 2*2*3*6  = 72 flops
    #   k=2: (P=4, R2=3) @ (3, 4*1)  -> 2*4*3*4  = 96 flops
    s = schedule_cost(SHAPE_D3, "l2r")
    assert s.flops_per_row == 72 + 96
    assert s.gemms == 2

    r = schedule_cost(SHAPE_D3, "r2l")
    #   k=1: (R1*n2=6, R2=3) @ (3, Q=4) -> 2*6*3*4 = 144
    #   k=0: (1*2, R1=3) @ (3, Q=8)     -> 2*2*3*8 = 96
    assert r.flops_per_row == 144 + 96
    assert r.gemms == 2


def test_boundary_splits_equal_sweeps():
    # ranks[0] == ranks[d] == 1 make split@1 cost-identical to r2l and
    # split@(d-1) cost-identical to l2r (same GEMMs, one relabelled).
    for shape in (SHAPE_D3, SHAPE_D4):
        l2r = schedule_cost(shape, "l2r")
        r2l = schedule_cost(shape, "r2l")
        first = schedule_cost(shape, "split", 1)
        last = schedule_cost(shape, "split", shape.d - 1)
        assert first.flops_per_row == r2l.flops_per_row
        assert last.flops_per_row == l2r.flops_per_row


def test_auto_picks_interior_split_on_d4():
    # On SHAPE_D4 the split@2 order does 560 FLOPs/row vs 760 for l2r,
    # so auto must not pick l2r for lookup-only batches...
    flops = {s.label: s.flops_per_row for s in candidate_schedules(SHAPE_D4)}
    assert flops["split@2"] < flops["l2r"]
    planner = ExecutionPlanner(SHAPE_D4, "auto")
    assert planner.schedule_for(256).label == "split@2"
    # ...but any batch that must produce Algorithm-2 left partials is
    # pinned to l2r regardless of policy.
    assert planner.schedule_for(256, need_lefts=True).label == "l2r"


def test_auto_breaks_ties_toward_l2r():
    # Fully symmetric shape: every candidate costs the same, so auto must
    # fall back to l2r (list order) and stay bit-compatible with the
    # pre-planner behaviour on the common path.
    shape = TTShape.suggested(1000, 8, d=3, rank=4)
    assert len(set(s.flops_per_row for s in candidate_schedules(shape))) <= 2
    planner = ExecutionPlanner(shape, "auto")
    chosen = planner.schedule_for(64)
    if chosen.flops_per_row == planner.candidates[0].flops_per_row:
        assert chosen.label == "l2r"


# --------------------------------------------------------------------- #
# Schedule equivalence (the property test)
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("shape,policy", [(SHAPE_D3, p) for p in POLICIES_D3]
                         + [(SHAPE_D4, p) for p in POLICIES_D4])
@pytest.mark.parametrize("dedup", [False, True], ids=["nodedup", "dedup"])
def test_lookup_matches_reference(shape, policy, dedup):
    emb = make_emb(shape, policy, dedup=dedup)
    rng = as_rng(7)
    # Duplicate-heavy batch so dedup actually collapses something.
    idx = rng.integers(0, shape.num_rows, size=300)
    idx[:100] = idx[0]
    expected = tt_lookup_reference([p.data for p in emb.cores], shape, idx)
    np.testing.assert_allclose(emb.lookup(idx), expected, atol=1e-12)


@pytest.mark.parametrize("shape,policy", [(SHAPE_D3, p) for p in POLICIES_D3]
                         + [(SHAPE_D4, p) for p in POLICIES_D4])
@pytest.mark.parametrize("dedup", [False, True], ids=["nodedup", "dedup"])
@pytest.mark.parametrize("bags", ["mean_empty", "weighted"])
def test_forward_matches_unplanned(shape, policy, dedup, bags):
    """Every schedule x dedup x pooling arm equals the fixed-l2r path."""
    rng = as_rng(11)
    indices, offsets = random_csr(rng, shape.num_rows, 17, max_bag=6,
                                  allow_empty=True)
    indices[: indices.size // 3] = indices[0]  # force duplicates
    if bags == "weighted":
        mode, weights = "sum", rng.normal(size=indices.size)
    else:
        mode, weights = "mean", None
        offsets = np.concatenate([offsets, [offsets[-1]]])  # trailing empty bag

    ref = make_emb(shape, "l2r", dedup=False, mode=mode)
    emb = make_emb(shape, policy, dedup=dedup, mode=mode)
    out_ref = ref.forward(indices, offsets, weights)
    out = emb.forward(indices, offsets, weights)
    np.testing.assert_allclose(out, out_ref, atol=1e-12)

    grad = rng.normal(size=out.shape)
    ref.zero_grad()
    emb.zero_grad()
    ref.backward(grad)
    emb.backward(grad)
    for pr, pe in zip(ref.cores, emb.cores):
        np.testing.assert_allclose(pe.grad, pr.grad, atol=1e-12)


def test_planned_grads_bit_identical_to_unplanned():
    """auto (non-l2r lookup schedule) still yields bit-exact l2r grads."""
    rng = as_rng(3)
    indices, offsets = random_csr(rng, SHAPE_D4.num_rows, 9, max_bag=5,
                                  allow_empty=True)
    grad = rng.normal(size=(offsets.size - 1, SHAPE_D4.dim))
    outs, grads, scheds = [], [], []
    for policy in ("l2r", "auto"):
        for store in (True, False):
            emb = make_emb(SHAPE_D4, policy, dedup=False,
                           store_intermediates=store)
            out = emb.forward(indices, offsets)
            emb.zero_grad()
            emb.backward(grad)
            outs.append(out)
            grads.append([p.grad.copy() for p in emb.cores])
            scheds.append(emb.planner.schedule_for(
                indices.size, need_lefts=store).label)
    # auto + recompute-intermediates is the one arm whose *forward* runs a
    # non-l2r schedule; its output differs only in float association.
    assert scheds == ["l2r", "l2r", "l2r", "split@2"]
    for out, sched in zip(outs[1:], scheds[1:]):
        if sched == "l2r":
            assert np.array_equal(out, outs[0])
        else:
            np.testing.assert_allclose(out, outs[0], atol=1e-12)
    # Gradients always flow through l2r left partials: bit-exact everywhere.
    for gset in grads[1:]:
        for g, g0 in zip(gset, grads[0]):
            assert np.array_equal(g, g0)


def test_empty_batch_every_policy():
    for policy in POLICIES_D3:
        emb = make_emb(SHAPE_D3, policy, dedup=True)
        out = emb.forward(np.array([], dtype=np.int64),
                          np.zeros(4, dtype=np.int64))
        assert out.shape == (3, SHAPE_D3.dim)
        assert not out.any()
        emb.zero_grad()
        emb.backward(np.zeros_like(out))
        assert emb.lookup(np.array([], dtype=np.int64)).shape == (0, SHAPE_D3.dim)


# --------------------------------------------------------------------- #
# Counters, memoization, buffers
# --------------------------------------------------------------------- #

def test_flops_executed_counter_is_exact():
    counter = get_registry().counter("tt.plan.flops_executed")
    for policy in ("l2r", "r2l", "split:2", "auto"):
        emb = make_emb(SHAPE_D4, policy, dedup=False)
        idx = np.arange(50, dtype=np.int64)
        sched = emb.planner.schedule_for(50, need_lefts=False)
        before = counter.value
        emb.lookup(idx)
        assert counter.value - before == 50 * sched.flops_per_row


def test_plan_batch_dedup_bookkeeping():
    planner = ExecutionPlanner(SHAPE_D3, "auto")
    saved = get_registry().counter("tt.plan.flops_saved")
    removed = get_registry().counter("tt.plan.dedup_removed")
    s0, r0 = saved.value, removed.value
    idx = np.array([5, 5, 5, 9], dtype=np.int64)
    plan = planner.plan_batch(idx, dedup=True, need_lefts=False)
    assert plan.n == 4 and plan.n_unique == 2
    assert plan.inverse is not None and plan.inverse.shape == (4,)
    assert removed.value - r0 == 2
    assert plan.flops_planned == 2 * plan.schedule.flops_per_row
    assert saved.value - s0 == plan.flops_baseline - plan.flops_planned
    # A duplicate-free batch drops the inverse (no expansion copy).
    plan = planner.plan_batch(np.array([1, 2, 3]), dedup=True, need_lefts=False)
    assert plan.inverse is None and plan.n_unique == 3


def test_schedule_memo_buckets():
    planner = ExecutionPlanner(SHAPE_D3, "auto")
    hits = get_registry().counter("tt.plan.memo_hits")
    misses = get_registry().counter("tt.plan.memo_misses")
    h0, m0 = hits.value, misses.value
    planner.schedule_for(100)   # bucket 128: miss
    planner.schedule_for(120)   # same bucket: hit
    planner.schedule_for(200)   # bucket 256: miss
    planner.schedule_for(100, need_lefts=True)  # distinct key: miss
    assert misses.value - m0 == 3
    assert hits.value - h0 == 1


def test_buffer_pool_reuse_and_growth():
    pool = BufferPool()
    a = pool.take(("x",), (4, 8), np.float64)
    assert a.shape == (4, 8) and a.flags["C_CONTIGUOUS"]
    b = pool.take(("x",), (2, 8), np.float64)  # smaller: same buffer
    assert np.shares_memory(a, b)
    big = pool.take(("x",), (100, 8), np.float64)  # growth reallocates
    assert not np.shares_memory(a, big)
    assert pool.nbytes() == _bucket(800) * 8  # capacity is bucket-rounded
    again = pool.take(("x",), (100, 8), np.float64)
    assert np.shares_memory(big, again)
    # dtype change must not serve a stale buffer.
    f32 = pool.take(("x",), (4, 8), np.float32)
    assert f32.dtype == np.float32
    pool.clear()
    assert pool.nbytes() == 0


def test_bucket_rounding():
    assert [_bucket(n) for n in (0, 1, 2, 3, 4, 5, 1023, 1024, 1025)] == \
        [1, 1, 2, 4, 4, 8, 1024, 1024, 2048]


def test_policy_validation():
    with pytest.raises(ValueError, match="unknown plan policy"):
        ExecutionPlanner(SHAPE_D3, "bogus")
    with pytest.raises(ValueError, match="split must be in"):
        ExecutionPlanner(SHAPE_D3, "split:0")
    with pytest.raises(ValueError, match="split must be in"):
        ExecutionPlanner(SHAPE_D3, "split:9")
    with pytest.raises(ValueError, match="unknown schedule kind"):
        schedule_cost(SHAPE_D3, "zigzag")


def test_keep_lefts_requires_l2r():
    planner = ExecutionPlanner(SHAPE_D3, "r2l")
    sched = planner.schedule_for(4)
    assert sched.label == "r2l"
    emb = make_emb(SHAPE_D3, "r2l", dedup=False)
    plan = planner.plan_batch(np.arange(4), dedup=False, need_lefts=False)
    with pytest.raises(ValueError, match="left partials"):
        planner.execute(sched, emb.cores, plan, keep_lefts=True)


@pytest.mark.parametrize("shape", [SHAPE_D3, SHAPE_D4], ids=["d3", "d4"])
@pytest.mark.parametrize("store", [True, False], ids=["store", "recompute"])
def test_each_core_is_sorted_once_per_step(monkeypatch, shape, store):
    """Forward, recompute and both Algorithm 2 kernels group core ``k`` by
    the one ``BatchPlan.runs(k)``: a training step sorts each core once,
    and the kernels never sort for themselves."""
    import repro.tt.kernels as kernels
    import repro.tt.planner as planner

    calls = []
    real = kernels.sorted_runs
    monkeypatch.setattr(planner, "sorted_runs",
                        lambda rows: calls.append("plan") or real(rows))
    monkeypatch.setattr(kernels, "sorted_runs",
                        lambda rows: calls.append("kernel") or real(rows))
    emb = make_emb(shape, "auto", dedup=False, store_intermediates=store)
    idx = as_rng(2).integers(0, shape.num_rows, size=64)
    out = emb.forward(idx)
    emb.backward(np.ones_like(out))
    assert calls == ["plan"] * shape.d
    plan = emb.planner.plan_batch(idx, dedup=False, need_lefts=False)
    assert plan.runs(1) is plan.runs(1)


def test_pooled_lookup_does_not_corrupt_pending_backward():
    """lookup() between forward and backward (cache population does this)
    must not clobber the pooled left partials backward still needs."""
    rng = as_rng(5)
    indices, offsets = random_csr(rng, SHAPE_D3.num_rows, 8, max_bag=4,
                                  allow_empty=False)
    grad = rng.normal(size=(offsets.size - 1, SHAPE_D3.dim))

    ref = make_emb(SHAPE_D3, "auto", dedup=True)
    ref.forward(indices, offsets)
    ref.zero_grad()
    ref.backward(grad)
    expected = [p.grad.copy() for p in ref.cores]

    emb = make_emb(SHAPE_D3, "auto", dedup=True)
    emb.forward(indices, offsets)
    emb.lookup(rng.integers(0, SHAPE_D3.num_rows, size=500))  # interloper
    emb.zero_grad()
    emb.backward(grad)
    for g, e in zip([p.grad for p in emb.cores], expected):
        assert np.array_equal(g, e)
