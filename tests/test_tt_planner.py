"""Batch execution planner: the chain against the references, its FLOP
count, counters, buffers.

The load-bearing properties: the chain, with and without dedup, produces
the same rows as the naive per-row reference; every entry point (a
training forward with or without stored intermediates, ``lookup``,
``lookup_bags``) runs Algorithm 1's one chain, so a read equals the
training forward bit for bit; and core gradients are *bit-identical*
whether the forward stored its left partials or the backward recomputed
them.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from tests.helpers import random_csr, tt_rows_at as rows_at
from repro.ops.embedding import pool_bags
from repro.telemetry import get_registry
from repro.tt import TTEmbeddingBag, TTShape, chain_flops
from repro.tt.kernels import tt_lookup_reference
from repro.tt.planner import BufferPool, ExecutionPlanner, _bucket
from repro.utils.factorization import factorize_into, suggested_tt_shapes
from repro.utils.seeding import as_rng

# d=3 (the common case) and d=4 (two interior cores).
SHAPE_D3 = TTShape(num_rows=120, dim=16, row_factors=(4, 5, 6),
                   col_factors=(2, 2, 4), ranks=(1, 3, 3, 1))
SHAPE_D4 = TTShape(num_rows=360, dim=16, row_factors=(3, 4, 5, 6),
                   col_factors=(2, 2, 2, 2), ranks=(1, 5, 5, 5, 1))
SHAPES = pytest.mark.parametrize("shape", [SHAPE_D3, SHAPE_D4],
                                 ids=["d3", "d4"])


def make_emb(shape: TTShape, *, dedup: bool, mode: str = "sum",
             store_intermediates: bool = True, rng: int = 0) -> TTEmbeddingBag:
    return TTEmbeddingBag(shape.num_rows, shape.dim, shape=shape, dedup=dedup,
                          mode=mode, store_intermediates=store_intermediates,
                          rng=rng)


# --------------------------------------------------------------------- #
# The chain's FLOP count
# --------------------------------------------------------------------- #

def walk_flops(shape: TTShape) -> int:
    """FLOPs of one row, read off the operands of real matmuls over
    all-ones core slices (independent of ``chain_flops``)."""
    d, ranks = shape.d, shape.ranks
    slices = [np.ones((ranks[k], shape.col_factors[k], ranks[k + 1]))
              for k in range(d)]
    flops = 0
    left = slices[0].reshape(-1, ranks[1])
    for k in range(1, d):
        b = slices[k].reshape(ranks[k], -1)
        flops += 2 * left.shape[0] * left.shape[1] * b.shape[1]
        left = (left @ b).reshape(-1, ranks[k + 1])
    assert left.size == shape.dim
    return flops


def test_l2r_flops_match_hand_count():
    # Left to right on SHAPE_D3: (1, n1*R1) then two GEMMs:
    #   k=1: (P=2, R1=3) @ (3, 2*3)  -> 2*2*3*6  = 72 flops
    #   k=2: (P=4, R2=3) @ (3, 4*1)  -> 2*4*3*4  = 96 flops
    assert chain_flops(SHAPE_D3) == 72 + 96
    assert ExecutionPlanner(SHAPE_D4).flops == walk_flops(SHAPE_D4) == 760


def _sized_shapes():
    """A grid of uniform-rank shapes over rows x dim x d x every
    column-factor order x rank."""
    for rows, dim, d in itertools.product(
            (10 ** 3, 5 * 10 ** 4, 10 ** 6, 10 ** 7), (8, 16, 32, 64, 128),
            (2, 3, 4, 5)):
        row_factors = tuple(suggested_tt_shapes(rows, d))
        for cols in sorted(set(itertools.permutations(factorize_into(dim, d)))):
            for rank in (2, 4, 8, 16, 32, 64, 128):
                yield TTShape.with_uniform_rank(rows, dim, row_factors, cols, rank)


def test_chain_flops_is_the_walked_chain():
    """``chain_flops`` against real GEMM operands, on 200 sampled shapes."""
    shapes = list(_sized_shapes())
    picked = [shapes[i] for i in
              as_rng(0).choice(len(shapes), size=200, replace=False)]
    assert {shape.d for shape in picked} == {2, 3, 4, 5}
    for shape in picked:
        assert ExecutionPlanner(shape).flops == walk_flops(shape), shape


# --------------------------------------------------------------------- #
# The chain gives the reference's rows (the property test)
# --------------------------------------------------------------------- #

@SHAPES
@pytest.mark.parametrize("dedup", [False, True], ids=["nodedup", "dedup"])
def test_lookup_matches_reference(shape, dedup):
    emb = make_emb(shape, dedup=dedup)
    rng = as_rng(7)
    # Duplicate-heavy batch so dedup actually collapses something.
    idx = rng.integers(0, shape.num_rows, size=300)
    idx[:100] = idx[0]
    expected = tt_lookup_reference([p.data for p in emb.cores], shape, idx)
    np.testing.assert_allclose(rows_at(emb, idx), expected, atol=1e-12)
    np.testing.assert_allclose(emb.lookup(idx), expected, atol=1e-12)


@SHAPES
@pytest.mark.parametrize("dedup", [False, True], ids=["nodedup", "dedup"])
@pytest.mark.parametrize("bags", ["mean_empty", "weighted"])
def test_forward_matches_unplanned(shape, dedup, bags):
    """Every dedup x pooling arm equals the plain no-dedup operator, and
    the operator's forward equals pooling the chain's rows."""
    rng = as_rng(11)
    indices, offsets = random_csr(rng, shape.num_rows, 17, max_bag=6,
                                  allow_empty=True)
    indices[: indices.size // 3] = indices[0]  # force duplicates
    if bags == "weighted":
        mode, weights = "sum", rng.normal(size=indices.size)
    else:
        mode, weights = "mean", None
        offsets = np.concatenate([offsets, [offsets[-1]]])  # trailing empty bag

    ref = make_emb(shape, dedup=False, mode=mode)
    emb = make_emb(shape, dedup=dedup, mode=mode)
    out_ref = ref.forward(indices, offsets, weights)
    out = emb.forward(indices, offsets, weights)
    np.testing.assert_allclose(out, out_ref, atol=1e-12)
    pooled, _ = pool_bags(rows_at(emb, indices), offsets, weights, mode)
    np.testing.assert_allclose(pooled, out_ref, atol=1e-12)

    grad = rng.normal(size=out.shape)
    ref.zero_grad()
    emb.zero_grad()
    ref.backward(grad)
    emb.backward(grad)
    for pr, pe in zip(ref.cores, emb.cores):
        np.testing.assert_allclose(pe.dense_grad(), pr.dense_grad(), atol=1e-12)


@pytest.mark.parametrize("make", [
    lambda store: make_emb(SHAPE_D4, dedup=False, store_intermediates=store),
    lambda store: TTEmbeddingBag(5066, 8, rank=32, rng=0,
                                 store_intermediates=store),
], ids=["d4", "5066x8_r32"])
def test_every_read_is_the_stored_forward_bit_for_bit(make):
    """``lookup``, ``lookup_bags`` and a ``store_intermediates=False``
    forward return the stored training forward's bytes, one row per bag
    and pooled, on two shapes where meeting at an interior core would
    take fewer FLOPs than the chain."""
    stored, recompute = make(True), make(False)
    rng = as_rng(4)
    idx = rng.integers(0, stored.num_rows, size=300)
    idx[:50] = idx[0]
    rows = stored.forward(idx).tobytes()
    assert stored.lookup(idx).tobytes() == rows
    assert stored.lookup_bags(idx).tobytes() == rows
    assert recompute.forward(idx).tobytes() == rows
    indices, offsets = random_csr(rng, stored.num_rows, 17, max_bag=6)
    bags = stored.forward(indices, offsets).tobytes()
    assert stored.lookup_bags(indices, offsets).tobytes() == bags
    assert recompute.forward(indices, offsets).tobytes() == bags


def test_planned_grads_bit_identical_to_unplanned():
    """Stored and recomputed left partials give the same forward and
    bit-exact grads."""
    rng = as_rng(3)
    indices, offsets = random_csr(rng, SHAPE_D4.num_rows, 9, max_bag=5,
                                  allow_empty=True)
    grad = rng.normal(size=(offsets.size - 1, SHAPE_D4.dim))
    outs, grads = [], []
    for store in (True, False):
        emb = make_emb(SHAPE_D4, dedup=False, store_intermediates=store)
        out = emb.forward(indices, offsets)
        emb.zero_grad()
        emb.backward(grad)
        outs.append(out)
        grads.append([p.dense_grad().copy() for p in emb.cores])
    assert np.array_equal(outs[1], outs[0])
    for g, g0 in zip(grads[1], grads[0]):
        assert np.array_equal(g, g0)


def test_empty_batch():
    emb = make_emb(SHAPE_D3, dedup=True)
    empty = np.array([], dtype=np.int64)
    out = emb.forward(empty, np.zeros(4, dtype=np.int64))
    assert out.shape == (3, SHAPE_D3.dim)
    assert not out.any()
    emb.zero_grad()
    emb.backward(np.zeros_like(out))
    assert emb.lookup(empty).shape == (0, SHAPE_D3.dim)
    assert rows_at(emb, empty).shape == (0, SHAPE_D3.dim)


# --------------------------------------------------------------------- #
# Counters, buffers
# --------------------------------------------------------------------- #

def test_flops_executed_counter_is_exact():
    counter = get_registry().counter("tt.plan.flops_executed")
    emb = make_emb(SHAPE_D4, dedup=False)
    idx = np.arange(50, dtype=np.int64)
    before = counter.value
    rows_at(emb, idx)
    assert counter.value - before == 50 * walk_flops(SHAPE_D4)
    before = counter.value
    emb.lookup(idx)
    assert counter.value - before == 50 * walk_flops(SHAPE_D4)


def test_plan_batch_dedup_bookkeeping():
    planner = ExecutionPlanner(SHAPE_D3)
    saved = get_registry().counter("tt.plan.flops_saved")
    removed = get_registry().counter("tt.plan.dedup_removed")
    s0, r0 = saved.value, removed.value
    idx = np.array([5, 5, 5, 9], dtype=np.int64)
    plan = planner.plan_batch(idx, dedup=True)
    assert plan.n == 4 and plan.n_unique == 2
    assert plan.inverse is not None and plan.inverse.shape == (4,)
    assert removed.value - r0 == 2
    assert plan.flops_planned == 2 * planner.flops
    assert saved.value - s0 == plan.flops_baseline - plan.flops_planned
    # A duplicate-free batch drops the inverse (no expansion copy).
    plan = planner.plan_batch(np.array([1, 2, 3]), dedup=True)
    assert plan.inverse is None and plan.n_unique == 3


@pytest.mark.parametrize("ids", [
    [7], [3, 3], [3, 9], [9, 3], [4, 4, 4, 4], [8, 1, 8, 2, 1, 8],
    np.random.default_rng(0).zipf(1.3, 2000) % SHAPE_D3.num_rows,
    np.random.default_rng(1).permutation(SHAPE_D3.num_rows)])
def test_plan_dedup_is_np_unique(ids):
    """The planner's sort-based dedup returns ``np.unique``'s rows and
    inverse map; a duplicate-free batch (a single id included) keeps its
    order and drops the inverse."""
    idx = np.asarray(ids, dtype=np.int64)
    plan = ExecutionPlanner(SHAPE_D3).plan_batch(idx, dedup=True)
    uniq, inverse = np.unique(idx, return_inverse=True)
    if uniq.size == idx.size:
        assert plan.inverse is None
        assert np.array_equal(plan.decoded, SHAPE_D3.decode_indices(idx))
    else:
        assert plan.inverse.dtype == np.int64
        assert np.array_equal(plan.inverse, inverse.reshape(-1))
        assert np.array_equal(plan.decoded, SHAPE_D3.decode_indices(uniq))


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


@SHAPES
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
    emb = make_emb(shape, dedup=False, store_intermediates=store)
    idx = as_rng(2).integers(0, shape.num_rows, size=64)
    out = emb.forward(idx)
    emb.backward(np.ones_like(out))
    assert calls == ["plan"] * shape.d
    plan = emb.planner.plan_batch(idx, dedup=False)
    assert plan.runs(1) is plan.runs(1)


def test_pooled_lookup_does_not_corrupt_pending_backward():
    """lookup() between forward and backward (cache population does this)
    must not clobber the pooled left partials backward still needs."""
    rng = as_rng(5)
    indices, offsets = random_csr(rng, SHAPE_D3.num_rows, 8, max_bag=4,
                                  allow_empty=False)
    grad = rng.normal(size=(offsets.size - 1, SHAPE_D3.dim))

    ref = make_emb(SHAPE_D3, dedup=True)
    ref.forward(indices, offsets)
    ref.zero_grad()
    ref.backward(grad)
    expected = [p.dense_grad().copy() for p in ref.cores]

    emb = make_emb(SHAPE_D3, dedup=True)
    emb.forward(indices, offsets)
    emb.lookup(rng.integers(0, SHAPE_D3.num_rows, size=500))  # interloper
    emb.zero_grad()
    emb.backward(grad)
    for g, e in zip([p.dense_grad() for p in emb.cores], expected):
        assert np.array_equal(g, e)
