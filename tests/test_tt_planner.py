"""Batch execution planner: every split against the references, the
computed split, counters, buffers.

The load-bearing properties: every split of the chain, with and without
dedup, produces the same rows as the naive per-row reference; the split a
table runs is a number its shape decides (``d - 1`` whenever Algorithm 2
needs the left partials, else the fewest FLOPs); and core gradients are
*bit-identical* whichever split the forward ran (backward always consumes
the ``d - 1`` left partials).
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from tests.helpers import random_csr, tt_rows_at as rows_at
from repro.analysis.memory import tt_shape_for_table
from repro.data import KAGGLE, TERABYTE
from repro.ops.embedding import pool_bags
from repro.telemetry import get_registry
from repro.tt import TTEmbeddingBag, TTShape, chain_flops
from repro.tt.kernels import tt_lookup_reference
from repro.tt.planner import BufferPool, ExecutionPlanner, _bucket
from repro.utils.factorization import factorize_into, suggested_tt_shapes
from repro.utils.seeding import as_rng

# d=3 (the common case) and d=4 (where interior splits are distinct
# orders and the fewest-FLOPs read split is genuinely not d - 1).
SHAPE_D3 = TTShape(num_rows=120, dim=16, row_factors=(4, 5, 6),
                   col_factors=(2, 2, 4), ranks=(1, 3, 3, 1))
SHAPE_D4 = TTShape(num_rows=360, dim=16, row_factors=(3, 4, 5, 6),
                   col_factors=(2, 2, 2, 2), ranks=(1, 5, 5, 5, 1))

# Contraction orders by the names these cases have carried since the
# planner landed. Each is a split (boundary ranks are 1, so a one-sided
# sweep is a boundary split); see ``split_of``.
ORDERS_D3 = ["fixed", "l2r", "r2l", "split:1", "split:2", "auto"]
ORDERS_D4 = ["fixed", "r2l", "split:1", "split:2", "split:3", "auto"]
ORDER_CASES = ([(SHAPE_D3, o) for o in ORDERS_D3]
               + [(SHAPE_D4, o) for o in ORDERS_D4])


def split_of(emb: TTEmbeddingBag, order: str) -> int:
    if order in ("fixed", "l2r"):  # Algorithm 1's chain; what a training step runs
        return emb.shape.d - 1
    if order == "r2l":
        return 1
    if order == "auto":  # what a read that keeps nothing runs
        return emb.planner.read_split
    return int(order.partition(":")[2])


def make_emb(shape: TTShape, *, dedup: bool, mode: str = "sum",
             store_intermediates: bool = True, rng: int = 0) -> TTEmbeddingBag:
    return TTEmbeddingBag(shape.num_rows, shape.dim, shape=shape, dedup=dedup,
                          mode=mode, store_intermediates=store_intermediates,
                          rng=rng)


# --------------------------------------------------------------------- #
# FLOP count and the computed split
# --------------------------------------------------------------------- #

def walk_flops(shape: TTShape, split: int) -> int:
    """FLOPs of one row at ``split``, read off the operands of real
    matmuls over all-ones core slices (independent of ``chain_flops``)."""
    d, ranks = shape.d, shape.ranks
    slices = [np.ones((ranks[k], shape.col_factors[k], ranks[k + 1]))
              for k in range(d)]
    flops = 0

    def mm(a, b):
        nonlocal flops
        flops += 2 * a.shape[0] * a.shape[1] * b.shape[1]
        return a @ b

    left = slices[0].reshape(-1, ranks[1])
    for k in range(1, split):
        left = mm(left, slices[k].reshape(ranks[k], -1)).reshape(-1, ranks[k + 1])
    right = slices[-1].reshape(ranks[d - 1], -1)
    for k in range(d - 2, split - 1, -1):
        right = mm(slices[k].reshape(-1, ranks[k + 1]), right).reshape(ranks[k], -1)
    assert mm(left, right).size == shape.dim
    return flops


def test_l2r_flops_match_hand_count():
    # Left to right (split 2) on SHAPE_D3: (1, n1*R1) then two GEMMs:
    #   k=1: (P=2, R1=3) @ (3, 2*3)  -> 2*2*3*6  = 72 flops
    #   k=2: (P=4, R2=3) @ (3, 4*1)  -> 2*4*3*4  = 96 flops
    assert chain_flops(SHAPE_D3, 2) == 72 + 96
    # Right to left (split 1):
    #   k=1: (R1*n2=6, R2=3) @ (3, Q=4) -> 2*6*3*4 = 144
    #   k=0: (1*2, R1=3) @ (3, Q=8)     -> 2*2*3*8 = 96
    assert chain_flops(SHAPE_D3, 1) == 144 + 96


def test_boundary_splits_equal_sweeps():
    # ranks[0] == ranks[d] == 1 make split d-1 the plain left-to-right
    # chain and split 1 the right-to-left one: the combine is the sweep's
    # last GEMM under another name.
    for shape in (SHAPE_D3, SHAPE_D4):
        d, col, ranks = shape.d, shape.col_factors, shape.ranks
        l2r = sum(2 * int(np.prod(col[:k])) * ranks[k] * col[k] * ranks[k + 1]
                  for k in range(1, d))
        r2l = sum(2 * ranks[k] * col[k] * ranks[k + 1] * int(np.prod(col[k + 1:]))
                  for k in range(d - 1))
        assert chain_flops(shape, d - 1) == l2r
        assert chain_flops(shape, 1) == r2l


def test_auto_picks_interior_split_on_d4():
    # On SHAPE_D4 meeting at core 2 does 560 FLOPs/row vs 760 left to
    # right, so a lookup that keeps nothing runs split 2...
    planner = ExecutionPlanner(SHAPE_D4)
    assert planner.flops == {1: chain_flops(SHAPE_D4, 1), 2: 560, 3: 760}
    assert planner.read_split == 2
    idx = np.arange(256)
    assert planner.plan_batch(idx, dedup=False, need_lefts=False).split == 2
    # ...but any batch that must produce Algorithm-2 left partials runs
    # d - 1, the one sweep that makes them.
    assert planner.plan_batch(idx, dedup=False, need_lefts=True).split == 3


def _sized_shapes():
    """The grid the split rule was sized on: uniform-rank shapes over rows
    x dim x d x every column-factor order x rank."""
    for rows, dim, d in itertools.product(
            (10 ** 3, 5 * 10 ** 4, 10 ** 6, 10 ** 7), (8, 16, 32, 64, 128),
            (2, 3, 4, 5)):
        row_factors = tuple(suggested_tt_shapes(rows, d))
        for cols in sorted(set(itertools.permutations(factorize_into(dim, d)))):
            for rank in (2, 4, 8, 16, 32, 64, 128):
                yield TTShape.with_uniform_rank(rows, dim, row_factors, cols, rank)


def test_read_split_is_the_flop_argmin():
    """Fewest FLOPs, trying d-1 first, then 1, 2, ...: the first strict
    minimum wins — brute force over every split, on real GEMM operands."""
    shapes = list(_sized_shapes())
    picked = [shapes[i] for i in
              as_rng(0).choice(len(shapes), size=200, replace=False)]
    seen = set()
    for shape in picked:
        walked = {s: walk_flops(shape, s) for s in range(1, shape.d)}
        best = shape.d - 1
        for s in range(1, shape.d - 1):
            if walked[s] < walked[best]:
                best = s
        planner = ExecutionPlanner(shape)
        assert planner.flops == walked, shape
        assert planner.read_split == best, shape
        seen.add((shape.d, best))
    # the sample exercises ties, d - 1 winners and interior winners
    assert {(2, 1), (3, 2), (4, 3), (4, 2), (5, 4)} <= seen


@pytest.mark.parametrize("rank", [8, 16, 32, 64])
def test_read_split_is_d_minus_1_on_every_table_the_paper_builds(rank):
    """So ``forward``, ``lookup`` and ``lookup_bags`` contract a row the
    same way — bit for bit — on every d = 3 Table-2 shape."""
    for spec in (KAGGLE, TERABYTE):
        for i in spec.largest(7):
            shape = tt_shape_for_table(spec.table_sizes[i], spec.emb_dim, rank)
            assert shape.d == 3
            assert ExecutionPlanner(shape).read_split == 2, shape


def test_split_validation():
    emb = make_emb(SHAPE_D3, dedup=False)
    for bad in (0, 3, 9):
        with pytest.raises(ValueError, match="split must be in"):
            chain_flops(SHAPE_D3, bad)
        with pytest.raises(ValueError, match="split must be in"):
            rows_at(emb, np.arange(4), bad)


# --------------------------------------------------------------------- #
# Every split gives the same rows (the property test)
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("shape,order", ORDER_CASES)
@pytest.mark.parametrize("dedup", [False, True], ids=["nodedup", "dedup"])
def test_lookup_matches_reference(shape, order, dedup):
    emb = make_emb(shape, dedup=dedup)
    rng = as_rng(7)
    # Duplicate-heavy batch so dedup actually collapses something.
    idx = rng.integers(0, shape.num_rows, size=300)
    idx[:100] = idx[0]
    expected = tt_lookup_reference([p.data for p in emb.cores], shape, idx)
    np.testing.assert_allclose(rows_at(emb, idx, split_of(emb, order)),
                               expected, atol=1e-12)
    np.testing.assert_allclose(emb.lookup(idx), expected, atol=1e-12)


@pytest.mark.parametrize("shape,order", ORDER_CASES)
@pytest.mark.parametrize("dedup", [False, True], ids=["nodedup", "dedup"])
@pytest.mark.parametrize("bags", ["mean_empty", "weighted"])
def test_forward_matches_unplanned(shape, order, dedup, bags):
    """Every dedup x pooling arm equals the plain no-dedup operator, and
    the operator's forward equals pooling the rows of every split."""
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
    pooled, _ = pool_bags(rows_at(emb, indices, split_of(emb, order)),
                          offsets, weights, mode)
    np.testing.assert_allclose(pooled, out_ref, atol=1e-12)

    grad = rng.normal(size=out.shape)
    ref.zero_grad()
    emb.zero_grad()
    ref.backward(grad)
    emb.backward(grad)
    for pr, pe in zip(ref.cores, emb.cores):
        np.testing.assert_allclose(pe.dense_grad(), pr.dense_grad(), atol=1e-12)


def test_planned_grads_bit_identical_to_unplanned():
    """A forward at the read split (not d-1) still yields bit-exact grads."""
    rng = as_rng(3)
    indices, offsets = random_csr(rng, SHAPE_D4.num_rows, 9, max_bag=5,
                                  allow_empty=True)
    grad = rng.normal(size=(offsets.size - 1, SHAPE_D4.dim))
    outs, grads, splits = [], [], []
    for store in (True, False):
        emb = make_emb(SHAPE_D4, dedup=False, store_intermediates=store)
        out = emb.forward(indices, offsets)
        emb.zero_grad()
        emb.backward(grad)
        outs.append(out)
        grads.append([p.dense_grad().copy() for p in emb.cores])
        splits.append(emb.planner.plan_batch(
            indices, dedup=False, need_lefts=store).split)
    # Recompute-intermediates is the one arm whose *forward* runs the read
    # split; its output differs only in float association.
    assert splits == [3, 2]
    np.testing.assert_allclose(outs[1], outs[0], atol=1e-12)
    # Gradients always flow through the d-1 left partials: bit-exact.
    for g, g0 in zip(grads[1], grads[0]):
        assert np.array_equal(g, g0)


def test_empty_batch_every_split():
    emb = make_emb(SHAPE_D3, dedup=True)
    empty = np.array([], dtype=np.int64)
    out = emb.forward(empty, np.zeros(4, dtype=np.int64))
    assert out.shape == (3, SHAPE_D3.dim)
    assert not out.any()
    emb.zero_grad()
    emb.backward(np.zeros_like(out))
    assert emb.lookup(empty).shape == (0, SHAPE_D3.dim)
    for split in (1, 2):
        assert rows_at(emb, empty, split).shape == (0, SHAPE_D3.dim)


# --------------------------------------------------------------------- #
# Counters, buffers
# --------------------------------------------------------------------- #

def test_flops_executed_counter_is_exact():
    counter = get_registry().counter("tt.plan.flops_executed")
    emb = make_emb(SHAPE_D4, dedup=False)
    idx = np.arange(50, dtype=np.int64)
    for split in (1, 2, 3):
        before = counter.value
        rows_at(emb, idx, split)
        assert counter.value - before == 50 * walk_flops(SHAPE_D4, split)
    before = counter.value
    emb.lookup(idx)
    assert counter.value - before == 50 * walk_flops(SHAPE_D4, 2)


def test_plan_batch_dedup_bookkeeping():
    planner = ExecutionPlanner(SHAPE_D3)
    saved = get_registry().counter("tt.plan.flops_saved")
    removed = get_registry().counter("tt.plan.dedup_removed")
    s0, r0 = saved.value, removed.value
    idx = np.array([5, 5, 5, 9], dtype=np.int64)
    plan = planner.plan_batch(idx, dedup=True, need_lefts=False)
    assert plan.n == 4 and plan.n_unique == 2
    assert plan.inverse is not None and plan.inverse.shape == (4,)
    assert removed.value - r0 == 2
    assert plan.flops_planned == 2 * planner.flops[plan.split]
    assert saved.value - s0 == plan.flops_baseline - plan.flops_planned
    # A duplicate-free batch drops the inverse (no expansion copy).
    plan = planner.plan_batch(np.array([1, 2, 3]), dedup=True, need_lefts=False)
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
    plan = ExecutionPlanner(SHAPE_D3).plan_batch(idx, dedup=True,
                                                 need_lefts=False)
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


def test_keep_lefts_requires_l2r():
    """Only the left-to-right sweep (split d-1) makes every left partial."""
    emb = make_emb(SHAPE_D4, dedup=False)
    plan = emb.planner.plan_batch(np.arange(4), dedup=False, need_lefts=False)
    for split in (None, 1, 2):  # None: the plan's own read split, 2
        with pytest.raises(ValueError, match="left partials"):
            emb.planner.execute(emb.cores, plan, split=split, keep_lefts=True)
    _, lefts = emb.planner.execute(emb.cores, plan, split=3, keep_lefts=True)
    assert len(lefts) == SHAPE_D4.d


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
    emb = make_emb(shape, dedup=False, store_intermediates=store)
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
