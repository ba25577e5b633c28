"""Sparse gradients at the ``CompressedEmbedding`` seam.

A sparse parameter's gradient is the coalesced pair its backward built:
sorted unique ``int64`` rows and one summed block per row. For every
trainable operator that pair must equal the ``np.add.at`` scatter of the
per-row gradients — bit for bit for row-shaped parameters, and for TT
cores on the integer lattice, where every order of summation is exact.
"""

import math

import numpy as np
import pytest

from repro.baselines import HashedEmbeddingBag, LowRankEmbeddingBag, TREmbeddingBag
from repro.cache import CachedTTEmbeddingBag
from repro.compress import ALPTEmbeddingBag, DPQEmbeddingBag
from repro.ops import EmbeddingBag
from repro.ops.embedding import unpool_grads
from repro.tt import T3nsorEmbeddingBag, TTEmbeddingBag
from repro.tt.embedding_bag import combine_duplicates
from tests.test_embedding_contract import DIM, ROWS, TRAINABLE, bags, build
from tests.test_properties_tt import naive_core_grads

# One zoo build per trainable operator, by its own constructor.
each_trainable = pytest.mark.parametrize(
    "name", TRAINABLE, ids=[f"{name}-native" for name in TRAINABLE])
# Operators with TT cores run on the integer lattice.
LATTICE = {"tt", "cached_tt", "tr", "t3nsor"}


def add_at(shape, rows, vals):
    out = np.zeros(shape, dtype=vals.dtype)
    np.add.at(out, rows, vals)
    return out


def make(name):
    emb = build(name)
    if name in LATTICE:
        rng = np.random.default_rng(1)
        for p in emb.parameters():
            if ".core" in p.name:
                p.data[...] = rng.integers(-2, 3, size=p.shape)
    if name == "cached_tt":
        emb.refresh_interval = None
        emb.forward(*bags(1))  # warmup_steps=1: populate, so hits exist
    return emb


def upstream(name, offsets):
    rng = np.random.default_rng(6)
    shape = (len(offsets) - 1, DIM)
    return (rng.integers(-3, 4, size=shape).astype(float) if name in LATTICE
            else rng.normal(size=shape))


def references(emb, indices, offsets, grad_out):
    """Per sparse parameter, the ``np.add.at`` scatter of its per-row
    gradients (what the table's backward saw, rebuilt independently)."""
    counts = np.diff(offsets)
    grad_rows = unpool_grads(grad_out, counts, None, emb.mode)
    if isinstance(emb, EmbeddingBag):
        return {emb.weight: add_at(emb.weight.shape, indices, grad_rows)}
    if isinstance(emb, HashedEmbeddingBag):
        buckets, signs = emb._hash(indices)
        return {emb.table.weight: add_at(emb.table.weight.shape, buckets,
                                         grad_rows * signs[:, None])}
    if isinstance(emb, LowRankEmbeddingBag):
        per_row = unpool_grads(grad_out @ emb.factor_b.data.T, counts, None,
                               emb.mode)
        return {emb.factor_a: add_at(emb.factor_a.shape, indices, per_row)}
    if isinstance(emb, DPQEmbeddingBag):
        flat = emb._global_codes(indices).reshape(-1)
        return {emb.codebooks: add_at(emb.codebooks.shape, flat,
                                      grad_rows.reshape(-1, emb.sub_dim))}
    if isinstance(emb, ALPTEmbeddingBag):
        frac = emb.codes[indices].astype(grad_rows.dtype) * (1.0 / emb.qmax)
        per_row = (grad_rows * frac).sum(axis=1, keepdims=True)
        return {emb.scales: add_at(emb.scales.shape, indices, per_row)}
    if isinstance(emb, CachedTTEmbeddingBag):
        mask, slots = emb._membership(indices)
        assert mask.any() and not mask.all()
        cores = naive_core_grads([p.data for p in emb.tt.cores], emb.tt.shape,
                                 indices[~mask], grad_rows[~mask])
        return {emb.cache_rows: add_at(emb.cache_rows.shape, slots, grad_rows[mask]),
                **dict(zip(emb.tt.cores, cores))}
    if isinstance(emb, TTEmbeddingBag):
        return dict(zip(emb.cores, naive_core_grads(
            [p.data for p in emb.cores], emb.shape, indices, grad_rows)))
    if isinstance(emb, TREmbeddingBag):
        eye = np.eye(emb.shape.ring_rank)
        tt_rows = (grad_rows[:, None, :, None] * eye[:, None, :]).reshape(
            indices.size, -1)
        return dict(zip(emb.cores, naive_core_grads(
            [p.data for p in emb.cores], emb.shape.folded, indices, tt_rows)))
    if isinstance(emb, T3nsorEmbeddingBag):
        padded = emb.shape.padded_rows
        d_full = add_at((padded, DIM), indices, grad_rows)
        return dict(zip(emb.cores, naive_core_grads(
            [p.data for p in emb.cores], emb.shape, np.arange(padded), d_full)))
    raise AssertionError(type(emb).__name__)


def step(emb, indices, offsets, grad_out):
    emb.forward(indices, offsets)
    emb.backward(grad_out)


def sparse_params(emb):
    return [p for p in emb.parameters() if p.sparse]


@each_trainable
def test_pairs_are_the_add_at_scatter(name):
    emb = make(name)
    indices, offsets = bags(5)  # duplicates and an empty bag
    assert np.unique(indices).size < indices.size and 0 in np.diff(offsets)
    grad_out = upstream(name, offsets)
    emb.zero_grad()
    emb.forward(indices, offsets)
    want = references(emb, indices, offsets, grad_out)
    emb.backward(grad_out)
    assert set(want) == set(sparse_params(emb))
    for p, w in want.items():
        rows, vals = p.grad
        assert rows.dtype == np.int64 and (np.diff(rows) > 0).all(), p.name
        assert vals.dtype == p.data.dtype and vals.shape == (rows.size, *p.shape[1:])
        assert p.dense_grad().tobytes() == w.tobytes(), p.name


@each_trainable
def test_all_empty_bags_leave_no_pair(name):
    emb = make(name)
    emb.zero_grad()
    step(emb, np.empty(0, dtype=np.int64), np.zeros(4, dtype=np.int64),
         np.ones((3, DIM)))
    assert [p.grad for p in sparse_params(emb)] == [None] * len(sparse_params(emb))


@each_trainable
def test_second_backward_without_zero_grad_accumulates_exactly(name):
    """Two steps into one pair == the two steps' pairs added densely (the
    twin zeroes in between; zero_grad changes no other state)."""
    batches = [(i, o, upstream(name, o)) for i, o in (bags(5), bags(8))]
    merged, twin = make(name), make(name)
    merged.zero_grad()
    for batch in batches:
        step(merged, *batch)
    parts = []
    for batch in batches:
        twin.zero_grad()
        step(twin, *batch)
        parts.append([p.dense_grad() for p in sparse_params(twin)])
    for p, first, second in zip(sparse_params(merged), *parts):
        if p.grad is not None:
            assert (np.diff(p.grad.rows) > 0).all()
        np.testing.assert_array_equal(p.dense_grad(), first + second, err_msg=p.name)


# ---------------------------------------------------------------------- #
# The declared reorder: row sums in input order, within the fsum bound
# ---------------------------------------------------------------------- #


def assert_within_fsum_bound(got, groups):
    """``got[j]`` sums the rows of ``groups[j]`` column by column within
    ``n * eps * sum|x|`` of the correctly rounded ``math.fsum``."""
    eps = np.finfo(np.float64).eps
    for j, members in enumerate(groups):
        for col in range(members.shape[1]):
            x = members[:, col].tolist()
            bound = len(x) * eps * math.fsum(abs(v) for v in x)
            assert abs(got[j, col] - math.fsum(x)) <= bound, (j, col)


def skewed_rows(rng, n):
    """Per-row gradients spanning nine decades, so order matters."""
    return rng.normal(size=(n, DIM)) * 10.0 ** rng.integers(-4, 5, size=(n, 1))


def test_dedup_combine_within_fsum_bound():
    emb = TTEmbeddingBag(ROWS, DIM, rank=4, rng=0, dedup=True)
    rng = np.random.default_rng(11)
    indices = rng.zipf(1.3, size=400) % ROWS
    plan = emb.planner.plan_batch(indices, dedup=True)
    grad_rows = skewed_rows(rng, indices.size)
    got = combine_duplicates(grad_rows, plan)
    assert_within_fsum_bound(got, [grad_rows[plan.inverse == j]
                                   for j in range(plan.n_unique)])


def test_cache_rows_within_fsum_bound():
    emb = CachedTTEmbeddingBag(ROWS, DIM, rank=4, rng=0, cache_size=6,
                               warmup_steps=1, refresh_interval=None)
    rng = np.random.default_rng(12)
    indices = rng.zipf(1.3, size=400) % ROWS
    emb.forward(indices)  # populates the six hottest rows
    emb.zero_grad()
    emb.forward(indices)
    grad_rows = skewed_rows(rng, indices.size)
    emb.backward(grad_rows)  # one bag per id: grad_out is per row
    mask, slots = emb._membership(indices)
    rows, got = emb.cache_rows.grad
    assert 1 < rows.size < mask.sum()  # several cache rows, hit repeatedly
    assert_within_fsum_bound(got, [grad_rows[mask][slots == r] for r in rows])
