"""Property suite for the compression zoo."""

import numpy as np
import pytest

from repro.baselines.lowrank import LowRankEmbeddingBag
from repro.compress import (
    DPQEmbeddingBag,
    EmbeddingSpec,
    make_embedding,
    predict_memory_bytes,
    registered_kinds,
)
from repro.utils.dtypes import dtype_policy

ROWS, DIM = 300, 8

# One representative spec per registered kind, small enough to be fast.
SPECS = {
    "dense": {},
    "tt": {"rank": 4},
    "cached_tt": {"rank": 4, "cache_size": 8},
    "tr": {"rank": 2},
    "hash": {"num_buckets": 32},
    "lowrank": {"rank": 2},
    "quant": {"bits": 4},
    "dpq": {"num_subspaces": 4, "codebook_size": 16},
    "alpt": {"bits": 8},
}


def spec_for(kind, mode="sum", seed=0):
    return EmbeddingSpec(kind=kind, num_rows=ROWS, dim=DIM, mode=mode,
                         seed=seed, params=dict(SPECS[kind]))


def batch(rng, n=40, bags=5):
    indices = rng.integers(0, ROWS, size=n).astype(np.int64)
    cuts = np.sort(rng.integers(0, n, size=bags - 1))
    offsets = np.concatenate([[0], cuts, [n]]).astype(np.int64)
    return indices, offsets


def test_every_kind_registered():
    assert set(SPECS) == set(registered_kinds())
    assert len(registered_kinds()) >= 7


@pytest.mark.parametrize("kind", sorted(SPECS))
@pytest.mark.parametrize("mode", ["sum", "mean"])
def test_forward_matches_lookup(kind, mode):
    emb = make_embedding(spec_for(kind, mode=mode))
    rng = np.random.default_rng(1)
    indices, offsets = batch(rng)
    out = emb.forward(indices, offsets)
    rows = emb.lookup(indices)
    expected = np.zeros((len(offsets) - 1, DIM), dtype=rows.dtype)
    for b in range(len(offsets) - 1):
        seg = rows[offsets[b]:offsets[b + 1]]
        if seg.shape[0]:
            expected[b] = seg.sum(axis=0)
            if mode == "mean":
                expected[b] /= seg.shape[0]
    np.testing.assert_allclose(out, expected, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("kind", sorted(SPECS))
def test_weighted_forward_matches_lookup(kind):
    emb = make_embedding(spec_for(kind))
    rng = np.random.default_rng(2)
    indices, offsets = batch(rng)
    w = rng.uniform(0.5, 2.0, size=indices.size)
    out = emb.forward(indices, offsets, per_sample_weights=w)
    rows = emb.lookup(indices) * w[:, None]
    expected = np.add.reduceat(rows, offsets[:-1], axis=0)
    # reduceat misbehaves on empty segments; fix them up explicitly.
    for b in range(len(offsets) - 1):
        if offsets[b] == offsets[b + 1]:
            expected[b] = 0.0
    np.testing.assert_allclose(out, expected, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("kind", sorted(SPECS))
def test_memory_bytes_matches_actual_nbytes(kind):
    spec = spec_for(kind)
    emb = make_embedding(spec)
    actual = sum(p.data.nbytes for p in emb.parameters())
    actual += sum(a.nbytes for a in emb._extra_arrays())
    assert emb.memory_bytes() == actual
    assert predict_memory_bytes(spec) == emb.memory_bytes()
    assert emb.compression_ratio() == pytest.approx(
        emb.dense_bytes() / emb.memory_bytes())


@pytest.mark.parametrize("kind", sorted(SPECS))
def test_forward_and_backward_stay_finite(kind):
    emb = make_embedding(spec_for(kind))
    rng = np.random.default_rng(3)
    indices, offsets = batch(rng)
    out = emb.forward(indices, offsets)
    assert out.dtype == emb.dtype
    assert np.isfinite(out).all()
    if emb.supports_gradient:
        emb.backward(np.ones_like(out))
        for param in emb.parameters():
            grad = param.dense_grad()
            assert grad.dtype == param.data.dtype, param.name
            assert np.isfinite(grad).all(), param.name


@pytest.mark.parametrize("kind", sorted(SPECS))
def test_state_dict_roundtrip_bit_exact(kind):
    emb = make_embedding(spec_for(kind, seed=0))
    state = emb.state_dict()
    other = make_embedding(spec_for(kind, seed=7))  # different init
    other.load_state_dict(state)
    for key, val in other.state_dict().items():
        assert np.array_equal(val, state[key]), key
    rng = np.random.default_rng(4)
    indices, offsets = batch(rng)
    np.testing.assert_array_equal(other.forward(indices, offsets),
                                  emb.forward(indices, offsets))


def test_load_state_dict_rejects_bad_keys():
    emb = make_embedding(spec_for("lowrank"))
    state = emb.state_dict()
    key = next(iter(state))
    with pytest.raises(KeyError, match="missing"):
        emb.load_state_dict({k: v for k, v in state.items() if k != key})
    with pytest.raises(KeyError, match="unexpected"):
        emb.load_state_dict({**state, "9999:bogus": state[key]})
    with pytest.raises(ValueError, match="shape"):
        emb.load_state_dict({**state, key: state[key][:-1]})


@pytest.mark.parametrize("kind", sorted(SPECS))
def test_double_backward_contract(kind):
    emb = make_embedding(spec_for(kind))
    rng = np.random.default_rng(5)
    indices, offsets = batch(rng)
    grad = np.ones((len(offsets) - 1, DIM))
    if not emb.supports_gradient:
        emb.forward(indices, offsets)
        with pytest.raises(NotImplementedError):
            emb.backward(grad)
        return
    with pytest.raises(RuntimeError, match="before forward"):
        emb.backward(grad)
    emb.forward(indices, offsets)
    emb.backward(grad)
    with pytest.raises(RuntimeError, match="twice"):
        emb.backward(grad)
    # a fresh forward re-arms backward
    emb.forward(indices, offsets)
    emb.backward(grad)


@pytest.mark.parametrize("kind", sorted(SPECS))
def test_float32_policy_end_to_end(kind):
    with dtype_policy(np.float32):
        emb = make_embedding(spec_for(kind))
        rng = np.random.default_rng(6)
        indices, offsets = batch(rng)
        out = emb.forward(indices, offsets)
        assert out.dtype == np.float32
        assert emb.lookup(indices).dtype == np.float32
        if emb.supports_gradient:
            emb.backward(np.ones_like(out))
            for p in emb.parameters():
                if p.grad is not None:  # a cache before populate has no pair
                    g = p.grad.values if p.sparse else p.grad
                    assert g.dtype == np.float32, p.name


def test_factory_rejects_unknown_kind_and_params():
    with pytest.raises(ValueError, match="unknown compressor kind"):
        make_embedding(EmbeddingSpec(kind="nope", num_rows=10, dim=4))
    with pytest.raises(ValueError, match="unknown params"):
        make_embedding(EmbeddingSpec(kind="tt", num_rows=10, dim=4,
                                     params={"rnak": 4}))


# ---------------------------------------------------------------------- #
# New zoo members
# ---------------------------------------------------------------------- #


def test_dpq_from_dense_beats_random_codes():
    rng = np.random.default_rng(0)
    table = rng.normal(size=(ROWS, DIM))
    random = make_embedding(spec_for("dpq"))
    mse_random = float(((random.lookup(np.arange(ROWS)) - table) ** 2).mean())
    fitted = DPQEmbeddingBag.from_dense(table, num_subspaces=4,
                                        codebook_size=16, iters=5)
    mse_fit = float(((fitted.lookup(np.arange(ROWS)) - table) ** 2).mean())
    assert mse_fit < mse_random


def test_dpq_gradient_reaches_selected_entries():
    emb = make_embedding(spec_for("dpq"))
    indices = np.array([3, 3, 7], dtype=np.int64)
    out = emb.forward(indices, np.array([0, 3], dtype=np.int64))
    emb.backward(np.ones_like(out))
    touched = emb._global_codes(indices).ravel()
    grads = emb.codebooks.dense_grad()
    assert np.abs(grads[np.unique(touched)]).sum() > 0
    untouched = np.setdiff1d(np.arange(grads.shape[0]), touched)
    assert np.abs(grads[untouched]).sum() == 0


def test_alpt_trains_scales_and_codes():
    emb = make_embedding(spec_for("alpt"))
    before = emb.codes.copy()
    indices = np.arange(0, 50, dtype=np.int64)
    out = emb.forward(indices, np.arange(51, dtype=np.int64))
    emb.backward(np.full_like(out, 5.0))
    assert np.abs(emb.scales.dense_grad()[:50]).sum() > 0
    assert np.abs(emb.scales.dense_grad()[50:]).sum() == 0
    assert (emb.codes[:50] != before[:50]).any()       # codes moved
    np.testing.assert_array_equal(emb.codes[50:], before[50:])
    assert np.abs(emb.codes.astype(np.int64)).max() <= emb.qmax


def test_alpt_frozen_codes_when_lr_zero():
    spec = EmbeddingSpec(kind="alpt", num_rows=ROWS, dim=DIM,
                         params={"bits": 8, "weight_lr": 0.0})
    emb = make_embedding(spec)
    before = emb.codes.copy()
    out = emb.forward(np.arange(20, dtype=np.int64))
    emb.backward(np.ones_like(out))
    np.testing.assert_array_equal(emb.codes, before)


# ---------------------------------------------------------------------- #
# Low-rank scatter regression (PR-5 kernel vs np.add.at)
# ---------------------------------------------------------------------- #


def _lowrank_grad_pair(grad_out, *, integer_factors=False):
    """factor_a grads from the new scatter path and the old np.add.at path."""
    rng = np.random.default_rng(11)
    emb = LowRankEmbeddingBag(ROWS, DIM, rank=3, rng=0)
    if integer_factors:
        emb.factor_b.data[...] = np.random.default_rng(14).integers(
            -3, 4, size=emb.factor_b.data.shape)
    indices = rng.integers(0, ROWS, size=60).astype(np.int64)
    # duplicate-heavy stream to stress the combining path
    indices[::3] = indices[0]
    offsets = np.array([0, 20, 20, 45, 60], dtype=np.int64)
    emb.forward(indices, offsets)
    emb.backward(grad_out)

    # Reference: the pre-PR np.add.at accumulation of the same math.
    grad_pooled = grad_out @ emb.factor_b.data.T
    counts = np.diff(offsets)
    bag_ids = np.repeat(np.arange(len(counts)), counts)
    expected = np.zeros_like(emb.factor_a.data)
    np.add.at(expected, indices, grad_pooled[bag_ids])
    return emb.factor_a.dense_grad(), expected


def test_lowrank_backward_bitexact_vs_add_at():
    # Integer-valued gradients and factors make every summand exactly
    # representable, so float addition is exact in any order — any semantic
    # drift in index/weight handling between coalesce_rows and np.add.at
    # shows up bit-for-bit.
    rng = np.random.default_rng(12)
    grad_out = rng.integers(-8, 9, size=(4, DIM)).astype(np.float64)
    actual, expected = _lowrank_grad_pair(grad_out, integer_factors=True)
    np.testing.assert_array_equal(actual, expected)


def test_lowrank_backward_matches_add_at_random_floats():
    # With arbitrary floats the two paths may differ by summation order
    # only — bound it at a few ULPs.
    rng = np.random.default_rng(13)
    actual, expected = _lowrank_grad_pair(rng.normal(size=(4, DIM)))
    np.testing.assert_allclose(actual, expected, rtol=1e-14, atol=1e-14)
