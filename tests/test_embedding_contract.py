"""Conformance suite for the one embedding-bag contract.

Every operator class — the nine of ``tests.helpers.OPERATORS`` plus the
T3nsor baseline — is run through the same checks, built with its own
constructor, in two configurations and in both pooling modes: what
``CompressedEmbedding`` promises must hold for each of them, because it
is written once in the base class and nowhere else.
"""

import numpy as np
import pytest

from repro.baselines import (HashedEmbeddingBag, LowRankEmbeddingBag,
                             QuantizedEmbeddingBag, TREmbeddingBag)
from repro.cache import CachedTTEmbeddingBag
from repro.compress import (ALPTEmbeddingBag, CompressedEmbedding,
                            DPQEmbeddingBag)
from repro.ops import Module
from repro.reliability import FaultInjector
from repro.reliability.checkpoint import CheckpointManager
from repro.tt import T3nsorEmbeddingBag, TTEmbeddingBag
from repro.utils.validation import IndexOutOfRangeError
from tests.helpers import OPERATORS

ROWS, DIM = 60, 8

# The suite's own spec of each kind: a second configuration beside the
# zoo's (``native``, ``tests.helpers.OPERATORS``), with the constructors'
# defaults where the zoo pins a knob (TT's sampled-Gaussian init, an
# unsigned hash) and other sizes elsewhere. The dense table has no knob,
# so it has no second configuration.
SPEC = {
    "tt": lambda mode, seed: TTEmbeddingBag(
        ROWS, DIM, rank=4, mode=mode, rng=seed),
    "cached_tt": lambda mode, seed: CachedTTEmbeddingBag(
        ROWS, DIM, rank=4, cache_size=6, warmup_steps=1, mode=mode, rng=seed),
    "tr": lambda mode, seed: TREmbeddingBag(
        ROWS, DIM, rank=3, d=2, mode=mode, rng=seed),
    "hash": lambda mode, seed: HashedEmbeddingBag(
        ROWS, DIM, 16, mode=mode, rng=seed),
    "lowrank": lambda mode, seed: LowRankEmbeddingBag(
        ROWS, DIM, 3, mode=mode, rng=seed),
    "quant": lambda mode, seed: QuantizedEmbeddingBag.from_dense(
        np.random.default_rng(seed).normal(size=(ROWS, DIM)), bits=8,
        mode=mode),
    "dpq": lambda mode, seed: DPQEmbeddingBag(
        ROWS, DIM, num_subspaces=2, codebook_size=8, mode=mode, rng=seed),
    "alpt": lambda mode, seed: ALPTEmbeddingBag(
        ROWS, DIM, bits=4, mode=mode, seed=seed),
}


def build(name, how="native", mode="sum", seed=0):
    """A ``ROWS x DIM`` table of operator ``name`` (a helpers kind, or the
    T3nsor baseline, which holds no committed digest), in the zoo's
    configuration (``how="native"``) or the suite's (``how="spec"``)."""
    if name == "t3nsor":
        return T3nsorEmbeddingBag(ROWS, DIM, rank=4, mode=mode, rng=seed)
    if how == "spec":
        return SPEC[name](mode, seed)
    return OPERATORS[name](ROWS, DIM, mode, seed)


NAMES = sorted([*OPERATORS, "t3nsor"])
CLASSES = {name: type(build(name)) for name in NAMES}
TRAINABLE = [name for name in NAMES if CLASSES[name].supports_gradient]
# (operator, configuration): the ids read ``tt-native``, ``tt-spec``, ...
BUILDS = [(name, how) for name in NAMES
          for how in ("native", "spec") if how == "native" or name in SPEC]
each_build = pytest.mark.parametrize("name,how", BUILDS)
each_trainable_build = pytest.mark.parametrize(
    "name,how", [(name, how) for name, how in BUILDS if name in TRAINABLE])


def bags(seed, n=40, num_bags=6):
    """A CSR batch with duplicates and at least one empty bag."""
    rng = np.random.default_rng(seed)
    indices = rng.integers(0, ROWS, size=n).astype(np.int64)
    indices[::4] = indices[0]
    cuts = np.sort(rng.integers(0, n, size=num_bags - 2))
    offsets = np.concatenate([[0], cuts, [n, n]]).astype(np.int64)
    return indices, offsets


def pool_reference(rows, offsets, weights, mode):
    """Eq. 6-7 by the book: one Python loop per bag."""
    out = np.zeros((len(offsets) - 1, rows.shape[1]), dtype=rows.dtype)
    for b, (lo, hi) in enumerate(zip(offsets[:-1], offsets[1:])):
        seg = rows[lo:hi]
        if weights is not None:
            seg = seg * weights[lo:hi, None]
        out[b] = seg.sum(axis=0)
        if mode == "mean" and hi > lo:
            out[b] /= hi - lo
    return out


def train_steps(emb, steps, *, first=0, lr=0.1):
    """Seeded forward/backward/SGD steps ``first .. first+steps-1``."""
    for step in range(first, first + steps):
        indices, offsets = bags(100 + step)
        out = emb.forward(indices, offsets)
        emb.zero_grad()
        emb.backward(np.random.default_rng(200 + step).normal(size=out.shape))
        for p in emb.parameters():
            p.data -= lr * p.dense_grad()


class Holder(Module):
    """The smallest model a CheckpointManager can walk."""

    def __init__(self, emb):
        self.embeddings = [emb]


def checkpoint_roundtrip(tmp_path, src, dst):
    manager = CheckpointManager(tmp_path)
    manager.save(1, Holder(src))
    manager.restore(Holder(dst))


def state_dict_roundtrip(tmp_path, src, dst):
    dst.load_state_dict(src.state_dict())


# ---------------------------------------------------------------------- #
# The class hierarchy
# ---------------------------------------------------------------------- #


def test_suite_covers_every_operator():
    """A new operator class cannot skip this suite."""
    seen, todo = set(), [CompressedEmbedding]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in seen:
                seen.add(sub)
                todo.append(sub)
    assert seen == set(CLASSES.values())
    assert len(seen) == len(NAMES)  # one name per class


@pytest.mark.parametrize("name", NAMES)
def test_operator_subclasses_the_contract_directly(name):
    cls = CLASSES[name]
    assert CompressedEmbedding in cls.__bases__
    for method in ("forward", "backward", "lookup", "lookup_bags", "__call__"):
        assert method not in vars(cls), f"{cls.__name__} re-spells {method}"


def test_cached_default_size_is_resolved_once():
    """The 0.01 % default is one helper under the constructor and callers."""
    emb = CachedTTEmbeddingBag(50_000, DIM, rank=2)
    assert emb.cache_size == CachedTTEmbeddingBag.resolve_cache_size(50_000) == 5


# ---------------------------------------------------------------------- #
# forward == pool(lookup)
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("mode", ["sum", "mean"])
@pytest.mark.parametrize("weighted", [False, True], ids=["plain", "weighted"])
@each_build
def test_forward_is_pooled_lookup(name, how, weighted, mode):
    emb = build(name, how, mode)
    emb.forward(*bags(1))  # past any warm-up: the cache serves rows too
    indices, offsets = bags(2)
    weights = (np.random.default_rng(3).uniform(0.5, 2.0, size=indices.size)
               if weighted else None)
    out = emb.forward(indices, offsets, weights)
    rows = emb.lookup(indices)
    assert rows.shape == (indices.size, DIM) and rows.dtype == emb.dtype
    np.testing.assert_allclose(
        out, pool_reference(rows, offsets, weights, mode),
        rtol=1e-12, atol=1e-12)
    assert not out[-1].any()  # the trailing bag is empty


@each_build
def test_offsets_default_and_all_empty_bags(name, how):
    emb = build(name, how)
    indices = np.array([5, 0, 5], dtype=np.int64)
    np.testing.assert_allclose(emb.forward(indices), emb.lookup(indices),
                               rtol=1e-12, atol=1e-12)
    empty = emb.forward(np.empty(0, dtype=np.int64),
                        np.zeros(4, dtype=np.int64))
    assert empty.shape == (3, DIM) and not empty.any()
    if emb.supports_gradient:
        emb.zero_grad()
        emb.backward(np.ones((3, DIM)))
        assert not any(p.dense_grad().any() for p in emb.parameters())


# ---------------------------------------------------------------------- #
# lookup_bags == forward, for a reader
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("mode", ["sum", "mean"])
@pytest.mark.parametrize("weighted", [False, True], ids=["plain", "weighted"])
@each_build
def test_lookup_bags_is_forward_bit_for_bit(name, how, weighted, mode):
    emb = build(name, how, mode)
    emb.forward(*bags(1))  # past any warm-up: the cache serves rows too
    indices, offsets = bags(2)  # duplicates, and an empty trailing bag
    weights = (np.random.default_rng(3).uniform(0.5, 2.0, size=indices.size)
               if weighted else None)
    read = emb.lookup_bags(indices, offsets, weights)
    out = emb.forward(indices, offsets, weights)
    assert read.dtype == out.dtype == emb.dtype
    assert read.tobytes() == out.tobytes()
    assert emb.lookup_bags(indices, offsets, weights).tobytes() == out.tobytes()


@each_build
def test_lookup_bags_offsets_default_and_all_empty_bags(name, how):
    emb = build(name, how)
    indices = np.array([5, 0, 5], dtype=np.int64)
    assert emb.lookup_bags(indices).tobytes() == emb.forward(indices).tobytes()
    empty = emb.lookup_bags(np.empty(0, dtype=np.int64),
                            np.zeros(4, dtype=np.int64))
    assert empty.shape == (3, DIM) and not empty.any()


@each_trainable_build
def test_lookup_bags_between_forward_and_backward_is_pure(name, how):
    """A served read between a training forward and its backward changes
    neither the gradients nor what the next step sees."""
    indices, offsets = bags(5)
    grad = np.random.default_rng(6).normal(size=(len(offsets) - 1, DIM))
    grads, states = [], []
    for interleave in (False, True):
        emb = build(name, how)
        emb.forward(*bags(1))
        emb.zero_grad()
        emb.forward(indices, offsets)
        if interleave:
            emb.lookup_bags(*bags(7))
            emb.lookup_bags(np.arange(ROWS))
        emb.backward(grad)
        grads.append([p.dense_grad().copy() for p in emb.parameters()])
        states.append(emb.state_dict())
    for plain, interleaved in zip(*grads):
        np.testing.assert_array_equal(plain, interleaved)
    served = {"extra:lookups", "extra:hits", "extra:misses"}  # cached TT counts reads
    assert states[0].keys() == states[1].keys()
    for key in states[0].keys() - served:
        np.testing.assert_array_equal(states[0][key], states[1][key], err_msg=key)


def test_cached_lookup_bags_counts_what_it_serves():
    """Hits, misses and read validation are the forward's, one body: a read
    advances ``lookups == hits + misses`` and repairs a poisoned row, and
    leaves the step count, the tracker and the resident set alone."""
    emb = build("cached_tt")
    emb.forward(*bags(1))  # warmup_steps=1: populates from this batch
    assert emb.is_warm
    emb.injector = FaultInjector(seed=0)  # no sites: validates reads only
    before, steps = emb.stats(), emb._steps
    tracked = emb.tracker.state_dict()
    resident = emb._cached_ids.copy()
    emb.cache_rows.data[emb._cache_slot[0]] = np.nan
    indices, offsets = bags(2)
    indices[0] = resident[0]
    out = emb.lookup_bags(indices, offsets)
    assert np.isfinite(out).all()
    after = emb.stats()
    assert after["lookups"] == before["lookups"] + indices.size
    assert after["lookups"] == after["hits"] + after["misses"]
    assert after["hits"] > before["hits"] and after["misses"] > before["misses"]
    assert after["repairs"] == before["repairs"] + 1
    assert (after["refreshes"], emb._steps) == (before["refreshes"], steps)
    np.testing.assert_array_equal(emb._cached_ids, resident)
    for key, value in emb.tracker.state_dict().items():
        np.testing.assert_array_equal(value, tracked[key], err_msg=key)


# ---------------------------------------------------------------------- #
# One input-validation behaviour
# ---------------------------------------------------------------------- #


@each_build
def test_bad_ids_raise_in_forward_and_lookup(name, how):
    emb = build(name, how)
    for call in (emb.forward, emb.lookup, emb.lookup_bags):
        with pytest.raises(TypeError):
            call(np.array([1.7, 2.9]))
        with pytest.raises(IndexOutOfRangeError):
            call(np.array([3, -1]))
        with pytest.raises(IndexOutOfRangeError):
            call(np.array([ROWS]))
    for call in (emb.forward, emb.lookup_bags):
        with pytest.raises(ValueError, match="per_sample_weights"):
            call(np.array([1, 2]), np.array([0, 2]), np.array([1.0]))
        with pytest.raises(ValueError, match="offsets"):
            call(np.array([1, 2]), np.array([0, 1]))
        with pytest.raises(ValueError, match="non-decreasing"):
            call(np.array([1, 2, 3]), np.array([0, 2, 1, 3]))


# ---------------------------------------------------------------------- #
# The re-entrancy guard
# ---------------------------------------------------------------------- #


@each_build
def test_backward_guard(name, how):
    emb = build(name, how)
    indices, offsets = bags(4)
    grad = np.ones((len(offsets) - 1, DIM))
    if not emb.supports_gradient:
        emb.forward(indices, offsets)
        with pytest.raises(NotImplementedError, match="inference-only"):
            emb.backward(grad)
        return
    with pytest.raises(RuntimeError, match="before forward"):
        emb.backward(grad)
    emb.forward(indices, offsets)
    emb.backward(grad)
    snapshot = [p.dense_grad().copy() for p in emb.parameters()]
    with pytest.raises(RuntimeError, match="twice"):
        emb.backward(grad)
    for p, before in zip(emb.parameters(), snapshot):
        np.testing.assert_array_equal(p.dense_grad(), before)  # the raise added nothing
    emb.forward(indices, offsets)  # a fresh forward re-arms backward
    emb.backward(grad)


@each_trainable_build
def test_lookup_between_forward_and_backward_is_pure(name, how):
    """``lookup`` runs between a forward and its backward (cache populate,
    scrub, replicas): it must not change the gradients that backward makes."""
    indices, offsets = bags(5)
    grad = np.random.default_rng(6).normal(size=(len(offsets) - 1, DIM))
    grads = []
    for interleave in (False, True):
        emb = build(name, how)
        emb.forward(indices, offsets)
        if interleave:
            emb.lookup(np.arange(ROWS))
        emb.backward(grad)
        grads.append([p.dense_grad().copy() for p in emb.parameters()])
    for plain, interleaved in zip(*grads):
        np.testing.assert_array_equal(plain, interleaved)


# ---------------------------------------------------------------------- #
# Non-parameter state survives every serialiser
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("roundtrip", [state_dict_roundtrip,
                                       checkpoint_roundtrip],
                         ids=["state_dict", "checkpoint_manager"])
@each_build
def test_state_roundtrip_into_differently_seeded_twin(name, how, roundtrip,
                                                       tmp_path):
    src = build(name, how, seed=0)
    if src.supports_gradient:
        train_steps(src, 3)  # warms the cache, moves ALPT codes
    else:
        src.forward(*bags(1))
    dst = build(name, how, seed=7)
    everything = np.arange(ROWS)
    assert not np.array_equal(dst.lookup(everything), src.lookup(everything))
    roundtrip(tmp_path, src, dst)
    np.testing.assert_array_equal(dst.lookup(everything), src.lookup(everything))
    want, got = src.state_dict(), dst.state_dict()
    assert want.keys() == got.keys()
    for key in want:
        np.testing.assert_array_equal(got[key], want[key], err_msg=key)


def test_checkpoint_has_one_entry_per_stateful_module(tmp_path):
    """A cached table's bookkeeping is saved at its own path only."""
    emb = build("cached_tt")
    train_steps(emb, 2)
    manager = CheckpointManager(tmp_path)
    manager.save(1, Holder(emb))
    ck = manager.load(1)
    owners = {key.split("/")[1] for key in ck.arrays if key.startswith("extra/")}
    assert owners == set(ck.manifest["extra"]) == {"embeddings.0"}


@pytest.mark.parametrize("roundtrip", [state_dict_roundtrip,
                                       checkpoint_roundtrip],
                         ids=["state_dict", "checkpoint_manager"])
def test_alpt_resume_then_continue_equals_uninterrupted(roundtrip, tmp_path):
    """The stochastic-rounding stream is state: 5 steps, save, restore
    into a fresh table, 3 more steps == 8 uninterrupted steps, bit for bit."""
    straight = build("alpt", seed=0)
    train_steps(straight, 8)
    first = build("alpt", seed=0)
    train_steps(first, 5)
    resumed = build("alpt", seed=3)
    roundtrip(tmp_path, first, resumed)
    train_steps(resumed, 3, first=5)
    np.testing.assert_array_equal(resumed.codes, straight.codes)
    np.testing.assert_array_equal(resumed.scales.data, straight.scales.data)


# ---------------------------------------------------------------------- #
# The serving hook is part of the contract
# ---------------------------------------------------------------------- #


@each_build
def test_scrub_is_part_of_the_contract(name, how):
    assert build(name, how).scrub() == 0  # nothing poisoned, nothing repaired
