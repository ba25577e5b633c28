"""Tests for the fused multi-table TT kernel (bit-equivalence is the bar)."""

import numpy as np
import pytest

from repro.tt import TTEmbeddingBag, TTShape
from repro.tt.grouped import GroupedTTEmbeddingBag
from tests.helpers import random_csr

SHAPE = TTShape.with_uniform_rank(60, 8, (3, 4, 5), (2, 2, 2), rank=4)


def make_group(n_tables=4, mode="sum"):
    tables = [TTEmbeddingBag(60, 8, shape=SHAPE, mode=mode, rng=i)
              for i in range(n_tables)]
    return GroupedTTEmbeddingBag(tables), tables


def make_inputs(rng, n_tables, bags=5, weighted=False):
    sparse, weights = [], []
    for _ in range(n_tables):
        idx, off = random_csr(rng, 60, bags)
        sparse.append((idx, off))
        weights.append(rng.normal(size=idx.size) if weighted else None)
    return sparse, weights


class TestForwardEquivalence:
    @pytest.mark.parametrize("mode", ["sum", "mean"])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_matches_per_table_forward(self, mode, weighted):
        rng = np.random.default_rng(0)
        group, tables = make_group(mode=mode)
        sparse, weights = make_inputs(rng, 4, weighted=weighted)
        fused = group.forward_all(sparse, weights if weighted else None)
        for t, (emb, (idx, off)) in enumerate(zip(tables, sparse)):
            solo = emb.forward(idx, off, weights[t])
            np.testing.assert_allclose(fused[t], solo, atol=1e-12)

    def test_empty_table_in_group(self):
        group, tables = make_group(2)
        sparse = [
            (np.array([3, 4], dtype=np.int64), np.array([0, 1, 2])),
            (np.empty(0, dtype=np.int64), np.array([0, 0, 0])),
        ]
        out = group.forward_all(sparse)
        assert out[0].shape == (2, 8)
        np.testing.assert_allclose(out[1], 0.0)

    def test_all_empty(self):
        group, _ = make_group(2)
        sparse = [(np.empty(0, dtype=np.int64), np.array([0, 0]))] * 2
        out = group.forward_all(sparse)
        for o in out:
            assert not o.any()

    def test_wrong_table_count(self):
        group, _ = make_group(3)
        with pytest.raises(ValueError):
            group.forward_all([(np.array([0]), np.array([0, 1]))])


class TestBackwardEquivalence:
    @pytest.mark.parametrize("mode", ["sum", "mean"])
    def test_matches_per_table_backward(self, mode):
        rng = np.random.default_rng(1)
        group, tables = make_group(mode=mode)
        solo_tables = [TTEmbeddingBag(60, 8, shape=SHAPE, mode=mode, rng=i)
                       for i in range(4)]
        for a, b in zip(solo_tables, tables):
            a.load_cores([p.data.copy() for p in b.cores])
        sparse, weights = make_inputs(rng, 4, weighted=True)
        grads = [rng.normal(size=(5, 8)) for _ in range(4)]

        group.forward_all(sparse, weights)
        group.backward_all(grads)
        for t, emb in enumerate(solo_tables):
            emb.zero_grad()
            emb.forward(*sparse[t], weights[t])
            emb.backward(grads[t])
            for pf, ps in zip(tables[t].cores, emb.cores):
                np.testing.assert_allclose(pf.grad, ps.grad, atol=1e-11)

    @pytest.mark.parametrize("dedup", [False, True], ids=["nodedup", "dedup"])
    @pytest.mark.parametrize("kind", ["n0", "all_equal", "first_last"])
    def test_edge_batches_with_an_empty_member(self, kind, dedup):
        """Member 1 is always empty; the others get no lookups at all, one
        row repeated, or only the first and last row (the first and last
        slice of every core). Fused == per table, bit for bit."""
        ids = {"n0": np.empty(0, dtype=np.int64),
               "all_equal": np.full(6, 17),
               "first_last": np.array([59, 0, 0, 59, 59, 0])}[kind]
        bags = np.array([0, 0, ids.size // 2, ids.size])
        empty = (np.empty(0, dtype=np.int64), np.zeros(4, dtype=np.int64))
        sparse = [(ids, bags), empty, (ids[::-1].copy(), bags)]
        rng = np.random.default_rng(3)
        grads = [rng.normal(size=(3, 8)) for _ in sparse]

        tables = [TTEmbeddingBag(60, 8, shape=SHAPE, rng=i, dedup=dedup)
                  for i in range(3)]
        solo = [TTEmbeddingBag(60, 8, shape=SHAPE, rng=i, dedup=dedup)
                for i in range(3)]
        group = GroupedTTEmbeddingBag(tables)
        fused = group.forward_all(sparse)
        group.backward_all(grads)
        for t, emb in enumerate(solo):
            assert np.array_equal(fused[t], emb.forward(*sparse[t]))
            emb.backward(grads[t])
            for pf, ps in zip(tables[t].cores, emb.cores):
                assert np.array_equal(pf.grad, ps.grad)
        assert not fused[1].any()
        assert all(p.touched_rows is None for p in tables[1].cores)

    def test_touched_rows_recorded_per_table(self):
        rng = np.random.default_rng(2)
        group, tables = make_group(2)
        sparse, _ = make_inputs(rng, 2)
        group.forward_all(sparse)
        group.backward_all([np.ones((5, 8))] * 2)
        for t, emb in enumerate(tables):
            decoded = SHAPE.decode_indices(sparse[t][0])
            for k, p in enumerate(emb.cores):
                np.testing.assert_array_equal(
                    p.touched_rows, np.unique(decoded[k])
                )

    def test_backward_before_forward(self):
        group, _ = make_group(2)
        with pytest.raises(RuntimeError):
            group.backward_all([np.ones((1, 8))] * 2)

    def test_wrong_grad_count(self):
        rng = np.random.default_rng(3)
        group, _ = make_group(2)
        sparse, _ = make_inputs(rng, 2)
        group.forward_all(sparse)
        with pytest.raises(ValueError):
            group.backward_all([np.ones((5, 8))])


class TestValidation:
    def test_requires_same_shape(self):
        a = TTEmbeddingBag(60, 8, shape=SHAPE, rng=0)
        other = TTShape.with_uniform_rank(60, 8, (3, 4, 5), (2, 2, 2), rank=3)
        b = TTEmbeddingBag(60, 8, shape=other, rng=1)
        with pytest.raises(ValueError, match="identical shapes"):
            GroupedTTEmbeddingBag([a, b])

    def test_requires_same_mode(self):
        a = TTEmbeddingBag(60, 8, shape=SHAPE, mode="sum", rng=0)
        b = TTEmbeddingBag(60, 8, shape=SHAPE, mode="mean", rng=1)
        with pytest.raises(ValueError, match="pooling mode"):
            GroupedTTEmbeddingBag([a, b])

    def test_requires_nonempty(self):
        with pytest.raises(ValueError):
            GroupedTTEmbeddingBag([])

    def test_parameters_are_member_tables(self):
        group, tables = make_group(2)
        names = {p.name for p in group.parameters()}
        for t in tables:
            for p in t.parameters():
                assert p.name in names
