"""Tests for synthetic CTR data generation and batching."""

import numpy as np
import pytest

from repro.data import KAGGLE, Batch, SyntheticCTRDataset, make_offsets
from repro.data.synthetic import hash_gaussian


@pytest.fixture(scope="module")
def spec():
    return KAGGLE.scaled(0.0005)


class TestMakeOffsets:
    def test_basic(self):
        np.testing.assert_array_equal(make_offsets(np.array([2, 0, 3])), [0, 2, 2, 5])

    def test_empty(self):
        np.testing.assert_array_equal(make_offsets(np.array([], dtype=np.int64)), [0])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            make_offsets(np.array([1, -1]))

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            make_offsets(np.zeros((2, 2), dtype=np.int64))


class TestBatch:
    def test_validates_bag_counts(self):
        with pytest.raises(ValueError):
            Batch(
                dense=np.zeros((2, 3)),
                sparse=[(np.array([0]), np.array([0, 1]))],  # 1 bag, batch 2
                labels=np.zeros(2),
            )

    def test_validates_labels(self):
        with pytest.raises(ValueError):
            Batch(dense=np.zeros((2, 3)), sparse=[], labels=np.zeros(3))


class TestHashGaussian:
    def test_deterministic(self):
        keys = np.arange(100)
        np.testing.assert_array_equal(
            hash_gaussian(keys, salt=3, dim=4), hash_gaussian(keys, salt=3, dim=4)
        )

    def test_salt_changes_values(self):
        keys = np.arange(100)
        a = hash_gaussian(keys, salt=1, dim=4)
        b = hash_gaussian(keys, salt=2, dim=4)
        assert not np.allclose(a, b)

    def test_approximately_standard_normal(self):
        x = hash_gaussian(np.arange(50_000), salt=0, dim=2).ravel()
        assert abs(x.mean()) < 0.02
        assert x.std() == pytest.approx(1.0, abs=0.02)
        # rough shape: ~68% within one sigma
        assert np.mean(np.abs(x) < 1) == pytest.approx(0.6827, abs=0.02)

    def test_odd_dim(self):
        assert hash_gaussian(np.arange(10), salt=0, dim=3).shape == (10, 3)


class TestSyntheticCTRDataset:
    def test_batch_layout(self, spec):
        ds = SyntheticCTRDataset(spec, seed=0)
        b = ds.batch(32)
        assert b.dense.shape == (32, 13)
        assert len(b.sparse) == 26
        assert set(np.unique(b.labels)) <= {0.0, 1.0}
        for t, (idx, off) in enumerate(b.sparse):
            assert off.shape == (33,)
            assert idx.max() < spec.table_sizes[t]

    def test_pooling_factor_one_is_single_lookup(self, spec):
        ds = SyntheticCTRDataset(spec, seed=0, pooling_factor=1.0)
        b = ds.batch(16)
        for idx, off in b.sparse:
            np.testing.assert_array_equal(np.diff(off), 1)

    def test_pooling_factor_mean(self, spec):
        ds = SyntheticCTRDataset(spec, seed=0, pooling_factor=10.0)
        b = ds.batch(256)
        counts = np.diff(b.sparse[0][1])
        assert counts.min() >= 1
        assert counts.mean() == pytest.approx(10.0, rel=0.15)

    def test_labels_correlate_with_planted_logits(self, spec):
        ds = SyntheticCTRDataset(spec, seed=1, noise=0.5)
        b = ds.batch(4096)
        z = ds.logits(b.dense, b.sparse)
        # positive-label mean logit exceeds negative-label mean logit
        assert z[b.labels == 1].mean() > z[b.labels == 0].mean() + 0.1

    def test_same_seed_same_stream(self, spec):
        a = SyntheticCTRDataset(spec, seed=7).batch(8)
        b = SyntheticCTRDataset(spec, seed=7).batch(8)
        np.testing.assert_array_equal(a.labels, b.labels)
        np.testing.assert_allclose(a.dense, b.dense)
        for (ia, _), (ib, _) in zip(a.sparse, b.sparse):
            np.testing.assert_array_equal(ia, ib)

    def test_batches_iterator(self, spec):
        ds = SyntheticCTRDataset(spec, seed=0)
        batches = list(ds.batches(4, 3))
        assert len(batches) == 3
        assert all(b.size == 4 for b in batches)

    def test_access_stream_skewed(self, spec):
        ds = SyntheticCTRDataset(spec, seed=0, zipf_s=1.2)
        table = spec.largest(1)[0]
        stream = ds.access_stream(table, 20_000)
        counts = np.bincount(stream)
        top10 = np.sort(counts)[-10:].sum()
        assert top10 / stream.size > 0.1  # heavy concentration

    def test_validation(self, spec):
        with pytest.raises(ValueError):
            SyntheticCTRDataset(spec, pooling_factor=0.5)
        with pytest.raises(ValueError):
            SyntheticCTRDataset(spec, latent_dim=0)
        with pytest.raises(ValueError):
            SyntheticCTRDataset(spec, noise=-1.0)
        ds = SyntheticCTRDataset(spec, seed=0)
        with pytest.raises(ValueError):
            ds.batch(0)
        with pytest.raises(ValueError):
            ds.access_stream(99, 10)
