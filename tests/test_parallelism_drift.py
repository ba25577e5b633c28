"""Tests for the §5 parallelism cost model and traffic drift."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.parallelism import (
    ClusterSpec,
    compare_parallelism,
    data_parallel_cost,
    model_parallel_cost,
)
from repro.data import KAGGLE, TERABYTE, SyntheticCTRDataset, ZipfSampler
from repro.models import DLRMConfig, TTConfig, build_dlrm, build_ttrec


class TestClusterSpec:
    def test_transfer_time_alpha_beta(self):
        c = ClusterSpec(num_devices=2, link_bandwidth_gbps=100, link_latency_us=5)
        # 1 MB at 100 Gbps = 8e6 bits / 1e5 bits-per-us = 80 us + 5 us
        assert c.transfer_us(1e6) == pytest.approx(85.0)

    def test_validation(self):
        nan = float("nan")
        for kwargs in (dict(num_devices=0), dict(num_devices=True),
                       dict(num_devices=2, link_bandwidth_gbps=0),
                       dict(num_devices=2, link_bandwidth_gbps=float("inf")),
                       dict(num_devices=8, device_memory_gb=nan),
                       dict(num_devices=8, device_memory_gb=-5.0),
                       dict(num_devices=2, link_latency_us=nan),
                       dict(num_devices=2, link_latency_us=-5.0)):
            with pytest.raises(ValueError):
                ClusterSpec(**kwargs)


class TestParallelismModel:
    @staticmethod
    def _nbytes(*modules):
        return sum(p.data.nbytes for m in modules for p in m.parameters())

    def test_costs_equal_the_built_models(self):
        """§5's inputs read off models this package builds, not re-derived."""
        n, batch_size = 4, 64
        spec = KAGGLE.scaled(0.001)
        config = DLRMConfig(table_sizes=spec.table_sizes, emb_dim=spec.emb_dim)
        cluster = ClusterSpec(num_devices=n)

        ttrec = build_ttrec(config, num_tt_tables=7, tt=TTConfig(rank=32),
                            min_rows=1, rng=0)
        assert ttrec.parameters()[0].data.dtype.itemsize == 8
        tt_bytes = self._nbytes(ttrec)
        dp = data_parallel_cost(spec, cluster, num_tt_tables=7, rank=32,
                                dtype_bytes=8)
        assert dp.per_device_model_bytes == tt_bytes
        assert dp.comm_bytes == int(2 * (n - 1) / n * tt_bytes)

        dense = build_dlrm(config, rng=0)
        emb_bytes = self._nbytes(*dense.embeddings)
        mlp_bytes = self._nbytes(dense.bottom_mlp, dense.top_mlp)
        assert emb_bytes + mlp_bytes == self._nbytes(dense)
        mp = model_parallel_cost(spec, cluster, batch_size=batch_size,
                                 dtype_bytes=8)
        assert mp.per_device_model_bytes == emb_bytes // n + mlp_bytes
        batch = SyntheticCTRDataset(spec, seed=0).batch(batch_size)
        pooled_bytes = sum(emb.forward(idx, off).nbytes for emb, (idx, off)
                           in zip(dense.embeddings, batch.sparse))
        all_to_all = mp.comm_bytes - 2 * (n - 1) * mlp_bytes // n
        assert all_to_all == 2 * (n - 1) * pooled_bytes // n

    def test_cost_arguments_are_validated(self):
        cluster = ClusterSpec(num_devices=2)
        for kwargs in (dict(batch_size=0), dict(batch_size=-64),
                       dict(batch_size=64, dtype_bytes=0)):
            with pytest.raises(ValueError):
                model_parallel_cost(KAGGLE, cluster, **kwargs)
        for kwargs in (dict(num_tt_tables=-1), dict(num_tt_tables=KAGGLE.num_tables + 1),
                       dict(rank=0), dict(dtype_bytes=0)):
            args = dict(num_tt_tables=7, rank=32) | kwargs
            with pytest.raises(ValueError):
                data_parallel_cost(KAGGLE, cluster, **args)
        # The bounds themselves are legal: no table, or every table, in TT.
        for k in (0, KAGGLE.num_tables):
            data_parallel_cost(KAGGLE, cluster, num_tt_tables=k, rank=32)

    def test_dense_terabyte_does_not_fit_one_gpu(self):
        """The paper's §5 premise: large-dim DLRMs exceed device memory."""
        cluster = ClusterSpec(num_devices=1, device_memory_gb=8.0)
        dense = model_parallel_cost(TERABYTE, cluster, batch_size=2048)
        assert not dense.fits_per_device

    def test_ttrec_fits_where_dense_does_not(self):
        cluster = ClusterSpec(num_devices=1, device_memory_gb=8.0)
        tt = data_parallel_cost(TERABYTE, cluster, num_tt_tables=7, rank=32)
        assert tt.fits_per_device

    def test_single_device_no_comm(self):
        cluster = ClusterSpec(num_devices=1)
        dense = model_parallel_cost(KAGGLE, cluster, batch_size=2048)
        tt = data_parallel_cost(KAGGLE, cluster, num_tt_tables=7, rank=32)
        assert dense.comm_bytes == 0 and tt.comm_bytes == 0

    def test_ttrec_moves_fewer_bytes_than_dense_allreduce_would(self):
        """Data-parallel dense would allreduce GBs of tables; TT-Rec's
        allreduce is MB-scale — two orders of magnitude less."""
        cluster = ClusterSpec(num_devices=8)
        tt = data_parallel_cost(KAGGLE, cluster, num_tt_tables=7, rank=32)
        dense_tables_bytes = KAGGLE.embedding_bytes()
        assert tt.comm_bytes < dense_tables_bytes / 50

    def test_sharding_reduces_per_device_footprint(self):
        one = model_parallel_cost(TERABYTE, ClusterSpec(num_devices=1),
                                  batch_size=2048)
        eight = model_parallel_cost(TERABYTE, ClusterSpec(num_devices=8),
                                    batch_size=2048)
        assert eight.per_device_model_bytes < one.per_device_model_bytes

    def test_a2a_volume_scales_with_batch(self):
        cluster = ClusterSpec(num_devices=4)
        small = model_parallel_cost(KAGGLE, cluster, batch_size=512)
        large = model_parallel_cost(KAGGLE, cluster, batch_size=4096)
        assert large.comm_bytes > small.comm_bytes

    def test_compare_returns_both(self):
        dense, tt = compare_parallelism(KAGGLE, ClusterSpec(num_devices=8))
        assert "model-parallel" in dense.strategy
        assert "data-parallel" in tt.strategy
        assert "GB/device" in dense.summary()

    @given(st.integers(min_value=2, max_value=64))
    @settings(max_examples=20, deadline=None)
    def test_property_comm_time_positive_multi_device(self, n):
        cluster = ClusterSpec(num_devices=n)
        dense, tt = compare_parallelism(KAGGLE, cluster)
        assert dense.comm_time_us > 0
        assert tt.comm_time_us > 0
        assert dense.comm_bytes > 0 and tt.comm_bytes > 0


class TestZipfDrift:
    def test_drift_preserves_permutation(self):
        z = ZipfSampler(500, 1.1, rng=0)
        for _ in range(10):
            z.drift(0.2)
            ids = np.sort(z._rank_to_id)
            np.testing.assert_array_equal(ids, np.arange(500))

    def test_drift_changes_hot_set(self):
        z = ZipfSampler(1000, 1.2, rng=0)
        before = set(z.hottest(50))
        z.drift(0.5)
        after = set(z.hottest(50))
        assert before != after

    def test_zero_drift_is_noop(self):
        z = ZipfSampler(100, 1.0, rng=0)
        before = z._rank_to_id.copy()
        z.drift(0.0)
        np.testing.assert_array_equal(z._rank_to_id, before)

    def test_pmf_unchanged_by_drift(self):
        z = ZipfSampler(100, 1.0, rng=0)
        total_before = z.pmf().sum()
        z.drift(0.3)
        assert z.pmf().sum() == pytest.approx(total_before)
        assert z.top_k_mass(10) == pytest.approx(z.top_k_mass(10))

    def test_validation(self):
        z = ZipfSampler(100, 1.0, rng=0)
        with pytest.raises(ValueError):
            z.drift(1.5)

    def test_drifting_stream_defeats_static_cache(self):
        """Under drift, a frozen hot set loses hit rate while a refreshed
        LFU tracker keeps up — the reason the cache is semi-dynamic."""
        rng_hits = {"static": 0, "refresh": 0}
        for policy in ("static", "refresh"):
            z = ZipfSampler(2000, 1.3, rng=42)
            frozen = np.sort(z.hottest(100))
            hits = 0
            total = 0
            current = frozen.copy()
            for step in range(40):
                batch = z.sample(500)
                lookup_set = frozen if policy == "static" else current
                hits += np.isin(batch, lookup_set).sum()
                total += batch.size
                z.drift(0.02)
                if policy == "refresh":
                    current = np.sort(z.hottest(100))
            rng_hits[policy] = hits / total
        assert rng_hits["refresh"] > rng_hits["static"] + 0.05
