"""Tests for dataset specs and the Zipf sampler."""

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.data.synthetic as synthetic
from repro.data import (KAGGLE, PAPER_KAGGLE_TT_SHAPES, TERABYTE, DatasetSpec,
                        SyntheticCTRDataset, ZipfSampler)
from repro.utils.seeding import as_rng


class TestSpecs:
    def test_kaggle_layout(self):
        assert KAGGLE.num_tables == 26
        assert KAGGLE.num_dense == 13
        assert KAGGLE.emb_dim == 16

    def test_kaggle_seven_largest_match_paper_table2(self):
        sizes = [KAGGLE.table_sizes[i] for i in KAGGLE.largest(7)]
        assert sorted(sizes, reverse=True) == [
            10131227, 8351593, 7046547, 5461306, 2202608, 286181, 142572
        ]

    def test_kaggle_total_size_matches_paper(self):
        """Paper: Kaggle embedding tables total 2.16 GB (decimal GB)."""
        gb = KAGGLE.embedding_bytes() / 1e9
        assert gb == pytest.approx(2.16, abs=0.01)

    def test_seven_largest_are_99_percent(self):
        """Paper §6.1: the 7 largest tables constitute 99% of the model."""
        top = sum(KAGGLE.table_sizes[i] for i in KAGGLE.largest(7))
        assert top / KAGGLE.total_rows() > 0.99

    def test_terabyte_layout(self):
        assert TERABYTE.num_tables == 26
        assert TERABYTE.total_rows() > 180_000_000

    def test_paper_shapes_cover_seven_tables(self):
        assert len(PAPER_KAGGLE_TT_SHAPES) == 7
        for rows, (m, n) in PAPER_KAGGLE_TT_SHAPES.items():
            assert np.prod(m) >= rows
            assert np.prod(n) == 16

    def test_scaled_preserves_ordering(self):
        small = KAGGLE.scaled(0.001)
        assert small.largest(7) == KAGGLE.largest(7)
        assert min(small.table_sizes) >= 4

    def test_scaled_validation(self):
        with pytest.raises(ValueError):
            KAGGLE.scaled(0.0)
        with pytest.raises(ValueError, match="factor"):
            KAGGLE.scaled(float("nan"))
        with pytest.raises(ValueError, match="factor"):
            KAGGLE.scaled(float("inf"))

    def test_spec_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            DatasetSpec(name="x", table_sizes=(0, 5))


class TestZipfSampler:
    def test_bounds(self):
        z = ZipfSampler(100, 1.1, rng=0)
        s = z.sample(10_000)
        assert s.min() >= 0 and s.max() < 100

    def test_zero_exponent_is_uniform(self):
        z = ZipfSampler(50, 0.0, rng=0)
        s = z.sample(100_000)
        counts = np.bincount(s, minlength=50)
        assert counts.max() / counts.min() < 1.3

    def test_skew_increases_with_exponent(self):
        top_mass = []
        for s_exp in (0.5, 1.0, 1.5):
            z = ZipfSampler(1000, s_exp, rng=0)
            top_mass.append(z.top_k_mass(10))
        assert top_mass[0] < top_mass[1] < top_mass[2]

    def test_empirical_matches_pmf(self):
        z = ZipfSampler(20, 1.0, rng=0)
        s = z.sample(200_000)
        emp = np.bincount(s, minlength=20) / s.size
        np.testing.assert_allclose(emp, z.pmf(), atol=0.01)

    def test_hottest_have_highest_pmf(self):
        z = ZipfSampler(100, 1.2, rng=3)
        pmf = z.pmf()
        hot = z.hottest(5)
        assert set(hot) == set(np.argsort(-pmf)[:5])

    def test_top_k_mass_monotone_and_complete(self):
        z = ZipfSampler(100, 1.05, rng=0)
        masses = [z.top_k_mass(k) for k in (0, 1, 10, 100)]
        assert masses[0] == 0.0
        assert masses[-1] == pytest.approx(1.0)
        assert all(a < b for a, b in zip(masses, masses[1:]))

    def test_rank_for_mass_inverse(self):
        z = ZipfSampler(1000, 1.1, rng=0)
        k = z.rank_for_mass(0.5)
        assert z.top_k_mass(k) >= 0.5
        assert z.top_k_mass(k - 1) < 0.5

    def test_sample_zero(self):
        assert ZipfSampler(10, rng=0).sample(0).size == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            ZipfSampler(0)
        with pytest.raises(ValueError):
            ZipfSampler(10, -1.0)
        z = ZipfSampler(10, rng=0)
        with pytest.raises(ValueError):
            z.sample(-1)
        with pytest.raises(ValueError):
            z.rank_for_mass(1.5)

    @given(st.integers(min_value=1, max_value=500),
           st.floats(min_value=0.0, max_value=2.0, allow_nan=False))
    @settings(max_examples=40, deadline=None)
    def test_property_pmf_normalised(self, n, s):
        z = ZipfSampler(n, s, rng=0)
        assert z.pmf().sum() == pytest.approx(1.0)
        assert z.pmf().min() >= 0


class StoredPmfZipfSampler:
    """The sampler as it was when it stored the pmf beside the CDF and an
    int64 id map (24 bytes a row): the reference the 12-byte one equals."""

    def __init__(self, n, s=1.05, *, rng=None):
        self.n = n
        self.s = s
        self._rng = as_rng(rng)
        weights = 1.0 / np.power(np.arange(1, n + 1, dtype=np.float64), s)
        self._pmf_by_rank = weights / weights.sum()
        self._cdf = np.cumsum(self._pmf_by_rank)
        self._cdf[-1] = 1.0
        self._rank_to_id = self._rng.permutation(n).astype(np.int64)

    def sample(self, size):
        u = self._rng.random(size)
        return self._rank_to_id[np.searchsorted(self._cdf, u, side="right")]

    def pmf(self):
        out = np.empty(self.n)
        out[self._rank_to_id] = self._pmf_by_rank
        return out

    def hottest(self, k):
        return self._rank_to_id[:min(max(k, 0), self.n)]

    def top_k_mass(self, k):
        return float(self._pmf_by_rank[:min(max(k, 0), self.n)].sum())

    def rank_for_mass(self, mass):
        return int(np.searchsorted(self._cdf, mass, side="left")) + 1

    def drift(self, fraction):
        n_swaps = min(int(round(fraction * self.n)), self.n // 2)
        if n_swaps == 0:
            return
        demoted = self._rng.choice(self.n, size=n_swaps, replace=False,
                                   p=self._pmf_by_rank)
        mask = np.ones(self.n, dtype=bool)
        mask[demoted] = False
        promoted = self._rng.choice(np.flatnonzero(mask), size=n_swaps, replace=False)
        tmp = self._rank_to_id[demoted].copy()
        self._rank_to_id[demoted] = self._rank_to_id[promoted]
        self._rank_to_id[promoted] = tmp


def assert_same_draws(ours, ref, size):
    got, want = ours.sample(size), ref.sample(size)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, want)
    assert ours._rng.bit_generator.state == ref._rng.bit_generator.state


class TestTwelveByteSampler:
    """The sampler keeps only the CDF and the id map, and every stream and
    analytic is the 24-byte sampler's, bit for bit."""

    @pytest.mark.parametrize("s", [0.0, 0.5, 1.05, 1.2])
    @pytest.mark.parametrize("n", [1, 7, 1_000, 100_003])
    def test_equals_the_stored_pmf_sampler(self, n, s):
        ours = ZipfSampler(n, s, rng=11)
        ref = StoredPmfZipfSampler(n, s, rng=11)
        assert ours._rng.bit_generator.state == ref._rng.bit_generator.state
        assert_same_draws(ours, ref, 5_000)
        np.testing.assert_array_equal(ours.pmf(), ref.pmf())
        for k in sorted({0, 1, 2, n // 3, n - 1, n, n + 5}):
            assert ours.top_k_mass(k) == ref.top_k_mass(k)
            hot = ours.hottest(k)
            assert hot.dtype == np.int64
            np.testing.assert_array_equal(hot, ref.hottest(k))
        for mass in (0.0, 0.1, 0.5, 0.9, 0.999, 1.0):
            assert ours.rank_for_mass(mass) == ref.rank_for_mass(mass)
        ours.drift(0.01)
        ref.drift(0.01)
        assert_same_draws(ours, ref, 5_000)
        np.testing.assert_array_equal(ours.pmf(), ref.pmf())

    @pytest.mark.parametrize("pooling", [1.0, 10.0])
    def test_dataset_batches_are_the_stored_pmf_samplers(self, monkeypatch, pooling):
        """Five batches of a dataset digest the same with either sampler."""
        def digest():
            ds = SyntheticCTRDataset(KAGGLE.scaled(0.001), pooling_factor=pooling, seed=5)
            h = hashlib.sha256()
            for batch in ds.batches(64, 5):
                for a in (batch.dense, batch.labels, *(x for bag in batch.sparse for x in bag)):
                    h.update(str(a.dtype).encode())
                    h.update(np.ascontiguousarray(a).tobytes())
            return h.hexdigest()

        ours = digest()
        monkeypatch.setattr(synthetic, "ZipfSampler", StoredPmfZipfSampler)
        assert ours == digest()

    def test_holds_and_peaks_at_twelve_bytes_a_row(self):
        n = 1_000_000
        ZipfSampler(10, rng=0)  # lazy imports land outside the trace
        tracemalloc.start()
        try:
            z = ZipfSampler(n, 1.05, rng=0)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert z._cdf.nbytes + z._rank_to_id.nbytes == 12 * n
        assert held <= 12 * n + 4 * 2**10
        assert peak <= 12 * n + 64 * 2**10
