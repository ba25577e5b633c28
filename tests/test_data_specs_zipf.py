"""Tests for dataset specs and the Zipf sampler."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import KAGGLE, PAPER_KAGGLE_TT_SHAPES, TERABYTE, DatasetSpec, ZipfSampler


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

    def test_permute_false_orders_by_id(self):
        z = ZipfSampler(10, 1.0, permute=False, rng=0)
        np.testing.assert_array_equal(z.hottest(3), [0, 1, 2])

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
