"""Tests for weight initialization (paper §3.2, Algorithm 3, Table 1 math)."""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro.tt import TTShape
from repro.tt import initialization
from repro.tt.initialization import (
    CORE_INIT_STRATEGIES,
    dlrm_default_initializer,
    gaussian_cores,
    gaussian_initializer,
    kl_uniform_gaussian,
    optimal_gaussian_for_uniform,
    sampled_gaussian_cores,
    tt_core_initializer,
    uniform_cores,
    uniform_initializer,
)


@pytest.fixture
def shape():
    return TTShape.with_uniform_rank(60, 8, (3, 4, 5), (2, 2, 2), rank=4)


class TestKLAnalytics:
    def test_optimal_gaussian_moment_match(self):
        mu, sigma2 = optimal_gaussian_for_uniform(-2.0, 4.0)
        assert mu == pytest.approx(1.0)
        assert sigma2 == pytest.approx(36.0 / 12.0)

    def test_paper_special_case(self):
        """For Uniform(±1/sqrt(n)), the optimum is N(0, 1/3n)."""
        n = 1000
        mu, sigma2 = optimal_gaussian_for_uniform(-1 / np.sqrt(n), 1 / np.sqrt(n))
        assert mu == 0.0
        assert sigma2 == pytest.approx(1.0 / (3 * n))

    def test_optimum_minimises_kl(self):
        a, b = -0.5, 0.5
        _, s2 = optimal_gaussian_for_uniform(a, b)
        best = kl_uniform_gaussian(a, b, 0.0, s2)
        for factor in (0.3, 0.7, 1.5, 4.0):
            assert kl_uniform_gaussian(a, b, 0.0, s2 * factor) > best
        for mu in (-0.2, 0.1, 0.4):
            assert kl_uniform_gaussian(a, b, mu, s2) > best

    def test_kl_matches_monte_carlo(self):
        a, b, mu, s2 = -1.0, 1.0, 0.2, 0.8
        rng = np.random.default_rng(0)
        x = rng.uniform(a, b, size=400_000)
        log_p = -np.log(b - a)
        log_q = -0.5 * np.log(2 * np.pi * s2) - (x - mu) ** 2 / (2 * s2)
        mc = float(np.mean(log_p - log_q))
        assert kl_uniform_gaussian(a, b, mu, s2) == pytest.approx(mc, abs=5e-3)

    def test_table1_kl_ordering(self):
        """KL ordering matches the paper's accuracy ordering: N(0,1) worst,
        N(0,1/3n) best among Gaussians."""
        n = 10131227  # paper's largest Kaggle table
        a, b = -1 / np.sqrt(n), 1 / np.sqrt(n)
        kls = [kl_uniform_gaussian(a, b, 0.0, s2)
               for s2 in (1.0, 0.5, 0.125, 1 / (3 * n))]
        assert kls[0] > kls[1] > kls[2] > kls[3]

    def test_validation(self):
        with pytest.raises(ValueError):
            kl_uniform_gaussian(1.0, 1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            kl_uniform_gaussian(0.0, 1.0, 0.0, 0.0)


class TestDenseInitializers:
    def test_uniform_bounds(self):
        init = uniform_initializer(0.25)
        x = init(np.random.default_rng(0), (1000,))
        assert np.all(np.abs(x) <= 0.25)

    def test_gaussian_std(self):
        init = gaussian_initializer(0.1)
        x = init(np.random.default_rng(0), (100_000,))
        assert x.std() == pytest.approx(0.1, rel=0.02)

    def test_dlrm_default(self):
        init = dlrm_default_initializer(400)
        x = init(np.random.default_rng(0), (1000,))
        assert np.all(np.abs(x) <= 1 / 20)


class TestSampledGaussian:
    def test_core_shapes(self, shape):
        cores = sampled_gaussian_cores(shape, rng=0)
        for k, core in enumerate(cores):
            assert core.shape == shape.core_shape(k)

    def test_no_near_zero_entries(self, shape):
        """Algorithm 3's rejection: pre-scaling entries satisfy |x| >= cutoff,
        so post-scaling no entry is below cutoff * scale."""
        cores = sampled_gaussian_cores(shape, cutoff=2.0, rng=0)
        for core in cores:
            nonzero_floor = np.abs(core).min()
            assert nonzero_floor > 0
        # Compare against plain Gaussian cores: sampled has a hole at zero.
        plain = gaussian_cores(shape, rng=0)
        sampled_min = min(np.abs(c).min() for c in cores)
        plain_min = min(np.abs(c).min() for c in plain)
        assert sampled_min > plain_min * 10

    def test_product_variance_matches_target(self):
        """Materialised table entries ~ N(0, 1/3n) (Fig. 3 right)."""
        from repro.tt.decomposition import tt_reconstruct

        shape = TTShape.with_uniform_rank(512, 8, (8, 8, 8), (2, 2, 2), rank=4)
        target = 1.0 / (3.0 * shape.num_rows)
        for strategy in ("sampled_gaussian", "gaussian", "uniform"):
            cores = CORE_INIT_STRATEGIES[strategy](shape, rng=0)
            table = tt_reconstruct(cores, shape)
            assert table.var() == pytest.approx(target, rel=0.35), strategy

    def test_sampled_product_less_peaked_at_zero(self):
        """The whole point of Algorithm 3: fewer near-zero table entries
        than plain Gaussian cores (Fig. 3)."""
        from repro.tt.decomposition import tt_reconstruct

        shape = TTShape.with_uniform_rank(512, 8, (8, 8, 8), (2, 2, 2), rank=1)
        sampled = tt_reconstruct(sampled_gaussian_cores(shape, rng=0), shape).ravel()
        plain = tt_reconstruct(gaussian_cores(shape, rng=0), shape).ravel()
        sigma = np.sqrt(1.0 / (3 * shape.num_rows))
        frac_small = lambda x: np.mean(np.abs(x) < 0.3 * sigma)
        assert frac_small(sampled) < frac_small(plain) / 2

    def test_zero_cutoff_is_plain_gaussian_scale(self, shape):
        cores = sampled_gaussian_cores(shape, cutoff=0.0, rng=0)
        assert all(np.isfinite(c).all() for c in cores)

    def test_negative_cutoff_rejected(self, shape):
        with pytest.raises(ValueError):
            sampled_gaussian_cores(shape, cutoff=-1.0, rng=0)

    def test_custom_target_variance(self, shape):
        from repro.tt.decomposition import tt_reconstruct

        cores = sampled_gaussian_cores(shape, target_variance=0.25, rng=0)
        table = tt_reconstruct(cores, shape)
        assert table.var() == pytest.approx(0.25, rel=0.5)

    def test_deterministic_given_seed(self, shape):
        a = sampled_gaussian_cores(shape, rng=42)
        b = sampled_gaussian_cores(shape, rng=42)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)


def one_array_rejection_normal(rng, size, cutoff):
    """Algorithm 3's rejection sampler drawn one array per round, with
    ``scipy.stats.norm``: the reference the streamed sampler must equal."""
    from scipy.stats import norm

    accept = 2.0 * norm.sf(cutoff)
    out = np.empty(size)
    filled = 0
    while filled < size:
        need = size - filled
        batch = rng.normal(0.0, 1.0, size=max(64, int(need / max(accept, 1e-6) * 1.2)))
        ok = batch[np.abs(batch) >= cutoff]
        take = min(ok.size, need)
        out[filled:filled + take] = ok[:take]
        filled += take
    return out


def first_round(size, cutoff):
    """Normals the first rejection round draws for ``size`` entries."""
    from scipy.stats import norm

    return max(64, int(size / (2.0 * norm.sf(cutoff)) * 1.2))


def one_array_std(cutoff):
    """The truncated-tail std as ``scipy.stats.norm`` gives it."""
    from scipy.stats import norm

    return math.sqrt(1.0 + cutoff * norm.pdf(cutoff) / norm.sf(cutoff))


def assert_same_stream(size, cutoff, seed=7):
    ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    got = initialization._rejection_normal(ours, size, cutoff)
    want = one_array_rejection_normal(ref, size, cutoff)
    np.testing.assert_array_equal(got, want)
    assert ours.bit_generator.state == ref.bit_generator.state


class TestStreamedRejection:
    """Each rejection round streams in chunks of ``_CHUNK`` normals; the
    entries and the generator's final state are the one-array round's."""

    @pytest.mark.parametrize("cutoff", [0.5, 2.0, 3.0])
    @pytest.mark.parametrize("size", [1, 63, 1_000, 5_003])
    def test_equals_one_array_rounds(self, size, cutoff):
        assert_same_stream(size, cutoff)

    def test_equals_one_array_rounds_at_an_e2e_core(self):
        """The e2e model's largest core: a 2.8 M-normal first round."""
        assert_same_stream(108_000, 2.0)

    @pytest.mark.parametrize("cutoff", [0.5, 2.0, 3.0])
    @pytest.mark.parametrize("over", [-1, 0, 1])
    def test_round_totals_on_and_beside_a_chunk_multiple(self, monkeypatch,
                                                         cutoff, over):
        """Chunks that make the first round ``m * _CHUNK + over`` normals
        for each ``m`` in 1..4 that divides evenly."""
        size = 1_000
        total = first_round(size, cutoff)
        for m in (1, 2, 3, 4):
            if (total - over) % m == 0:
                monkeypatch.setattr(initialization, "_CHUNK", (total - over) // m)
                assert_same_stream(size, cutoff)

    @pytest.mark.parametrize("cutoff", [0.5, 2.0])
    def test_sizes_beside_the_real_chunk(self, cutoff):
        """Sizes whose first round ends just below and at or above
        ``2 * _CHUNK`` normals, with the module's own chunk."""
        from scipy.stats import norm

        step = 2 * initialization._CHUNK
        guess = int(step * 2.0 * norm.sf(cutoff) / 1.2) - 3
        size = next(n for n in range(guess, step) if first_round(n, cutoff) >= step)
        assert first_round(size - 1, cutoff) < step <= first_round(size, cutoff)
        for n in (size - 1, size):
            assert_same_stream(n, cutoff)

    @pytest.mark.parametrize("rows, factors, rank", [
        (60, (3, 4, 5), 4), (15_625, (25, 25, 25), 16)])
    def test_cores_equal_one_array_cores(self, rows, factors, rank):
        shape = TTShape.with_uniform_rank(rows, 8, factors, (2, 2, 2), rank=rank)
        ours, ref = np.random.default_rng(3), np.random.default_rng(3)
        cores = sampled_gaussian_cores(shape, rng=ours)
        scale = (initialization._per_core_scale(shape, 1.0 / (3.0 * rows),
                                                account_for_rank=True)
                 / one_array_std(2.0))
        for k, core in enumerate(cores):
            n = int(np.prod(shape.core_shape(k)))
            want = one_array_rejection_normal(ref, n, 2.0) * scale
            np.testing.assert_array_equal(core, want.reshape(shape.core_shape(k)))
        assert ours.bit_generator.state == ref.bit_generator.state

    def test_truncated_std_is_the_norm_formula(self):
        for cutoff in np.linspace(0.01, 5.0, 500):
            cutoff = float(cutoff)
            assert initialization._truncated_normal_std(cutoff) == one_array_std(cutoff)

    def test_transient_memory_is_a_chunk_not_a_round(self):
        """A 102 400-entry core (800 KB) would take a 26x round array and
        its ``|x|`` drawn in one piece; streamed, the build's peak stays
        within 2 MB of the cores it returns."""
        shape = TTShape.with_uniform_rank(15_625, 64, (25, 25, 25), (4, 4, 4), rank=32)
        assert max(int(np.prod(shape.core_shape(k))) for k in range(shape.d)) >= 100_000
        sampled_gaussian_cores(TTShape.with_uniform_rank(60, 8, (3, 4, 5), (2, 2, 2), rank=2),
                               rng=0)  # lazy imports land outside the trace
        tracemalloc.start()
        try:
            cores = sampled_gaussian_cores(shape, rng=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - sum(c.nbytes for c in cores) <= 2 * 2**20

    def test_normal_sf_is_scipy_ndtr(self):
        """The Cephes port gives ``scipy.special.ndtr(-c)`` to the last bit."""
        from scipy.special import ndtr

        for cutoff in [*np.linspace(0.0, 8.0, 20_001), 0.5, 1.0, 1.5, 2.0, 2.5, 3.0]:
            cutoff = float(cutoff)
            assert initialization._normal_sf(cutoff) == ndtr(-cutoff)

    def test_build_does_not_import_scipy(self):
        """The default initializer's two constants come from a port of
        Cephes' ndtr, so building a model loads no scipy module."""
        code = ("import sys\n"
                "from repro.models import DLRMConfig, build_ttrec\n"
                "build_ttrec(DLRMConfig(table_sizes=(400, 300), num_dense=4, emb_dim=8,\n"
                "                       bottom_mlp=(8,), top_mlp=(8,)),\n"
                "            num_tt_tables=2, min_rows=1, rng=0)\n"
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "[]"


class TestStrategyRegistry:
    def test_all_strategies_produce_valid_cores(self, shape):
        for name in CORE_INIT_STRATEGIES:
            init = tt_core_initializer(name)
            cores = init(shape, rng=0)
            for k, c in enumerate(cores):
                assert c.shape == shape.core_shape(k)

    def test_unknown_strategy(self):
        with pytest.raises(ValueError, match="unknown init strategy"):
            tt_core_initializer("xavier_magic")

    def test_uniform_cores_bounded(self, shape):
        cores = uniform_cores(shape, rng=0)
        for c in cores:
            assert np.abs(c).max() <= np.abs(c).max()  # finite
            assert np.isfinite(c).all()
