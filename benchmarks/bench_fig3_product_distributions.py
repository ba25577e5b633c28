"""Fig. 3: PDFs of products of i.i.d. variables vs the sampled Gaussian.

Left panel: the product of 3 i.i.d. Uniform(0,1) or N(0,1) variables is
sharply peaked at zero. Right panel: the table materialised from
sampled-Gaussian cores (Algorithm 3) tracks N(0, 1/3n) instead.

Also includes the cutoff ablation: how the Algorithm 3 rejection threshold
shapes the near-zero mass of the materialised table.
"""

import numpy as np
from conftest import banner

from repro.analysis.distributions import (
    materialized_entry_samples,
    product_of_iid_samples,
)
from repro.bench import format_table
from repro.tt import TTShape
from repro.tt.decomposition import tt_reconstruct
from repro.tt.initialization import sampled_gaussian_cores

N_SAMPLES = 200_000
SHAPE = TTShape.with_uniform_rank(4096, 16, (16, 16, 16), (2, 2, 4), rank=8)


def test_fig3_left_products(benchmark):
    def compute():
        out = {}
        for dist in ("uniform01", "gaussian"):
            prod = product_of_iid_samples(dist, 3, N_SAMPLES, rng=0)
            scaled = prod / prod.std()
            out[dist] = float(np.mean(np.abs(scaled) < 0.1))
        base = np.random.default_rng(0).normal(size=N_SAMPLES)
        out["N(0,1) reference"] = float(np.mean(np.abs(base) < 0.1))
        return out

    frac_near_zero = benchmark(compute)
    banner("Fig. 3 (left): mass within 0.1 std of zero, product of 3 i.i.d. RVs")
    print(format_table(
        ["distribution of factors", "P(|x| < 0.1*std)"],
        [[k, f"{v:.3f}"] for k, v in frac_near_zero.items()],
    ))
    print("\npaper: products pile up at zero vs a plain Gaussian")
    assert frac_near_zero["uniform01"] > 2 * frac_near_zero["N(0,1) reference"]
    assert frac_near_zero["gaussian"] > 2 * frac_near_zero["N(0,1) reference"]


def test_fig3_right_sampled_gaussian(benchmark):
    target_sigma = float(np.sqrt(1.0 / (3 * SHAPE.num_rows)))

    def compute():
        out = {}
        for strategy in ("sampled_gaussian", "gaussian", "uniform"):
            entries = materialized_entry_samples(SHAPE, strategy, rng=0)
            out[strategy] = (
                float(entries.std()),
                float(np.mean(np.abs(entries) < 0.3 * target_sigma)),
            )
        return out

    stats = benchmark(compute)
    banner("Fig. 3 (right): materialised table entries vs N(0, 1/3n)")
    gauss_ref = float(np.mean(np.abs(
        np.random.default_rng(1).normal(0, target_sigma, 100_000)) < 0.3 * target_sigma))
    rows = [[k, f"{std:.5f}", f"{frac:.3f}"] for k, (std, frac) in stats.items()]
    rows.append(["N(0, 1/3n) target", f"{target_sigma:.5f}", f"{gauss_ref:.3f}"])
    print(format_table(["core init", "entry std", "P(|x| < 0.3 sigma*)"], rows))
    print("\npaper: sampled Gaussian removes the near-zero peak that plain "
          "Gaussian/uniform cores produce")
    assert stats["sampled_gaussian"][1] < stats["gaussian"][1]
    # std approximates the target for all variance-matched inits
    for k, (std, _) in stats.items():
        assert abs(std - target_sigma) / target_sigma < 0.5, k


def test_ablation_cutoff(benchmark):
    """Algorithm 3 cutoff sweep: higher cutoff -> less near-zero mass."""
    target_sigma = float(np.sqrt(1.0 / (3 * SHAPE.num_rows)))

    def compute():
        out = []
        for cutoff in (0.0, 0.5, 1.0, 2.0, 3.0):
            cores = sampled_gaussian_cores(SHAPE, cutoff=cutoff, rng=0)
            entries = tt_reconstruct(cores, SHAPE).ravel()
            out.append((cutoff, float(np.mean(np.abs(entries) < 0.3 * target_sigma))))
        return out

    sweep = benchmark(compute)
    banner("Ablation: Algorithm 3 rejection cutoff vs near-zero table mass")
    print(format_table(["cutoff", "P(|x| < 0.3 sigma*)"],
                       [[c, f"{f:.3f}"] for c, f in sweep]))
    fracs = [f for _, f in sweep]
    assert fracs[-1] < fracs[0]
