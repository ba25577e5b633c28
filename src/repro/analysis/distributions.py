"""Distribution studies behind Fig. 3 and Table 1.

Fig. 3 (left): the product of d i.i.d. Uniform or Gaussian variables piles
up near zero — a poor match for the uniform initialization DLRM wants.
Fig. 3 (right): entries of a table materialised from sampled-Gaussian
cores (Algorithm 3) track the optimal ``N(0, 1/3n)`` instead.

Table 1: accuracy of the uncompressed DLRM under different init
distributions is ordered by ``KL(uniform || candidate)``; the KL column is
analytic (:func:`repro.tt.initialization.kl_uniform_gaussian`) and the
accuracy column is measured by the Table 1 bench.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.tt.initialization import (
    CORE_INIT_STRATEGIES,
    kl_uniform_gaussian,
    optimal_gaussian_for_uniform,
)
from repro.tt.shapes import TTShape
from repro.utils.seeding import as_rng

__all__ = [
    "product_of_iid_samples",
    "materialized_entry_samples",
    "Table1Row",
    "table1_kl_rows",
]


def product_of_iid_samples(dist: str, d: int, n_samples: int, *,
                           rng: int | None | np.random.Generator = None) -> np.ndarray:
    """Monte-Carlo samples of the product of ``d`` i.i.d. variables.

    ``dist`` is ``"uniform01"`` (Uniform(0,1), Fig. 3 left), ``"gaussian"``
    (N(0,1), Fig. 3 left) or ``"uniform"`` (Uniform(-1,1)).
    """
    rng = as_rng(rng)
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if dist == "uniform01":
        draws = rng.uniform(0.0, 1.0, size=(d, n_samples))
    elif dist == "uniform":
        draws = rng.uniform(-1.0, 1.0, size=(d, n_samples))
    elif dist == "gaussian":
        draws = rng.normal(0.0, 1.0, size=(d, n_samples))
    else:
        raise ValueError(f"unknown dist {dist!r}")
    return np.prod(draws, axis=0)


def materialized_entry_samples(shape: TTShape, strategy: str, *,
                               rng: int | None | np.random.Generator = None,
                               max_entries: int = 200_000) -> np.ndarray:
    """Entries of a table materialised from cores under an init strategy.

    This is the quantity Fig. 3 (right) plots for ``sampled_gaussian``; its
    empirical variance should approximate ``1/(3 * num_rows)``.
    """
    from repro.tt.decomposition import tt_reconstruct

    init = CORE_INIT_STRATEGIES[strategy]
    cores = init(shape, rng=rng)
    table = tt_reconstruct(cores, shape)
    entries = table.reshape(-1)
    if entries.size > max_entries:
        entries = as_rng(rng).choice(entries, size=max_entries, replace=False)
    return entries


@dataclass(frozen=True)
class Table1Row:
    """Analytic portion of one Table 1 line."""

    label: str
    kind: str  # "uniform" | "gaussian"
    sigma2: float | None  # None for the uniform row
    kl: float


def table1_kl_rows(n: int) -> list[Table1Row]:
    """The six initialization distributions of Table 1 with analytic KL.

    ``n`` is the embedding-table row count parameterising the DLRM default
    ``Uniform(-1/sqrt(n), 1/sqrt(n))``.
    """
    a, b = -1.0 / np.sqrt(n), 1.0 / np.sqrt(n)
    mu_star, sigma2_star = optimal_gaussian_for_uniform(a, b)
    assert mu_star == 0.0
    candidates: list[tuple[str, float | None]] = [
        ("uniform(-1/sqrt(n), 1/sqrt(n))", None),
        ("N(0, 1)", 1.0),
        ("N(0, 1/2)", 0.5),
        ("N(0, 1/8)", 0.125),
        ("N(0, 1/3n)", sigma2_star),
        ("N(0, 1/9n^2)", 1.0 / (9.0 * n * n)),
    ]
    rows = []
    for label, sigma2 in candidates:
        if sigma2 is None:
            rows.append(Table1Row(label=label, kind="uniform", sigma2=None, kl=0.0))
        else:
            rows.append(Table1Row(
                label=label, kind="gaussian", sigma2=sigma2,
                kl=kl_uniform_gaussian(a, b, 0.0, sigma2),
            ))
    return rows
