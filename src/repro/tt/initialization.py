"""TT-core and embedding-table weight initialization (paper §3.2).

The paper's observation: DLRM quality tracks how closely the *materialised*
table distribution matches the DLRM default ``Uniform(-1/sqrt(n), 1/sqrt(n))``
(``n`` = number of rows), whose best Gaussian approximation (minimum
KL(uniform || gaussian)) is ``N(0, 1/(3n))`` — Table 1. Initialising TT
cores i.i.d. Gaussian/uniform makes the core *product* sharply peaked at
zero (Fig. 3 left); Algorithm 3 ("sampled Gaussian") fixes this by
rejection-sampling core entries away from zero before scaling.
"""

from __future__ import annotations

import math

import numpy as np

from repro.tt.shapes import TTShape
from repro.utils.dtypes import default_dtype
from repro.utils.seeding import as_rng

__all__ = [
    "kl_uniform_gaussian",
    "optimal_gaussian_for_uniform",
    "uniform_initializer",
    "gaussian_initializer",
    "dlrm_default_initializer",
    "sampled_gaussian_cores",
    "gaussian_cores",
    "uniform_cores",
    "tt_core_initializer",
    "CORE_INIT_STRATEGIES",
]


# --------------------------------------------------------------------- #
# Analytics behind Table 1
# --------------------------------------------------------------------- #

def kl_uniform_gaussian(a: float, b: float, mu: float, sigma2: float) -> float:
    """Closed-form ``KL(Uniform(a,b) || N(mu, sigma2))``.

    ``KL = -ln(b-a) + 0.5*ln(2*pi*sigma2) + E[(x-mu)^2] / (2*sigma2)`` with
    the expectation over the uniform: ``((b-mu)^3 - (a-mu)^3) / (3(b-a))``.
    """
    if b <= a:
        raise ValueError(f"need b > a, got a={a}, b={b}")
    if sigma2 <= 0:
        raise ValueError(f"sigma2 must be > 0, got {sigma2}")
    second_moment = ((b - mu) ** 3 - (a - mu) ** 3) / (3.0 * (b - a))
    return (
        -math.log(b - a)
        + 0.5 * math.log(2.0 * math.pi * sigma2)
        + second_moment / (2.0 * sigma2)
    )


def optimal_gaussian_for_uniform(a: float, b: float) -> tuple[float, float]:
    """``(mu, sigma2)`` minimising ``KL(Uniform(a,b) || N)`` — paper §3.2.

    First-order conditions give the moment match ``mu=(a+b)/2``,
    ``sigma2=(b-a)^2/12``; for the DLRM default ``Uniform(±1/sqrt(n))``
    this is exactly ``N(0, 1/(3n))``.
    """
    return (a + b) / 2.0, (b - a) ** 2 / 12.0


# --------------------------------------------------------------------- #
# Dense-table initializers (Table 1 sweep)
# --------------------------------------------------------------------- #

def uniform_initializer(bound: float):
    """Initializer drawing from ``Uniform(-bound, bound)``."""
    def init(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
        return rng.uniform(-bound, bound, size=shape)
    return init


def gaussian_initializer(std: float):
    """Initializer drawing from ``N(0, std^2)``."""
    def init(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
        return rng.normal(0.0, std, size=shape)
    return init


def dlrm_default_initializer(num_rows: int):
    """The DLRM reference default, ``Uniform(±1/sqrt(num_rows))``."""
    return uniform_initializer(1.0 / math.sqrt(num_rows))


# --------------------------------------------------------------------- #
# TT-core initializers
# --------------------------------------------------------------------- #

def _per_core_scale(shape: TTShape, target_variance: float, *,
                    account_for_rank: bool) -> float:
    """Per-entry std so the materialised row entries have ``target_variance``.

    Each table entry is a sum over ``prod(R_k)`` rank paths of products of
    ``d`` core entries; with i.i.d. zero-mean entries of variance ``v`` the
    entry variance is ``v^d * prod_{k=1}^{d-1} R_k``. The paper's
    Algorithm 3 scales by ``(sqrt(1/3n))^{1/d}`` per core, ignoring the
    rank fan-in; ``account_for_rank=True`` (our default) divides it out so
    the product matches ``N(0, target_variance)`` exactly — this is the
    behaviour Fig. 3 (right) demonstrates.
    """
    d = shape.d
    rank_product = 1.0
    if account_for_rank:
        rank_product = float(np.prod(shape.ranks[1:-1]))
    entry_var = (target_variance / rank_product) ** (1.0 / d)
    return math.sqrt(entry_var)


# A rejection round is drawn in chunks of at most this many normals, so its
# working set stays ~1 MB whatever the core's size. Chunks of one stream
# concatenate to the single draw of the whole round, so every entry and
# the generator's final state are those of a one-array round.
_CHUNK = 1 << 16


def _normal_sf(cutoff: float) -> float:
    """``P(x >= cutoff)`` for ``x ~ N(0,1)``, the value ``scipy.stats.norm.sf``
    returns without importing ``scipy.stats`` (about 1 s)."""
    from scipy.special import ndtr

    return ndtr(-cutoff)


def _rejection_normal(rng: np.random.Generator, size: int, cutoff: float) -> np.ndarray:
    """Standard normal samples conditioned on ``|x| >= cutoff`` (Algorithm 3).

    Vectorized rejection: resample the still-rejected tail until all
    entries pass. With the paper's cutoff of 2.0 acceptance is ~4.6%, so
    each round draws the reciprocal acceptance (plus 20%) times what is
    still needed, streamed in chunks of ``_CHUNK``; a round that fills the
    output is still drawn to its end, which keeps the stream's state.
    """
    if cutoff < 0:
        raise ValueError(f"cutoff must be >= 0, got {cutoff}")
    if cutoff == 0.0:
        return rng.normal(0.0, 1.0, size=size)
    accept = 2.0 * _normal_sf(cutoff)
    out = np.empty(size, dtype=default_dtype())
    filled = 0
    while filled < size:
        left = max(64, int((size - filled) / max(accept, 1e-6) * 1.2))
        while left:
            chunk = rng.normal(0.0, 1.0, size=min(left, _CHUNK))
            left -= chunk.size
            if filled < size:
                ok = chunk[np.abs(chunk) >= cutoff]
                take = min(ok.size, size - filled)
                out[filled:filled + take] = ok[:take]
                filled += take
    return out


def _truncated_normal_std(cutoff: float) -> float:
    """Std of ``N(0,1)`` conditioned on ``|x| >= cutoff`` (two-sided tail)."""
    if cutoff == 0.0:
        return 1.0
    # E[x^2 | |x|>=c] = 1 + c*phi(c)/sf(c) for the symmetric two-sided tail,
    # phi(c) computed as scipy.stats.norm.pdf computes it.
    pdf = np.exp(-cutoff**2 / 2.0) / np.sqrt(2 * np.pi)
    return math.sqrt(1.0 + cutoff * pdf / _normal_sf(cutoff))


def sampled_gaussian_cores(shape: TTShape, *, cutoff: float = 2.0,
                           target_variance: float | None = None,
                           account_for_rank: bool = True,
                           rng: int | None | np.random.Generator = None) -> list[np.ndarray]:
    """Paper Algorithm 3: sampled-Gaussian TT-core initialization.

    1. Fill every core with ``N(0,1)`` entries rejection-sampled so that
       ``|x| >= cutoff`` (pushing mass away from zero — the fix for the
       zero-peaked product PDF of Fig. 3 left).
    2. Normalise to unit entry variance, then scale each core by
       ``target_std^(1/d)`` so the materialised table approximates
       ``N(0, 1/(3n))`` — the optimal Gaussian of §3.2 (``n`` = row count).

    Returns cores in the mode-first layout ``(m_k, R_{k-1}, n_k, R_k)``.
    """
    rng = as_rng(rng)
    if target_variance is None:
        target_variance = 1.0 / (3.0 * shape.num_rows)
    scale = _per_core_scale(shape, target_variance, account_for_rank=account_for_rank)
    scale /= _truncated_normal_std(cutoff)
    cores = []
    for k in range(shape.d):
        cshape = shape.core_shape(k)
        n_entries = int(np.prod(cshape))
        vals = _rejection_normal(rng, n_entries, cutoff)
        vals *= scale
        cores.append(vals.reshape(cshape))
    return cores


def gaussian_cores(shape: TTShape, *, target_variance: float | None = None,
                   account_for_rank: bool = True,
                   rng: int | None | np.random.Generator = None) -> list[np.ndarray]:
    """Plain i.i.d. Gaussian cores scaled for the same target product variance."""
    rng = as_rng(rng)
    if target_variance is None:
        target_variance = 1.0 / (3.0 * shape.num_rows)
    scale = _per_core_scale(shape, target_variance, account_for_rank=account_for_rank)
    return [rng.normal(0.0, scale, size=shape.core_shape(k)) for k in range(shape.d)]


def uniform_cores(shape: TTShape, *, target_variance: float | None = None,
                  account_for_rank: bool = True,
                  rng: int | None | np.random.Generator = None) -> list[np.ndarray]:
    """i.i.d. uniform cores with matched per-entry variance (Fig. 6c arm)."""
    rng = as_rng(rng)
    if target_variance is None:
        target_variance = 1.0 / (3.0 * shape.num_rows)
    scale = _per_core_scale(shape, target_variance, account_for_rank=account_for_rank)
    bound = scale * math.sqrt(3.0)  # Uniform(-b, b) has variance b^2/3
    return [rng.uniform(-bound, bound, size=shape.core_shape(k)) for k in range(shape.d)]


CORE_INIT_STRATEGIES = {
    "sampled_gaussian": sampled_gaussian_cores,
    "gaussian": gaussian_cores,
    "uniform": uniform_cores,
}


def tt_core_initializer(strategy: str = "sampled_gaussian", **kwargs):
    """Return a ``(shape, rng) -> cores`` callable for a named strategy.

    Strategies: ``sampled_gaussian`` (paper Algorithm 3, the default),
    ``gaussian``, ``uniform`` — the three arms of Fig. 6(c).
    """
    try:
        fn = CORE_INIT_STRATEGIES[strategy]
    except KeyError:
        raise ValueError(
            f"unknown init strategy {strategy!r}; options: "
            f"{sorted(CORE_INIT_STRATEGIES)}"
        ) from None

    def init(shape: TTShape, rng: int | None | np.random.Generator = None) -> list[np.ndarray]:
        return fn(shape, rng=rng, **kwargs)

    return init
