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


# Cephes' ``ndtr`` (``ndtr.c``, the routine ``scipy.special.ndtr`` runs),
# copied term for term (its ``erfc`` only for the non-negative arguments
# ``ndtr`` passes): Algorithm 3's two constants, and so every core byte,
# are the ones scipy gives, without importing scipy. ``math.erfc`` is no
# substitute: at c = 2 it moves the truncated std by one ulp.
_ERFC_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
           4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
           9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2)
_ERFC_Q = (1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
           9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
           1.65666309194161350182E3, 5.57535340817727675546E2)
_ERFC_R = (5.64189583547755073984E-1, 1.27536670759978104416E0, 5.01905042251180477414E0,
           6.16021097993053585195E0, 7.40974269950448939160E0, 2.97886665372100240670E0)
_ERFC_S = (2.26052863220117276590E0, 9.39603524938001434673E0, 1.20489539808096656605E1,
           1.70814450747565897222E1, 9.60896809063285878198E0, 3.36907645100081516050E0)
_ERF_T = (9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
          7.00332514112805075473E3, 5.55923013010394962768E4)
_ERF_U = (3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
          2.26290000613890934246E4, 4.92673942608635921086E4)
_SQRT1_2 = 7.07106781186547524401E-1
_MAXLOG = 7.09782712893383996843E2


def _polevl(x: float, coef: tuple[float, ...], monic: bool = False) -> float:
    """Horner's rule, Cephes' ``polevl`` (``p1evl`` with an implied leading 1)."""
    acc = x + coef[0] if monic else coef[0]
    for c in coef[1:]:
        acc = acc * x + c
    return acc


def _erf(x: float) -> float:
    if x < 0.0:
        return -_erf(-x)
    if abs(x) > 1.0:
        return 1.0 - _erfc(x)
    z = x * x
    return x * _polevl(z, _ERF_T) / _polevl(z, _ERF_U, monic=True)


def _erfc(x: float) -> float:
    """Cephes' ``erfc`` for ``x >= 0``, the only arguments it gets here."""
    if x < 1.0:
        return 1.0 - _erf(x)
    z = -x * x
    if z < -_MAXLOG:
        return 0.0
    z = math.exp(z)
    if x < 8.0:
        return (z * _polevl(x, _ERFC_P)) / _polevl(x, _ERFC_Q, monic=True)
    return (z * _polevl(x, _ERFC_R)) / _polevl(x, _ERFC_S, monic=True)


def _normal_sf(cutoff: float) -> float:
    """``P(x >= cutoff)`` for ``x ~ N(0,1)``: Cephes' ``ndtr(-cutoff)``."""
    x = -cutoff * _SQRT1_2
    z = abs(x)
    if z < _SQRT1_2:
        return 0.5 + 0.5 * _erf(x)
    y = 0.5 * _erfc(z)
    return 1.0 - y if x > 0 else y


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
