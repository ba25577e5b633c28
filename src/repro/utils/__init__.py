"""Shared utilities: RNG handling, validation helpers, integer factorization."""

from repro.utils.factorization import (
    factorize_into,
    prime_factors,
    suggested_tt_shapes,
)
from repro.utils.seeding import as_rng, spawn_rngs
from repro.utils.validation import check_1d_int_array, check_csr

__all__ = [
    "as_rng",
    "spawn_rngs",
    "factorize_into",
    "prime_factors",
    "suggested_tt_shapes",
    "check_1d_int_array",
    "check_csr",
]
