"""Fixture fault-site registry for XMOD001's per-tier prefix resolution."""

KNOWN_SITES = (
    "alpha.crash",
    "beta.crash",
    "gamma.crash",
)
