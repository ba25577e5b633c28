"""Fixture: suppression — DT002 noqa'd two ways, and two misses."""
import numpy as np


def alloc(n):
    a = np.zeros(n)   # repro: noqa[DT002]
    b = np.empty(n)  # repro: noqa
    c = np.ones(n)  # repro: noqa[DT001]  (wrong rule: still fires)
    d = np.zeros(n); s = "# repro: noqa"  # a string, not a comment: fires
    return a, b, c, d, s
