"""Fixture: suppression — the same DT002 violation, noqa'd two ways."""
import numpy as np


def alloc(n):
    a = np.zeros(n)   # repro: noqa[DT002]
    b = np.empty(n)  # repro: noqa
    c = np.ones(n)  # repro: noqa[DT001]  (wrong rule: still fires)
    return a, b, c
