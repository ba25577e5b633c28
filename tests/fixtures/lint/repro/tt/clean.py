"""Fixture: a hot-path file every rule passes."""
import numpy as np


def gather(rows, cores):
    out = np.empty((len(rows), cores[0].shape[-1]), dtype=cores[0].dtype)
    cores32 = [np.asarray(c, dtype=np.float32) for c in cores]
    for i, core in enumerate(cores32):
        out[i] = core.sum(axis=0)
    return out
