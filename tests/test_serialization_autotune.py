"""Tests for model checkpointing."""

import numpy as np
import pytest

from repro.models import DLRMConfig, TTConfig, build_dlrm, build_ttrec
from repro.models.serialization import load_state_dict, state_dict
from repro.ops.module import Module, Parameter

SIZES = (500, 40, 300, 8, 200)
CFG = DLRMConfig(table_sizes=SIZES, num_dense=5, emb_dim=4,
                 bottom_mlp=(8,), top_mlp=(8,))


class TestStateDict:
    def test_roundtrip_in_memory(self):
        model = build_ttrec(CFG, num_tt_tables=2, tt=TTConfig(rank=2),
                            min_rows=100, rng=0)
        state = state_dict(model)
        fresh = build_ttrec(CFG, num_tt_tables=2, tt=TTConfig(rank=2),
                            min_rows=100, rng=99)
        load_state_dict(fresh, state)
        for a, b in zip(model.parameters(), fresh.parameters()):
            np.testing.assert_array_equal(a.data, b.data)

    def test_values_are_copies(self):
        model = build_dlrm(CFG, rng=0)
        state = state_dict(model)
        first_key = next(iter(state))
        state[first_key][...] = 42.0
        assert not (model.parameters()[0].data == 42.0).all()

    def test_duplicate_names_get_distinct_keys(self):
        class Twins(Module):
            def __init__(self):
                self.a = Parameter(np.zeros(1), name="same")
                self.b = Parameter(np.ones(2), name="same")

        model = Twins()
        state = state_dict(model)
        assert len(state) == 2  # positional prefix disambiguates
        fresh = Twins()
        fresh.b.data[...] = 5.0
        load_state_dict(fresh, state)
        np.testing.assert_array_equal(fresh.b.data, np.ones(2))

    def test_strict_mismatch_raises(self):
        model = build_dlrm(CFG, rng=0)
        state = state_dict(model)
        state.pop(next(iter(state)))
        with pytest.raises(KeyError):
            load_state_dict(build_dlrm(CFG, rng=1), state)

    def test_non_strict_reports_missing(self):
        model = build_dlrm(CFG, rng=0)
        state = state_dict(model)
        removed = next(iter(state))
        state.pop(removed)
        missing = load_state_dict(build_dlrm(CFG, rng=1), state, strict=False)
        assert missing == [removed]

    def test_shape_mismatch_raises(self):
        model = build_dlrm(CFG, rng=0)
        state = state_dict(model)
        name = next(iter(state))
        state[name] = np.zeros((1, 1))
        with pytest.raises(ValueError, match="shape mismatch"):
            load_state_dict(build_dlrm(CFG, rng=1), state, strict=False)
