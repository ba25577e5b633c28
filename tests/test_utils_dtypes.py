"""Tests for the process-wide dtype policy (``repro.utils.dtypes``)."""

import numpy as np
import pytest

from repro.data import KAGGLE, SyntheticCTRDataset
from repro.models import DLRMConfig, TTConfig, build_ttrec
from repro.ops.loss import bce_with_logits
from repro.utils.dtypes import default_dtype, dtype_policy, result_dtype

SPEC = KAGGLE.scaled(0.0002)
CFG = DLRMConfig(table_sizes=SPEC.table_sizes, emb_dim=8,
                 bottom_mlp=(16,), top_mlp=(16,))


def make_model(seed=0):
    return build_ttrec(CFG, num_tt_tables=3, tt=TTConfig(rank=4), rng=seed)


def make_batch(seed=1, size=16):
    return SyntheticCTRDataset(SPEC, seed=seed).batch(size)


class TestDtypePolicy:
    def test_default_is_float64(self):
        assert default_dtype() == np.float64

    def test_result_dtype_rejects_mixed(self):
        with pytest.raises(TypeError):
            result_dtype(np.zeros(2, dtype=np.float32),
                         np.zeros(2, dtype=np.float64))

    def test_float32_policy_propagates_to_model(self):
        with dtype_policy(np.float32):
            model = make_model()
            batch = make_batch()
            out = model.forward(batch.dense, batch.sparse)
            assert out.dtype == np.float32
            for p in model.parameters():
                assert p.data.dtype == np.float32
        # Policy restored on exit.
        assert default_dtype() == np.float64

    def test_float32_training_step_stays_float32(self):
        with dtype_policy(np.float32):
            model = make_model()
            batch = make_batch()
            out = model.forward(batch.dense, batch.sparse)
            _, grad = bce_with_logits(out, batch.labels)
            model.backward(grad.astype(np.float32))
            for p in model.parameters():
                assert p.grad.dtype == np.float32, p.name
