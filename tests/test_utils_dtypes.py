"""Tests for the process-wide dtype policy (``repro.utils.dtypes``)."""

import numpy as np
import pytest

from repro.data import KAGGLE, SyntheticCTRDataset
from repro.inference import Predictor
from repro.models import DLRMConfig, TTConfig, build_ttrec
from repro.ops.loss import bce_with_logits
from repro.training import Trainer
from repro.tt import TTEmbeddingBag
from repro.utils.dtypes import default_dtype, dtype_policy, result_dtype

SPEC = KAGGLE.scaled(0.0002)
CFG = DLRMConfig(table_sizes=SPEC.table_sizes, emb_dim=8,
                 bottom_mlp=(16,), top_mlp=(16,))


def make_model(seed=0):
    """Three TT tables: every table of SPEC is under the default
    ``min_rows``, which would leave the model all dense."""
    model = build_ttrec(CFG, num_tt_tables=3, tt=TTConfig(rank=4),
                        min_rows=100, rng=seed)
    assert sum(type(emb) is TTEmbeddingBag for emb in model.embeddings) == 3
    return model


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
                g = p.grad.values if p.sparse else p.grad
                assert g.dtype == np.float32, p.name

    def test_float32_towers_see_float32(self):
        """One training step and a prediction under float32: the towers are
        handed float32 (no float64 dense input or logit gradient for
        ``Linear`` to cast back down) and every output is float32."""
        seen = []

        def spy(fn):
            def wrapped(*args):
                seen.append(args[0].dtype)
                return fn(*args)
            return wrapped

        with dtype_policy(np.float32):
            model = make_model()
            model.bottom_mlp.forward = spy(model.bottom_mlp.forward)
            model.top_mlp.backward = spy(model.top_mlp.backward)
            batch = make_batch()
            trainer = Trainer(model, lr=0.1)
            trainer.train_step(batch)
            logits = model.forward(batch.dense, batch.sparse)
            _, grad = bce_with_logits(logits, batch.labels)
            assert logits.dtype == grad.dtype == np.float32
            for p in model.parameters():
                g = p.grad.values if p.sparse else p.grad
                assert g.dtype == np.float32, p.name
            assert model.predict_proba(batch.dense, batch.sparse).dtype == np.float32
            predictor = Predictor(model)
            assert predictor.predict_batch(batch).dtype == np.float32
        assert seen and all(dt == np.float32 for dt in seen), seen
