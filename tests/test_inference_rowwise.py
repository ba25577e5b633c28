"""Tests for the inference Predictor and RowWiseAdagrad."""

import numpy as np
import pytest

from repro.cache import CachedTTEmbeddingBag
from repro.data import KAGGLE, SyntheticCTRDataset
from repro.inference import Predictor
from repro.models import DLRMConfig, TTConfig, build_dlrm, build_ttrec
from repro.ops.activations import sigmoid
from repro.ops.module import Parameter
from repro.ops.optim import Adagrad, RowWiseAdagrad
from repro.training import Trainer
from repro.utils.dtypes import dtype_policy

SPEC = KAGGLE.scaled(0.0002)
CFG = DLRMConfig(table_sizes=SPEC.table_sizes, emb_dim=8,
                 bottom_mlp=(16,), top_mlp=(16,))


@pytest.fixture(scope="module")
def trained():
    model = build_ttrec(CFG, num_tt_tables=3, tt=TTConfig(rank=4),
                        min_rows=60, rng=0)
    ds = SyntheticCTRDataset(SPEC, seed=0, noise=0.7)
    Trainer(model, lr=0.1).train(ds.batches(64, 40))
    return model, ds


class TestPredictor:
    def test_matches_model_forward(self, trained):
        model, ds = trained
        pred = Predictor(model)
        batch = ds.batch(16)
        np.testing.assert_allclose(
            pred.predict_batch(batch),
            model.predict_proba(batch.dense, batch.sparse),
            atol=1e-12,
        )

    def test_probabilities_in_range(self, trained):
        model, ds = trained
        probs = Predictor(model).predict_batch(ds.batch(64))
        assert np.all((probs > 0) & (probs < 1))


class TestPredictorReads:
    """A prediction or an evaluation reads through ``lookup_bags``: it
    trains nothing."""

    @staticmethod
    def _cached_model():
        model = build_ttrec(
            CFG, num_tt_tables=3, min_rows=60, rng=0,
            tt=TTConfig(rank=4, use_cache=True, cache_size=8,
                        warmup_steps=2, refresh_interval=3, dedup=True))
        ds = SyntheticCTRDataset(SPEC, seed=0, noise=0.7)
        Trainer(model, lr=0.1).train(ds.batches(32, 5))
        cached = [e for e in model.embeddings
                  if isinstance(e, CachedTTEmbeddingBag)]
        assert len(cached) == 3 and all(e.is_warm for e in cached)
        return model, ds, cached

    @staticmethod
    def _schedule(emb) -> dict:
        """Everything a training forward moves, less the read counters."""
        state = emb.extra_state()
        for key in ("lookups", "hits", "misses"):
            del state[key]
        state["cache_rows"] = emb.cache_rows.data
        return {key: np.array(value, copy=True) for key, value in state.items()}

    @pytest.mark.parametrize("reader", ["predictor", "evaluate"])
    def test_a_read_never_trains(self, reader):
        model, ds, cached = self._cached_model()
        before = [self._schedule(e) for e in cached]
        batches = [ds.batch(32) for _ in range(7)]  # > two refresh intervals
        if reader == "predictor":
            pred = Predictor(model)
            for batch in batches:
                pred.predict_batch(batch)
        else:
            Trainer(model, lr=0.1).evaluate(batches)
        for emb, was in zip(cached, before):
            now = self._schedule(emb)
            assert now.keys() == was.keys()
            for key in was:
                assert np.array_equal(now[key], was[key]), key
            assert emb.stats()["lookups"] > 0  # reads are still counted
        for emb in model.embeddings:  # no bag left pending
            with pytest.raises(RuntimeError, match="backward"):
                emb.backward(np.zeros((32, CFG.emb_dim)))

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_predict_batch_is_the_training_forward_bytes(self, dtype):
        with dtype_policy(dtype):
            model = build_ttrec(CFG, num_tt_tables=3, tt=TTConfig(rank=4),
                                min_rows=60, rng=0)
            ds = SyntheticCTRDataset(SPEC, seed=0, noise=0.7)
            batch = ds.batch(64)
            probs = Predictor(model).predict_batch(batch)
            expected = sigmoid(model.forward(batch.dense, batch.sparse))
        assert probs.dtype == np.dtype(dtype)
        assert probs.tobytes() == expected.tobytes()


class TestRowWiseAdagrad:
    def test_one_accumulator_per_row(self):
        p = Parameter(np.zeros((10, 4)), sparse=True)
        opt = RowWiseAdagrad([p], lr=0.1)
        assert opt.slots[0]["accum"].shape == (10,)
        assert list(opt.state_dict()) == ["lr", "eps", "accum.0"]

    def test_touched_rows_only(self):
        p = Parameter(np.ones((5, 2)), sparse=True)
        p.accumulate(np.array([1, 3]), np.ones((2, 2)))
        RowWiseAdagrad([p], lr=0.1).step()
        np.testing.assert_allclose(p.data[0], 1.0)
        assert (p.data[1] != 1.0).all()
        assert (p.data[3] != 1.0).all()

    def test_first_step_magnitude(self):
        """With uniform row gradient g, first update is -lr * g/|g| = -lr."""
        p = Parameter(np.zeros((2, 3)), sparse=True)
        p.accumulate(np.array([0, 1]), np.full((2, 3), 2.0))
        RowWiseAdagrad([p], lr=0.1).step()
        np.testing.assert_allclose(p.data, -0.1, atol=1e-8)

    def test_row_mean_normalisation_differs_from_elementwise(self):
        """A row with one large and one small grad element: row-wise uses a
        shared denominator, element-wise normalises each element."""
        p1 = Parameter(np.zeros((1, 2)), sparse=True)
        p2 = Parameter(np.zeros((1, 2)), sparse=True)
        for p in (p1, p2):
            p.accumulate(np.array([0]), np.array([[3.0, 1.0]]))
        RowWiseAdagrad([p1], lr=0.1).step()
        Adagrad([p2], lr=0.1).step()
        # element-wise: both elements move ~ -0.1; row-wise keeps the 3:1 ratio
        ratio_rowwise = p1.data[0, 0] / p1.data[0, 1]
        assert ratio_rowwise == pytest.approx(3.0)
        assert p2.data[0, 0] == pytest.approx(p2.data[0, 1], rel=1e-6)

    def test_dense_fallback(self):
        p = Parameter(np.zeros(4), sparse=False)
        p.grad[:] = 1.0
        RowWiseAdagrad([p], lr=0.1).step()
        np.testing.assert_allclose(p.data, -0.1, atol=1e-8)

    def test_trains_dlrm(self):
        model = build_dlrm(CFG, rng=0)
        opt = RowWiseAdagrad(model.parameters(), lr=0.05)
        trainer = Trainer(model, optimizer=opt)
        ds = SyntheticCTRDataset(SPEC, seed=0, noise=0.7)
        res = trainer.train(ds.batches(64, 60))
        assert np.mean(res.losses[-10:]) < np.mean(res.losses[:10])

    def test_validation(self):
        with pytest.raises(ValueError):
            RowWiseAdagrad([Parameter(np.zeros(2))], lr=0.0)
