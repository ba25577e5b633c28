"""Tests for DLRMConfig, the DLRM model (with full gradient check) and factories."""

import numpy as np
import pytest

from repro.cache import CachedTTEmbeddingBag
from repro.models import DLRM, DLRMConfig, TTConfig, build_dlrm, build_ttrec, largest_tables
from repro.ops import EmbeddingBag, Module
from repro.ops.module import walk
from repro.tt import TTEmbeddingBag
from tests.helpers import numeric_grad_check, random_csr

SIZES = (500, 40, 300, 8, 200)


@pytest.fixture
def config():
    return DLRMConfig(table_sizes=SIZES, num_dense=5, emb_dim=4,
                      bottom_mlp=(8,), top_mlp=(8,))


def make_batch(rng, config, batch=6):
    dense = rng.normal(size=(batch, config.num_dense))
    sparse = [random_csr(rng, s, batch, allow_empty=False) for s in config.table_sizes]
    labels = (rng.random(batch) > 0.5).astype(float)
    return dense, sparse, labels


class TestConfig:
    def test_dims(self, config):
        assert config.bottom_sizes() == [5, 8, 4]
        f = 6
        assert config.interaction_dim() == 4 + f * (f - 1) // 2
        assert config.top_sizes() == [config.interaction_dim(), 8, 1]

    def test_validation(self):
        with pytest.raises(ValueError):
            DLRMConfig(table_sizes=())
        with pytest.raises(ValueError):
            DLRMConfig(table_sizes=(0,))
        with pytest.raises(ValueError):
            DLRMConfig(table_sizes=(5,), emb_dim=0)
        with pytest.raises(ValueError):
            DLRMConfig(table_sizes=(5,), tt_tables={3: TTConfig()})

    def test_ttconfig_validation(self):
        with pytest.raises(ValueError):
            TTConfig(rank=0)
        with pytest.raises(ValueError):
            TTConfig(d=1)

    def test_ttconfig_rejects_cache_with_recompute(self):
        """The cached operator always stores its intermediates, so the
        combination used to build silently ignoring one field."""
        with pytest.raises(ValueError, match="use_cache.*store_intermediates"):
            TTConfig(use_cache=True, store_intermediates=False)
        with pytest.raises(ValueError, match="use_cache.*store_intermediates"):
            TTConfig(store_intermediates=False).with_(use_cache=True)
        assert not TTConfig(store_intermediates=False).store_intermediates
        assert TTConfig(use_cache=True).store_intermediates

    def test_with_replaces(self, config):
        c2 = config.with_(emb_dim=8)
        assert c2.emb_dim == 8 and config.emb_dim == 4


class TestLargestTables:
    def test_selects_by_size(self):
        assert largest_tables(SIZES, 2) == [0, 2]

    def test_tie_break_by_index(self):
        assert largest_tables((5, 5, 5), 2) == [0, 1]

    def test_validation(self):
        with pytest.raises(ValueError):
            largest_tables(SIZES, -1)


class TestFactories:
    def test_baseline_all_dense(self, config):
        model = build_dlrm(config, rng=0)
        assert all(isinstance(e, EmbeddingBag) for e in model.embeddings)

    def test_ttrec_compresses_largest(self, config):
        model = build_ttrec(config, num_tt_tables=2, tt=TTConfig(rank=2),
                            min_rows=100, rng=0)
        kinds = [type(e) for e in model.embeddings]
        assert kinds[0] is TTEmbeddingBag
        assert kinds[2] is TTEmbeddingBag
        assert kinds[1] is EmbeddingBag

    def test_min_rows_skips_small(self, config):
        model = build_ttrec(config, num_tt_tables=5, tt=TTConfig(rank=2),
                            min_rows=250, rng=0)
        tt_count = sum(isinstance(e, TTEmbeddingBag) for e in model.embeddings)
        assert tt_count == 2  # only 500 and 300 pass

    def test_cache_variant(self, config):
        tt = TTConfig(rank=2, use_cache=True, cache_size=4, warmup_steps=1)
        model = build_ttrec(config, num_tt_tables=1, tt=tt, min_rows=100, rng=0)
        assert isinstance(model.embeddings[0], CachedTTEmbeddingBag)

    def test_ttrec_smaller_than_baseline(self, config):
        base = build_dlrm(config, rng=0)
        tt = build_ttrec(config, num_tt_tables=2, tt=TTConfig(rank=2),
                         min_rows=100, rng=0)
        assert tt.embedding_parameters() < base.embedding_parameters()


class TestDLRMForwardBackward:
    def test_forward_shape(self, config):
        rng = np.random.default_rng(0)
        model = build_dlrm(config, rng=0)
        dense, sparse, _ = make_batch(rng, config)
        logits = model.forward(dense, sparse)
        assert logits.shape == (6,)

    def test_wrong_sparse_count_rejected(self, config):
        rng = np.random.default_rng(0)
        model = build_dlrm(config, rng=0)
        dense, sparse, _ = make_batch(rng, config)
        with pytest.raises(ValueError):
            model.forward(dense, sparse[:-1])

    def test_wrong_bag_count_rejected(self, config):
        rng = np.random.default_rng(0)
        model = build_dlrm(config, rng=0)
        dense, sparse, _ = make_batch(rng, config)
        bad = list(sparse)
        idx, off = bad[0]
        bad[0] = (idx[:off[-2]], off[:-1])  # one bag short
        with pytest.raises(ValueError):
            model.forward(dense, bad)

    def test_wrong_embedding_count_rejected(self, config):
        with pytest.raises(ValueError):
            DLRM(config, embeddings=[EmbeddingBag(10, 4, rng=0)], rng=0)

    def test_full_model_gradients(self, config):
        """End-to-end gradient check: every parameter of every component."""
        cfg = config.with_(tt_tables={0: TTConfig(rank=2)})
        rng = np.random.default_rng(30)
        model = build_dlrm(cfg, rng=0)
        dense, sparse, _ = make_batch(rng, cfg, batch=4)
        r = rng.normal(size=4)

        def loss():
            return float((model.forward(dense, sparse) * r).sum())

        model.zero_grad()
        model.forward(dense, sparse)
        model.backward(r)
        for p in model.parameters():
            numeric_grad_check(p.data, p.dense_grad(), loss, samples=6, rtol=5e-4)

    def test_predict_proba_range(self, config):
        rng = np.random.default_rng(1)
        model = build_dlrm(config, rng=0)
        dense, sparse, _ = make_batch(rng, config)
        p = model.predict_proba(dense, sparse)
        assert np.all((p > 0) & (p < 1))

    def test_parameter_accounting(self, config):
        model = build_dlrm(config, rng=0)
        assert model.embedding_parameters() == sum(SIZES) * 4
        total = sum(p.size for p in model.parameters())
        towers = model.bottom_mlp.num_parameters() + model.top_mlp.num_parameters()
        assert total == model.embedding_parameters() + towers


def _warm_cached(config):
    """Two cached d = 3 TT tables, populated after one step and never
    refreshed, so a training forward serves what a read serves."""
    model = build_ttrec(config, num_tt_tables=2, min_rows=100, rng=0,
                        tt=TTConfig(rank=4, use_cache=True, cache_size=150,
                                    warmup_steps=1, refresh_interval=None))
    dense, sparse, _ = make_batch(np.random.default_rng(7), config, batch=32)
    model.forward(dense, sparse)
    assert all(e.is_warm for e in model.embeddings
               if isinstance(e, CachedTTEmbeddingBag))
    return model


READ_MODELS = {
    "dense": lambda config: build_dlrm(config, rng=0),
    "tt": lambda config: build_ttrec(config, num_tt_tables=2, min_rows=100,
                                     tt=TTConfig(rank=4), rng=0),
    "cached": _warm_cached,
}


class TestReadPath:
    @pytest.mark.parametrize("weighted", [False, True], ids=["plain", "weighted"])
    @pytest.mark.parametrize("kind", sorted(READ_MODELS))
    def test_predict_logits_is_the_forward_bytes(self, config, kind, weighted):
        model = READ_MODELS[kind](config)
        rng = np.random.default_rng(3)
        dense, sparse, _ = make_batch(rng, config, batch=16)
        weights = ([rng.uniform(0.5, 2.0, size=idx.shape) for idx, _ in sparse]
                   if weighted else None)
        read = model.predict_logits(dense, sparse, weights)
        assert read.tobytes() == model.forward(dense, sparse, weights).tobytes()
        if weighted:
            assert read.tobytes() != model.predict_logits(dense, sparse).tobytes()
        cached = [e for e in model.embeddings if isinstance(e, CachedTTEmbeddingBag)]
        assert len(cached) == (2 if kind == "cached" else 0)
        assert all(e.hits > 0 for e in cached)  # the read served cache rows

    @pytest.mark.parametrize("kind", sorted(READ_MODELS))
    def test_a_read_between_forward_and_backward_keeps_every_gradient(
            self, config, kind):
        """A read between a forward and its backward leaves every gradient
        byte-equal: a read keeps no tape, so it cannot overwrite one."""
        rng = np.random.default_rng(3)
        (dense, sparse, _), (dense2, sparse2, _) = (
            make_batch(rng, config, batch=16) for _ in range(2))
        g = rng.normal(size=16)
        grads = []
        for read in (False, True):
            model = READ_MODELS[kind](config)
            model.forward(dense, sparse)
            if read:
                model.predict_logits(dense2, sparse2)
            model.backward(g)
            grads.append(gradient_bytes(model))
        assert grads[1] == grads[0]

    @pytest.mark.parametrize("case", ["read-alone", "second-backward"])
    @pytest.mark.parametrize("kind", sorted(READ_MODELS))
    def test_backward_without_a_pending_forward_raises_untouched(
            self, config, kind, case):
        """After a read alone, or a second time for one forward, backward
        raises before it touches any gradient. (The cached model is warmed
        by a forward, so its read-alone arm first spends that forward.)"""
        model = READ_MODELS[kind](config)
        rng = np.random.default_rng(3)
        dense, sparse, _ = make_batch(rng, config, batch=16)
        g = rng.normal(size=16)
        if case == "second-backward" or kind == "cached":
            model.forward(dense, sparse)
            model.backward(g)
        if case == "read-alone":
            model.predict_logits(dense, sparse)
        before = gradient_bytes(model)
        with pytest.raises(RuntimeError, match="before forward|twice"):
            model.backward(g)
        assert gradient_bytes(model) == before

    @pytest.mark.parametrize("kind", sorted(READ_MODELS))
    def test_tower_layers_hold_only_what_construction_gave_them(self, config, kind):
        """Every module under the model but the tables holds the same
        objects after a forward, a read and a backward: the one tape is
        the model's."""
        model = READ_MODELS[kind](config)
        towers = [m for path, m in walk(model) if isinstance(m, Module)
                  and path and not path.startswith("embeddings")]
        built = [dict(vars(m)) for m in towers]
        rng = np.random.default_rng(3)
        dense, sparse, _ = make_batch(rng, config, batch=16)
        for call in (lambda: model.forward(dense, sparse),
                     lambda: model.predict_logits(dense, sparse),
                     lambda: model.backward(rng.normal(size=16))):
            call()
            for m, held in zip(towers, built):
                assert vars(m).keys() == held.keys(), type(m).__name__
                assert all(vars(m)[k] is v for k, v in held.items()), type(m).__name__


def gradient_bytes(model) -> list[bytes]:
    return [p.dense_grad().tobytes() for p in model.parameters()]
