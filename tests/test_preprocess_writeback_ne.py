"""Tests for the Criteo preprocessing pipeline, TT row write-back, and NE."""

import numpy as np
import pytest

from repro.data.preprocess import Preprocessor, build_vocabularies, downsample_negatives
from repro.training.metrics import normalized_entropy
from repro.tt import TTEmbeddingBag, TTShape
from repro.tt.writeback import absorb_rows, reconstruction_error


def make_tsv(tmp_path, rows, name="day.tsv"):
    lines = []
    for label, cats in rows:
        ints = ["1"] * 13
        lines.append("\t".join([str(label)] + ints + cats))
    p = tmp_path / name
    p.write_text("\n".join(lines) + "\n")
    return p


class TestBuildVocabularies:
    def test_dense_reindexing_reserves_oov(self, tmp_path):
        rows = [
            (1, ["0000000a"] + ["000000ff"] * 25),
            (0, ["0000000b"] + ["000000ff"] * 25),
        ]
        path = make_tsv(tmp_path, rows)
        vocabs = build_vocabularies([path])
        assert len(vocabs) == 26
        assert set(vocabs[0].values()) == {1, 2}  # index 0 reserved
        assert vocabs[1] == {0xFF: 1}

    def test_min_frequency_thresholds(self, tmp_path):
        rows = [(0, ["0000000a"] + ["000000ff"] * 25)] * 3 + \
               [(0, ["0000000b"] + ["000000ff"] * 25)]
        path = make_tsv(tmp_path, rows)
        vocabs = build_vocabularies([path], min_frequency=2)
        assert 0xA in vocabs[0]
        assert 0xB not in vocabs[0]  # seen once -> OOV

    def test_multiple_files_accumulate(self, tmp_path):
        p1 = make_tsv(tmp_path, [(0, ["0000000a"] * 26)], "d1.tsv")
        p2 = make_tsv(tmp_path, [(0, ["0000000b"] * 26)], "d2.tsv")
        vocabs = build_vocabularies([p1, p2])
        assert len(vocabs[0]) == 2

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError):
            build_vocabularies([], min_frequency=0)
        bad = tmp_path / "bad.tsv"
        bad.write_text("1\t2\n")
        with pytest.raises(ValueError, match="fields"):
            build_vocabularies([bad])


class TestPreprocessor:
    def test_spec_includes_oov_row(self, tmp_path):
        path = make_tsv(tmp_path, [(0, ["0000000a"] * 26)])
        pre = Preprocessor(build_vocabularies([path]))
        assert pre.spec().table_sizes == tuple([2] * 26)

    def test_batches_encode_known_and_oov(self, tmp_path):
        train = make_tsv(tmp_path, [(1, ["0000000a"] * 26)], "train.tsv")
        test = make_tsv(tmp_path, [(0, ["0000000a"] * 26),
                                   (1, ["deadbeef"] * 26)], "test.tsv")
        pre = Preprocessor(build_vocabularies([train]))
        batches = list(pre.batches(test, batch_size=10))
        assert len(batches) == 1
        idx0 = batches[0].sparse[0][0]
        assert idx0[0] == 1   # known value
        assert idx0[1] == 0   # OOV
        # indices always fit the derived spec
        spec = pre.spec()
        for t, (idx, _) in enumerate(batches[0].sparse):
            assert idx.max() < spec.table_sizes[t]

    def test_negative_downsampling_in_stream(self, tmp_path):
        rows = [(0, ["0000000a"] * 26)] * 200 + [(1, ["0000000a"] * 26)] * 10
        path = make_tsv(tmp_path, rows)
        pre = Preprocessor(build_vocabularies([path]))
        kept = sum(b.size for b in pre.batches(path, 64,
                                               negative_keep_rate=0.1, rng=0))
        # ~20 negatives + all 10 positives
        assert 10 <= kept <= 60
        labels = np.concatenate([
            b.labels for b in pre.batches(path, 64,
                                          negative_keep_rate=0.1, rng=0)
        ])
        assert labels.sum() == 10  # every positive survived

    def test_batches_validation(self, tmp_path):
        path = make_tsv(tmp_path, [(0, ["0000000a"] * 26)])
        pre = Preprocessor(build_vocabularies([path]))
        with pytest.raises(ValueError):
            list(pre.batches(path, 0))


class TestDownsampleNegatives:
    def test_positives_always_kept(self):
        labels = np.array([1.0, 0, 0, 1, 0, 0, 0, 1])
        keep = downsample_negatives(labels, 0.5, rng=0)
        assert keep[labels > 0.5].all()

    def test_keep_rate_statistics(self):
        rng = np.random.default_rng(0)
        labels = (rng.random(20_000) < 0.2).astype(float)
        keep = downsample_negatives(labels, 0.125, rng=1)
        neg_kept = keep[labels < 0.5].mean()
        assert neg_kept == pytest.approx(0.125, abs=0.01)

    def test_keep_rate_one_keeps_all(self):
        labels = np.zeros(100)
        assert downsample_negatives(labels, 1.0, rng=0).all()

    def test_validation(self):
        with pytest.raises(ValueError):
            downsample_negatives(np.zeros(4), 0.0)


class TestWriteBack:
    @pytest.fixture
    def emb(self):
        shape = TTShape.with_uniform_rank(60, 8, (3, 4, 5), (2, 2, 2), rank=6)
        return TTEmbeddingBag(60, 8, shape=shape, rng=0)

    def test_absorbs_learnable_targets(self, emb):
        """Targets near the TT manifold are absorbed to low residual."""
        rng = np.random.default_rng(1)
        rows = np.array([3, 17, 42])
        targets = emb.lookup(rows) + 0.01 * rng.normal(size=(3, 8))
        stats = absorb_rows(emb, rows, targets, steps=100, lr=1.0)
        assert stats["after"] < stats["before"]
        assert stats["after"] < 0.01

    def test_other_rows_barely_move(self, emb):
        rng = np.random.default_rng(2)
        rows = np.array([5])
        others = np.array([50, 55, 59])
        before_others = emb.lookup(others).copy()
        targets = emb.lookup(rows) + 0.05 * rng.normal(size=(1, 8))
        absorb_rows(emb, rows, targets, steps=50, lr=0.5, ridge=1e-2)
        drift = np.abs(emb.lookup(others) - before_others).max()
        assert drift < 0.05  # bounded collateral movement

    def test_unreachable_targets_plateau(self):
        """Rank-1 cores cannot represent arbitrary rows: the paper's point
        about why streaming decomposition is hard."""
        shape = TTShape.with_uniform_rank(60, 8, (3, 4, 5), (2, 2, 2), rank=1)
        emb = TTEmbeddingBag(60, 8, shape=shape, rng=0)
        rng = np.random.default_rng(3)
        rows = np.arange(20)
        targets = rng.normal(size=(20, 8))  # far off the rank-1 manifold
        stats = absorb_rows(emb, rows, targets, steps=60, lr=0.3)
        assert stats["after"] > 0.1  # cannot be driven to zero

    def test_leaves_the_cores_pairs_as_found(self, emb):
        """absorb_rows can run between a training forward and its backward
        (cache eviction), so it hands every core's pair back untouched."""
        absorb_rows(emb, np.array([1, 5, 9]), np.ones((3, 8)), steps=3)
        assert all(p.grad is None for p in emb.cores)
        emb.forward(np.array([2, 7]))
        emb.backward(np.ones((2, 8)))
        held = [p.grad for p in emb.cores]
        absorb_rows(emb, np.array([1, 5, 9]), np.ones((3, 8)), steps=3)
        assert all(p.grad is pair for p, pair in zip(emb.cores, held))

    def test_empty_rows_noop(self, emb):
        stats = absorb_rows(emb, np.empty(0, dtype=np.int64),
                            np.zeros((0, 8)))
        assert stats == {"before": 0.0, "after": 0.0, "steps": 0}

    def test_tol_early_stop(self, emb):
        rows = np.array([1])
        targets = emb.lookup(rows)  # already exact
        stats = absorb_rows(emb, rows, targets, steps=50, tol=1e-12)
        assert stats["steps"] == 0

    def test_validation(self, emb):
        with pytest.raises(ValueError):
            absorb_rows(emb, np.array([1]), np.zeros((2, 8)))
        with pytest.raises(ValueError):
            absorb_rows(emb, np.array([1]), np.zeros((1, 8)), steps=0)

    def test_reconstruction_error_zero_for_exact(self, emb):
        rows = np.array([2, 4])
        assert reconstruction_error(emb, rows, emb.lookup(rows)) == 0.0


class TestNormalizedEntropy:
    def test_base_rate_predictor_is_one(self):
        rng = np.random.default_rng(0)
        labels = (rng.random(50_000) < 0.3).astype(float)
        p = labels.mean()
        logits = np.full_like(labels, np.log(p / (1 - p)))
        assert normalized_entropy(logits, labels) == pytest.approx(1.0, abs=1e-3)

    def test_better_model_below_one(self):
        labels = np.array([1.0, 0, 1, 0] * 100)
        logits = np.where(labels > 0.5, 2.0, -2.0)
        assert normalized_entropy(logits, labels) < 0.5

    def test_single_class_is_inf(self):
        assert normalized_entropy(np.zeros(4), np.ones(4)) == float("inf")
