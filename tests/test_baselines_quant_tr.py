"""Tests for quantization and Tensor-Ring baselines."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import QuantizedEmbeddingBag, TREmbeddingBag, TRShape, quantize_rows
from repro.baselines.quantization import dequantize_rows
from repro.tt import TTEmbeddingBag, TTShape
from tests.helpers import numeric_grad_check, random_csr


class TestQuantizeRows:
    def test_roundtrip_error_bounded_by_half_step(self):
        rng = np.random.default_rng(0)
        table = rng.normal(size=(20, 8))
        for bits in (2, 4, 8):
            codes, scales, zp = quantize_rows(table, bits)
            approx = dequantize_rows(codes, scales, zp)
            step = scales.max()
            assert np.abs(approx - table).max() <= step / 2 + 1e-12

    def test_more_bits_less_error(self):
        rng = np.random.default_rng(1)
        table = rng.normal(size=(10, 16))
        errs = []
        for bits in (2, 4, 8):
            q = QuantizedEmbeddingBag.from_dense(table, bits=bits)
            errs.append(q.reconstruction_error(table))
        assert errs[0] > errs[1] > errs[2]

    def test_constant_rows_exact(self):
        table = np.full((3, 4), 2.5)
        codes, scales, zp = quantize_rows(table, 4)
        np.testing.assert_allclose(dequantize_rows(codes, scales, zp), table)

    def test_dtype_by_bits(self):
        table = np.random.default_rng(0).normal(size=(4, 4))
        assert quantize_rows(table, 8)[0].dtype == np.uint8
        assert quantize_rows(table, 12)[0].dtype == np.uint16

    def test_codes_within_levels(self):
        table = np.random.default_rng(0).normal(size=(10, 10))
        codes, _, _ = quantize_rows(table, 3)
        assert codes.max() <= 7

    def test_validation(self):
        with pytest.raises(ValueError):
            quantize_rows(np.zeros((2, 2)), bits=0)
        with pytest.raises(ValueError):
            quantize_rows(np.zeros(4), bits=4)


class TestQuantizedEmbeddingBag:
    def test_forward_pools_dequantized_rows(self):
        rng = np.random.default_rng(2)
        table = rng.normal(size=(30, 4))
        q = QuantizedEmbeddingBag.from_dense(table, bits=8)
        idx = np.array([3, 7])
        out = q.forward(idx, np.array([0, 2]))
        np.testing.assert_allclose(out[0], q.lookup(idx).sum(axis=0), atol=1e-12)

    def test_mean_mode(self):
        table = np.random.default_rng(3).normal(size=(30, 4))
        q = QuantizedEmbeddingBag.from_dense(table, bits=8, mode="mean")
        idx = np.array([1, 2])
        out = q.forward(idx, np.array([0, 2]))
        np.testing.assert_allclose(out[0], q.lookup(idx).mean(axis=0), atol=1e-12)

    def test_backward_raises(self):
        q = QuantizedEmbeddingBag.from_dense(np.zeros((4, 4)), bits=4)
        with pytest.raises(NotImplementedError):
            q.backward(np.ones((1, 4)))

    def test_4bit_compression_arithmetic(self):
        """dim=16 at 4 bits: 16*32 bits dense vs 16*4 + 2*32 bits -> 4x;
        the per-row scale/zero-point overhead caps it below the ideal 8x."""
        q = QuantizedEmbeddingBag.from_dense(
            np.random.default_rng(0).normal(size=(10_000, 16)), bits=4
        )
        assert q.compression_ratio() == pytest.approx(4.0)
        # wider rows amortise the overhead toward the ideal bits ratio
        q64 = QuantizedEmbeddingBag.from_dense(
            np.random.default_rng(0).normal(size=(1_000, 64)), bits=4
        )
        assert 6 < q64.compression_ratio() < 8.0

    def test_per_sample_weights(self):
        table = np.random.default_rng(4).normal(size=(10, 4))
        q = QuantizedEmbeddingBag.from_dense(table, bits=8)
        idx = np.array([1, 2])
        out = q.forward(idx, np.array([0, 2]), np.array([2.0, -1.0]))
        rows = q.lookup(idx)
        np.testing.assert_allclose(out[0], 2 * rows[0] - rows[1], atol=1e-12)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            QuantizedEmbeddingBag(np.zeros((4, 4), dtype=np.uint8),
                                  np.zeros(3), np.zeros(4), 4)


class TestTRShape:
    def test_validation(self):
        with pytest.raises(ValueError):
            TRShape(60, 8, (3, 4, 5), (2, 2, 2), (2, 4, 4, 3))  # ring mismatch
        with pytest.raises(ValueError):
            TRShape(100, 8, (3, 4, 5), (2, 2, 2), (2, 4, 4, 2))  # rows underflow
        with pytest.raises(ValueError):
            TRShape(60, 9, (3, 4, 5), (2, 2, 2), (2, 4, 4, 2))  # dim mismatch

    def test_suggested_params(self):
        s = TRShape.suggested(10_000, 16, d=3, rank=4)
        assert s.ring_rank == 4
        assert s.ranks == (4, 4, 4, 4)  # uniform, the ring's included
        assert s.folded.padded_rows >= 10_000
        # the ring's parameters, counted on the folded TT shape
        assert s.folded.num_params() == sum(
            m * r * n * q for m, n, r, q in zip(
                s.row_factors, s.col_factors, s.ranks, s.ranks[1:]))

    def test_folded_shape(self):
        """The ring rank lives in the first and last mode of a TT shape."""
        s = TRShape(60, 8, (3, 4, 5), (2, 2, 2), (3, 4, 5, 3))
        assert s.folded.core_shape(0) == (3, 1, 3 * 2, 4)
        assert s.folded.core_shape(1) == (4, 4, 2, 5)
        assert s.folded.core_shape(2) == (5, 5, 2 * 3, 1)
        assert s.folded.dim == 3 * 8 * 3 and s.folded.num_rows == 60
        one = TRShape(60, 8, (3, 4, 5), (2, 2, 2), (1, 4, 5, 1))
        assert one.folded == TTShape(60, 8, (3, 4, 5), (2, 2, 2), (1, 4, 5, 1))

    def test_decode_roundtrip_range(self):
        s = TRShape(60, 8, (3, 4, 5), (2, 2, 2), (2, 3, 3, 2))
        dec = s.folded.decode_indices(np.arange(60))
        for k, m in enumerate(s.row_factors):
            assert dec[k].max() == m - 1
        with pytest.raises(IndexError):
            s.folded.decode_indices(np.array([60]))


class TestTREmbeddingBag:
    @pytest.fixture
    def shape(self):
        return TRShape(60, 8, (3, 4, 5), (2, 2, 2), (3, 4, 4, 3))

    def test_forward_matches_trace_reference(self, shape):
        emb = TREmbeddingBag(60, 8, shape=shape, rng=1)
        idx = np.random.default_rng(0).integers(0, 60, size=10)
        dec = shape.folded.decode_indices(idx)
        # the ring cores (m, R_prev, n, R_next): the stored bytes, unfolded
        g1, g2, g3 = (p.data.reshape(m, r, n, q) for p, m, n, r, q in zip(
            emb.cores, shape.row_factors, shape.col_factors, shape.ranks,
            shape.ranks[1:]))
        for b in range(idx.size):
            for j, (j1, j2, j3) in enumerate(np.ndindex(2, 2, 2)):
                chain = (g1[dec[0, b], :, j1, :] @ g2[dec[1, b], :, j2, :]
                         @ g3[dec[2, b], :, j3, :])
                assert emb.lookup(idx)[b, j] == pytest.approx(np.trace(chain))

    def test_ring_rank_one_equals_tt(self, shape):
        tr = TREmbeddingBag(60, 8, shape=TRShape(60, 8, (3, 4, 5), (2, 2, 2),
                                                 (1, 4, 4, 1)), rng=2)
        tt = TTEmbeddingBag(60, 8, shape=TTShape(60, 8, (3, 4, 5), (2, 2, 2),
                                                 (1, 4, 4, 1)), rng=3)
        tt.load_cores([p.data.copy() for p in tr.cores])
        idx = np.arange(60)
        assert tr.lookup(idx).tobytes() == tt.lookup(idx).tobytes()
        bags, off = np.random.default_rng(4).integers(0, 60, size=30), np.arange(0, 31, 3)
        grad = np.random.default_rng(5).normal(size=(10, 8))
        assert tr.forward(bags, off).tobytes() == tt.forward(bags, off).tobytes()
        tr.backward(grad)
        tt.backward(grad)
        for a, b in zip(tr.cores, tt.cores):
            assert a.dense_grad().tobytes() == b.dense_grad().tobytes()

    @pytest.mark.parametrize("mode", ["sum", "mean"])
    def test_gradients(self, shape, mode):
        rng = np.random.default_rng(5)
        emb = TREmbeddingBag(60, 8, shape=shape, mode=mode, rng=1)
        idx, off = random_csr(rng, 60, 5)
        alpha = rng.normal(size=idx.size) if mode == "sum" else None
        r = rng.normal(size=(5, 8))

        def loss():
            return float((emb.forward(idx, off, alpha) * r).sum())

        emb.zero_grad()
        emb.forward(idx, off, alpha)
        emb.backward(r)
        for p in emb.cores:
            numeric_grad_check(p.data, p.dense_grad(), loss, samples=10)

    def test_init_variance_target(self):
        emb = TREmbeddingBag(512, 8, shape=TRShape(512, 8, (8, 8, 8), (2, 2, 2),
                                                   (3, 3, 3, 3)), rng=0)
        table = emb.materialize()
        assert table.var() == pytest.approx(1 / (3 * 512), rel=0.5)

    def test_compression_vs_tt_at_same_rank(self):
        """TR pays for the ring rank on both boundaries: lower compression
        than TT at matched internal rank — the paper's Related Work claim."""
        tr = TREmbeddingBag(100_000, 16, d=3, rank=8, rng=0)
        tt = TTEmbeddingBag(100_000, 16, d=3, rank=8, rng=0)
        assert tr.compression_ratio() < tt.compression_ratio()
        assert tr.num_parameters() == tr.shape.folded.num_params()

    def test_validation(self, shape):
        with pytest.raises(ValueError):
            TREmbeddingBag(61, 8, shape=shape)
        with pytest.raises(ValueError):
            TREmbeddingBag(60, 4, shape=shape)
        with pytest.raises(ValueError):
            TREmbeddingBag(60, 8, shape=shape, mode="max")

    def test_same_seed_rows_are_the_parents(self):
        """Same draws in the same order, same row bits: recorded from the
        gather-then-``matmul`` implementation this one replaced (x86-64
        OpenBLAS; the cores are the RNG's alone, the rows also the BLAS's)."""
        import hashlib

        emb = TREmbeddingBag(60, 8, rng=11, shape=TRShape(
            60, 8, (3, 4, 5), (2, 2, 2), (4, 3, 3, 4)))
        assert hashlib.sha256(b"".join(p.data.tobytes() for p in emb.cores)
                              ).hexdigest().startswith("529b7d731bb871e3")
        rows = emb.lookup(np.arange(60))
        recorded = {
            0: ["-0x1.a4ac4a300cba0p-9", "-0x1.ca3aef3149d66p-4", "-0x1.b40e6b394ec94p-8"],
            17: ["0x1.faed9dd806944p-7", "-0x1.d904be1249d94p-8", "0x1.3d324c380464ap-6"],
            59: ["0x1.7d169fc1f7ea6p-8", "0x1.a8f3ad5345f7dp-5", "-0x1.650fb609649f7p-5"],
        }
        for i, want in recorded.items():
            assert [float(x).hex() for x in rows[i, :3]] == want

    def test_duplicate_heavy_batch_sums_grads(self, shape):
        """Core grads of a batch equal the sum over its lookups, however
        many repeat a row (Algorithm 2 reduces them per core slice)."""
        rng = np.random.default_rng(9)
        idx = rng.integers(0, 60, size=40)
        idx[:25] = idx[0]
        grad = rng.normal(size=(idx.size, 8))
        emb = TREmbeddingBag(60, 8, shape=shape, rng=1)
        emb.forward(idx)
        emb.backward(grad)
        one = TREmbeddingBag(60, 8, shape=shape, rng=1)
        for i in range(idx.size):
            one.forward(idx[i:i + 1])
            one.backward(grad[i:i + 1])
        for p, q in zip(emb.cores, one.cores):
            np.testing.assert_allclose(p.dense_grad(), q.dense_grad(), rtol=1e-10,
                                       atol=1e-12 * np.abs(q.dense_grad()).max())

    def test_state_dict_round_trip(self, shape):
        src = TREmbeddingBag(60, 8, shape=shape, rng=1)
        dst = TREmbeddingBag(60, 8, shape=shape, rng=2)
        state = src.state_dict()
        assert sorted(state) == ["0000:tr_emb.core0", "0001:tr_emb.core1",
                                 "0002:tr_emb.core2"]
        dst.load_state_dict(state)
        idx = np.arange(60)
        assert dst.lookup(idx).tobytes() == src.lookup(idx).tobytes()

    def test_served_ladder_has_no_tt_escape_hatch(self):
        """The serving tiers take an operator's ``.tt`` for the cached
        table's escape hatch (read the cores, bypass the cache). The folded
        table under a ring returns ``R0*dim*R0``-wide rows and must never
        be taken for one: a ring's ladder is its own ``lookup_bags`` only."""
        from repro.inference import Predictor
        from repro.models import DLRM, DLRMConfig
        from repro.ops import EmbeddingBag
        from repro.serving import InferenceServer

        embs = [TREmbeddingBag(60, 8, rank=2, rng=0), EmbeddingBag(40, 8, rng=1)]
        model = DLRM(DLRMConfig(table_sizes=(60, 40), emb_dim=8), embs, rng=0)
        ladder = InferenceServer(Predictor(model)).ladders[0]
        assert [rung.name for rung in ladder.rungs] == ["primary"]
        idx, off = np.array([3, 3, 17, 59]), np.array([0, 2, 4])
        vecs, served_by = ladder.serve(idx, off)
        assert served_by == "primary"
        assert vecs.tobytes() == embs[0].lookup_bags(idx, off).tobytes()

    def test_forward_advances_the_shared_chain_counters(self, shape):
        """TR contracts through the TT executor: ``tt.plan.*`` see it."""
        from repro.telemetry import get_registry

        emb = TREmbeddingBag(60, 8, shape=shape, rng=1)
        executed = get_registry().counter("tt.plan.flops_executed")
        before = executed.value
        emb.forward(np.arange(10))
        advanced = executed.value - before
        assert advanced > 0
        assert advanced == 10 * emb.folded.planner.flops

    @given(st.integers(min_value=0, max_value=2 ** 31))
    @settings(max_examples=15, deadline=None)
    def test_property_pooling_linearity(self, seed):
        rng = np.random.default_rng(seed)
        emb = TREmbeddingBag(60, 8,
                             shape=TRShape(60, 8, (3, 4, 5), (2, 2, 2),
                                           (2, 3, 3, 2)),
                             rng=int(rng.integers(1 << 30)))
        idx = rng.integers(0, 60, size=5).astype(np.int64)
        bag = emb.forward(idx, np.array([0, 5]))
        singles = emb.lookup(idx)
        np.testing.assert_allclose(bag[0], singles.sum(axis=0), atol=1e-10)
