"""Tests for the DLRM dot-interaction operator."""

import numpy as np
import pytest

from repro.data import KAGGLE, SyntheticCTRDataset
from repro.ops import DotInteraction
from tests.helpers import numeric_grad_check
from tests.test_ops_layers import tiny_model


class TestDotInteraction:
    def test_output_dim(self):
        assert DotInteraction.output_dim(dense_dim=16, num_sparse=26) == 16 + 27 * 26 // 2

    def test_forward_matches_manual_pairs(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 3))
        a = rng.normal(size=(2, 3))
        b = rng.normal(size=(2, 3))
        out, stacked = DotInteraction().forward(x, [a, b])
        assert out.shape == (2, 3 + 3)
        np.testing.assert_array_equal(stacked, np.stack([x, a, b], axis=1))
        for s in range(2):
            np.testing.assert_allclose(out[s, :3], x[s])
            # strictly-lower-triangle order over features [x, a, b]:
            # pairs (a,x), (b,x), (b,a)
            np.testing.assert_allclose(out[s, 3], a[s] @ x[s])
            np.testing.assert_allclose(out[s, 4], b[s] @ x[s])
            np.testing.assert_allclose(out[s, 5], b[s] @ a[s])

    def test_no_self_interaction_terms(self):
        x = np.ones((1, 4))
        out, _ = DotInteraction().forward(x, [])
        # With no sparse features there are no pairs at all.
        assert out.shape == (1, 4)

    def test_shape_mismatch_rejected(self):
        inter = DotInteraction()
        with pytest.raises(ValueError):
            inter.forward(np.ones((2, 3)), [np.ones((2, 4))])

    def test_backward_before_forward(self):
        """The interaction holds no stack; the model's one guard refuses a
        second backward for one forward."""
        model = tiny_model()
        batch = SyntheticCTRDataset(KAGGLE.scaled(0.0002), seed=0).batch(4)
        model.forward(batch.dense, batch.sparse)
        model.backward(np.ones(4))
        with pytest.raises(RuntimeError, match="twice"):
            model.backward(np.ones(4))

    def test_gradients(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(3, 4))
        sparse = [rng.normal(size=(3, 4)) for _ in range(3)]
        inter = DotInteraction()
        r = rng.normal(size=(3, DotInteraction.output_dim(4, 3)))

        def loss():
            return float((inter.forward(x, sparse)[0] * r).sum())

        grad_x, grad_sparse = inter.backward(r, inter.forward(x, sparse)[1])
        numeric_grad_check(x, grad_x, loss, samples=12)
        for v, g in zip(sparse, grad_sparse):
            numeric_grad_check(v, g, loss, samples=8)

    @pytest.mark.parametrize("batch", [1, 128])
    def test_backward_bytes_equal_symmetrised_formula(self, batch):
        """At DLRM's F = 27 the backward equals ``(gz + gz^T) @ T`` byte
        for byte."""
        rng = np.random.default_rng(batch)
        d, f = 4, 27
        x = rng.normal(size=(batch, d))
        sparse = [rng.normal(size=(batch, d)) for _ in range(f - 1)]
        grad_out = rng.normal(size=(batch, DotInteraction.output_dim(d, f - 1)))
        inter = DotInteraction()
        grad_x, grad_sparse = inter.backward(grad_out, inter.forward(x, sparse)[1])

        stacked = np.stack([x] + sparse, axis=1)
        li, lj = np.tril_indices(f, k=-1)
        gz = np.zeros((batch, f, f))
        gz[:, li, lj] = grad_out[:, d:]
        want = (gz + gz.transpose(0, 2, 1)) @ stacked
        assert grad_x.tobytes() == (want[:, 0, :] + grad_out[:, :d]).tobytes()
        for i, g in enumerate(grad_sparse, start=1):
            assert g.tobytes() == want[:, i, :].tobytes()

    def test_gradients_at_dlrm_width(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(2, 3))
        sparse = [rng.normal(size=(2, 3)) for _ in range(26)]
        inter = DotInteraction()
        r = rng.normal(size=(2, DotInteraction.output_dim(3, 26)))

        def loss():
            return float((inter.forward(x, sparse)[0] * r).sum())

        grad_x, grad_sparse = inter.backward(r, inter.forward(x, sparse)[1])
        numeric_grad_check(x, grad_x, loss, samples=6)
        for v, g in zip(sparse[::5], grad_sparse[::5]):
            numeric_grad_check(v, g, loss, samples=3)

