"""Gradient and behaviour tests for Linear, activations, MLP and loss."""

import numpy as np
import pytest

from repro.data import KAGGLE, SyntheticCTRDataset
from repro.models import DLRMConfig, build_dlrm
from repro.ops import MLP, Linear, ReLU, Sigmoid, bce_with_logits
from repro.training import Trainer
from tests.helpers import numeric_grad_check


def tiny_model():
    spec = KAGGLE.scaled(0.0002)
    return build_dlrm(DLRMConfig(table_sizes=spec.table_sizes, emb_dim=8,
                                 bottom_mlp=(16,), top_mlp=(16,)), rng=0)


class TestLinear:
    def test_forward_shape_and_value(self):
        layer = Linear(3, 2, rng=0)
        x = np.ones((4, 3))
        out, saved = layer.forward(x)
        assert out.shape == (4, 2)
        expected = x @ layer.weight.data + layer.bias.data
        np.testing.assert_allclose(out, expected)
        np.testing.assert_array_equal(saved, x)

    def test_rejects_bad_input_shape(self):
        layer = Linear(3, 2, rng=0)
        with pytest.raises(ValueError):
            layer.forward(np.ones((4, 5)))

    def test_backward_before_forward_raises(self):
        """No layer holds a forward; the model's one guard refuses a
        backward before any forward."""
        model = tiny_model()
        with pytest.raises(RuntimeError, match="before forward"):
            model.backward(np.ones(4))

    def test_weight_gradient(self):
        rng = np.random.default_rng(1)
        layer = Linear(4, 3, rng=0)
        x = rng.normal(size=(5, 4))
        r = rng.normal(size=(5, 3))

        def loss():
            return float((layer.forward(x)[0] * r).sum())

        layer.backward(r, layer.forward(x)[1])
        numeric_grad_check(layer.weight.data, layer.weight.grad, loss)
        numeric_grad_check(layer.bias.data, layer.bias.grad, loss)

    def test_input_gradient(self):
        rng = np.random.default_rng(2)
        layer = Linear(4, 3, rng=0)
        x = rng.normal(size=(5, 4))
        r = rng.normal(size=(5, 3))
        grad_in = layer.backward(r, layer.forward(x)[1])

        def loss():
            return float((layer.forward(x)[0] * r).sum())

        numeric_grad_check(x, grad_in, loss)

    def test_gradient_accumulates(self):
        layer = Linear(2, 2, rng=0)
        x = np.ones((1, 2))
        layer.backward(np.ones((1, 2)), layer.forward(x)[1])
        g1 = layer.weight.grad.copy()
        layer.backward(np.ones((1, 2)), layer.forward(x)[1])
        np.testing.assert_allclose(layer.weight.grad, 2 * g1)

    def test_rejects_nonpositive_dims(self):
        with pytest.raises(ValueError):
            Linear(0, 2)


class TestActivations:
    def test_relu_forward(self):
        out, saved = ReLU().forward(np.array([[-1.0, 0.0, 2.0]]))
        np.testing.assert_array_equal(out, [[0.0, 0.0, 2.0]])
        assert saved is out

    def test_relu_backward_mask(self):
        relu = ReLU()
        _, y = relu.forward(np.array([[-1.0, 3.0]]))
        grad = relu.backward(np.array([[5.0, 5.0]]), y)
        np.testing.assert_array_equal(grad, [[0.0, 5.0]])

    SPECIALS = [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 1.5, -2.0, 1e-300]

    def test_relu_forward_bytes_equal_select(self):
        """NaN, the infinities and both zeros come out byte-equal to the
        ``np.where`` select (NaN -> 0, -0.0 -> +0.0)."""
        rng = np.random.default_rng(0)
        x = np.concatenate([self.SPECIALS * 8, rng.normal(size=200)])
        rng.shuffle(x)
        x = x.reshape(-1, 8)
        out, _ = ReLU().forward(x)
        assert out.tobytes() == np.where(x > 0, x, 0.0).tobytes()

    def test_relu_backward_equals_select_for_finite_grad(self):
        rng = np.random.default_rng(1)
        x = np.concatenate([self.SPECIALS * 4, rng.normal(size=100)]).reshape(-1, 4)
        g = rng.normal(size=x.shape)
        g[0, :2] = [0.0, -0.0]
        relu = ReLU()
        _, y = relu.forward(x)
        np.testing.assert_array_equal(relu.backward(g, y), np.where(x > 0, g, 0.0))

    def test_relu_backward_propagates_nonfinite_grad(self):
        """A non-finite gradient at a masked position is not hidden."""
        relu = ReLU()
        _, y = relu.forward(np.array([[-1.0, -1.0, 2.0]]))
        with np.errstate(invalid="ignore"):  # inf * 0
            grad = relu.backward(np.array([[np.inf, np.nan, 3.0]]), y)
        assert np.isnan(grad[0, :2]).all()
        assert grad[0, 2] == 3.0

    def test_sigmoid_extreme_stability(self):
        out, _ = Sigmoid().forward(np.array([[-1000.0, 0.0, 1000.0]]))
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, [[0.0, 0.5, 1.0]], atol=1e-12)

    def test_sigmoid_gradient(self):
        sig = Sigmoid()
        x = np.linspace(-3, 3, 7).reshape(1, -1)
        r = np.ones_like(x)

        def loss():
            return float((sig.forward(x)[0] * r).sum())

        grad = sig.backward(r, sig.forward(x)[1])
        numeric_grad_check(x, grad, loss, samples=7)

    def test_backward_before_forward_raises(self):
        """No activation holds a mask or an output; a read leaves the
        model no tape, so a backward after a read alone raises."""
        model = tiny_model()
        ds = SyntheticCTRDataset(KAGGLE.scaled(0.0002), seed=0)
        batch = ds.batch(4)
        model.predict_logits(batch.dense, batch.sparse)
        with pytest.raises(RuntimeError, match="before forward"):
            model.backward(np.ones(4))


class TestNaNGuard:
    def test_divergence_raises_immediately(self):
        model = tiny_model()
        # Poison the output layer's bias so logits are NaN. (Poisoning an
        # earlier layer would be masked: ReLU clips NaN to 0 since
        # ``nan > 0`` is False.)
        model.top_mlp.layers[-1].bias.data[:] = np.nan
        trainer = Trainer(model, lr=0.1)
        ds = SyntheticCTRDataset(KAGGLE.scaled(0.0002), seed=0)
        with pytest.raises(FloatingPointError, match="diverged"):
            trainer.train_step(ds.batch(8))

    def test_healthy_training_unaffected(self):
        trainer = Trainer(tiny_model(), lr=0.1)
        ds = SyntheticCTRDataset(KAGGLE.scaled(0.0002), seed=0)
        loss = trainer.train_step(ds.batch(8))
        assert np.isfinite(loss)


class TestMLP:
    def test_stack_shapes(self):
        mlp = MLP([5, 8, 3], rng=0)
        assert mlp.in_features == 5 and mlp.out_features == 3
        out, tape = mlp.forward(np.zeros((2, 5)))
        assert out.shape == (2, 3)
        assert len(tape) == len(mlp.layers)

    def test_rejects_short_sizes(self):
        with pytest.raises(ValueError):
            MLP([4])

    def test_rejects_bad_last(self):
        with pytest.raises(ValueError):
            MLP([4, 2], last="tanh")

    def test_end_to_end_gradient(self):
        rng = np.random.default_rng(3)
        mlp = MLP([4, 6, 2], rng=0)
        x = rng.normal(size=(3, 4))
        r = rng.normal(size=(3, 2))

        def loss():
            return float((mlp.forward(x)[0] * r).sum())

        grad_in = mlp.backward(r, mlp.forward(x)[1])
        for p in mlp.parameters():
            numeric_grad_check(p.data, p.grad, loss, samples=10)
        numeric_grad_check(x, grad_in, loss, samples=10)

    def test_sigmoid_last_layer(self):
        mlp = MLP([3, 2], last="sigmoid", rng=0)
        out, _ = mlp.forward(np.zeros((2, 3)))
        assert np.all((out > 0) & (out < 1))

    def test_parameter_count(self):
        mlp = MLP([4, 6, 2], rng=0)
        assert mlp.num_parameters() == 4 * 6 + 6 + 6 * 2 + 2


class TestBCEWithLogits:
    def test_known_value(self):
        loss, _ = bce_with_logits(np.zeros(4), np.array([0, 1, 0, 1.0]))
        np.testing.assert_allclose(loss, np.log(2.0))

    def test_gradient_formula(self):
        logits = np.array([0.5, -1.0, 2.0])
        targets = np.array([1.0, 0.0, 1.0])
        _, grad = bce_with_logits(logits, targets)
        probs = 1 / (1 + np.exp(-logits))
        np.testing.assert_allclose(grad, (probs - targets) / 3)

    def test_numeric_gradient(self):
        rng = np.random.default_rng(4)
        logits = rng.normal(size=6)
        targets = (rng.random(6) > 0.5).astype(float)
        _, grad = bce_with_logits(logits, targets)

        def loss():
            return bce_with_logits(logits, targets)[0]

        numeric_grad_check(logits, grad, loss, samples=6)

    def test_extreme_logits_finite(self):
        loss, grad = bce_with_logits(np.array([1000.0, -1000.0]), np.array([1.0, 0.0]))
        assert np.isfinite(loss) and np.all(np.isfinite(grad))
        assert loss < 1e-6

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            bce_with_logits(np.zeros(3), np.zeros(4))

    def test_empty_batch(self):
        with pytest.raises(ValueError):
            bce_with_logits(np.zeros(0), np.zeros(0))
