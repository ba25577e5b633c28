"""Tests for Parameter/Module bookkeeping and the optimizers."""

import numpy as np
import pytest

from repro.ops import Adagrad, Linear, SparseSGD
from repro.ops.module import Module, Parameter, coalesce_rows, walk
from repro.ops.optim import RowWiseAdagrad


class TestParameter:
    def test_grad_starts_zero(self):
        p = Parameter(np.ones((2, 3)))
        assert p.grad.shape == (2, 3)
        assert not p.grad.any()

    def test_sparse_grad_starts_without_pair(self):
        p = Parameter(np.ones((4, 2)), sparse=True)
        assert p.grad is None
        assert not p.dense_grad().any()

    def test_zero_grad_drops_the_pair(self):
        p = Parameter(np.ones((4, 2)), sparse=True)
        p.accumulate(np.array([1, 3]), np.ones((2, 2)))
        p.zero_grad()
        assert p.grad is None

    def test_accumulate_merges_pairs(self):
        p = Parameter(np.ones((5, 1)), sparse=True)
        p.accumulate(*coalesce_rows(np.array([3, 1, 3]), np.array([[1.0], [2.0], [4.0]])))
        p.accumulate(np.array([0, 3]), np.array([[8.0], [16.0]]))
        assert p.grad.rows.dtype == np.int64
        np.testing.assert_array_equal(p.grad.rows, [0, 1, 3])
        np.testing.assert_array_equal(p.grad.values, [[8.0], [2.0], [21.0]])
        np.testing.assert_array_equal(p.dense_grad()[:, 0], [8, 2, 0, 21, 0])

    def test_empty_pair_is_no_gradient(self):
        p = Parameter(np.ones((3, 2)), sparse=True)
        p.accumulate(*coalesce_rows(np.array([], dtype=np.int64), np.zeros((0, 2))))
        assert p.grad is None

    def test_accumulate_rejects_misshaped_values(self):
        p = Parameter(np.ones((3, 2)), sparse=True)
        with pytest.raises(ValueError):
            p.accumulate(np.array([0, 1]), np.ones((2, 3)))

    def test_data_is_float64_contiguous(self):
        p = Parameter(np.ones((2, 2), dtype=np.float32).T)
        assert p.data.dtype == np.float64
        assert p.data.flags.c_contiguous


class TestModule:
    def test_collects_nested_and_lists(self):
        class Inner(Module):
            def __init__(self):
                self.w = Parameter(np.zeros(2), name="inner.w")

        class Outer(Module):
            def __init__(self):
                self.a = Parameter(np.zeros(3), name="a")
                self.inner = Inner()
                self.items = [Inner(), Parameter(np.zeros(1), name="loose")]

        params = Outer().parameters()
        assert {p.name for p in params} == {"a", "inner.w", "loose"}
        # one inner.w from the attr, one from the list
        assert len(params) == 4

    def test_shared_parameter_collected_once(self):
        shared = Parameter(np.zeros(2), name="shared")

        class M(Module):
            def __init__(self):
                self.a = shared
                self.b = shared

        assert len(M().parameters()) == 1

    def test_walk_is_depth_first_with_paths(self):
        class Inner(Module):
            def __init__(self):
                self.w = Parameter(np.zeros(2), name="w")

        class Outer(Module):
            def __init__(self):
                self.a = Parameter(np.zeros(3), name="a")
                self.inner = Inner()
                self.items = [Inner(), Parameter(np.zeros(1), name="loose")]
                self.again = self.inner  # reached twice, yielded once

        root = Outer()
        assert [path for path, _ in walk(root)] == [
            "", "a", "inner", "inner.w", "items.0", "items.0.w", "items.1"]
        assert dict(walk(root))["inner"] is root.inner
        assert root.parameters() == [node for _, node in walk(root)
                                     if isinstance(node, Parameter)]

    def test_num_parameters_and_bytes(self):
        layer = Linear(3, 4, rng=0)
        assert layer.num_parameters() == 3 * 4 + 4
        assert layer.bytes() == 4 * (3 * 4 + 4)

    def test_zero_grad_all(self):
        layer = Linear(2, 2, rng=0)
        layer.weight.grad += 1.0
        layer.zero_grad()
        assert not layer.weight.grad.any()


def _read_only_sparse(shape):
    """A sparse parameter whose ``data`` raises on any write."""
    p = Parameter(np.ones(shape), sparse=True)
    p.data.flags.writeable = False
    return p


class TestSparseSGD:
    def test_rejects_bad_lr(self):
        p = Parameter(np.zeros(1))
        with pytest.raises(ValueError, match="lr"):
            SparseSGD([p], lr=0.0)

    def test_zero_grad(self):
        dense = Parameter(np.zeros(2))
        dense.grad += 3.0
        sparse = Parameter(np.ones((4, 2)), sparse=True)
        sparse.accumulate(np.array([1]), np.ones((1, 2)))
        SparseSGD([dense, sparse], lr=0.1).zero_grad()
        assert not dense.grad.any()
        assert sparse.grad is None

    def test_updates_only_pair_rows(self):
        p = Parameter(np.ones((4, 2)), sparse=True)
        p.accumulate(np.array([1, 2]), np.ones((2, 2)))
        SparseSGD([p], lr=0.5).step()
        np.testing.assert_allclose(p.data[0], [1.0, 1.0])
        np.testing.assert_allclose(p.data[1], [0.5, 0.5])
        np.testing.assert_allclose(p.data[3], [1.0, 1.0])

    @pytest.mark.parametrize("rows", [[0, 1, 2, 3, 4], [0, 2, 3]])
    def test_bytes_equal_fancy_index_update(self, rows):
        """A pair covering every row updates in place; a strict subset by
        fancy index. Both give the bytes of ``data[rows] -= lr * g``."""
        rng = np.random.default_rng(len(rows))
        data = rng.normal(size=(5, 2, 3))
        rows = np.array(rows, dtype=np.int64)
        g = rng.normal(size=(rows.size, 2, 3))
        p = Parameter(data.copy(), sparse=True)
        p.accumulate(rows, g)
        SparseSGD([p], lr=0.3).step()
        want = data.copy()
        want[rows] -= 0.3 * g
        assert p.data.tobytes() == want.tobytes()

    def test_dense_fallback(self):
        p = Parameter(np.ones(3), sparse=False)
        p.grad[:] = 1.0
        SparseSGD([p], lr=0.5).step()
        np.testing.assert_allclose(p.data, 0.5)

    def test_sparse_without_pair_is_not_walked(self):
        """No pair, no work: an untouched table (a cache before its first
        populate, all-empty bags) is not written, not even with zeros."""
        p = _read_only_sparse((3, 2))
        SparseSGD([p], lr=1.0).step()
        RowWiseAdagrad([p], lr=1.0).step()
        Adagrad([p], lr=1.0).step()
        np.testing.assert_array_equal(p.data, 1.0)


class TestAdagrad:
    def test_first_step_is_lr_sign(self):
        p = Parameter(np.array([0.0]))
        p.grad[:] = 2.0
        Adagrad([p], lr=0.1).step()
        np.testing.assert_allclose(p.data, [-0.1], atol=1e-8)

    def test_accumulator_shrinks_steps(self):
        p = Parameter(np.array([0.0]))
        opt = Adagrad([p], lr=0.1)
        p.grad[:] = 1.0
        opt.step()
        first = abs(p.data[0])
        before = p.data[0]
        opt.step()
        second = abs(p.data[0] - before)
        assert second < first

    def test_sparse_pair_rows_only(self):
        p = Parameter(np.zeros((3, 1)), sparse=True)
        p.accumulate(np.array([2]), np.ones((1, 1)))
        opt = Adagrad([p], lr=0.1)
        opt.step()
        assert p.data[0, 0] == 0.0
        assert p.data[2, 0] != 0.0
        np.testing.assert_array_equal(opt.state_dict()["accum.0"][:, 0], [0, 0, 1])


class TestOptimizerState:
    def _stepped(self, make):
        params = [Parameter(np.zeros(2)) for _ in range(3)]
        opt = make(params)
        for p in params:
            p.grad[:] = 1.0
        opt.step()
        return opt

    def test_slot_keys_by_parameter_index(self):
        opt = self._stepped(lambda ps: Adagrad(ps, lr=0.1))
        assert list(opt.state_dict()) == ["lr", "eps",
                                          "accum.0", "accum.1", "accum.2"]
        assert opt.state_dict()["accum.1"] is not opt.slots[1]["accum"]

    @pytest.mark.parametrize("cls", [Adagrad, RowWiseAdagrad])
    def test_adagrad_keeps_an_accumulator_the_state_lacks(self, cls):
        opt = self._stepped(lambda ps: cls(ps, lr=0.1))
        state = opt.state_dict()
        del state["accum.0"], state["accum.2"]
        state["accum.1"][:] = 7.0
        opt.load_state_dict(state)
        np.testing.assert_array_equal(opt.slots[0]["accum"], 1.0)
        np.testing.assert_array_equal(opt.slots[1]["accum"], 7.0)
