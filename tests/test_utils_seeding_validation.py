"""Tests for RNG plumbing and validation helpers."""

import numpy as np
import pytest

from repro.utils.seeding import as_rng, spawn_rngs
from repro.utils.validation import (
    IndexOutOfRangeError,
    check_1d_int_array,
    check_csr,
    check_positive,
    check_probability,
)


class TestSeeding:
    def test_int_seed_deterministic(self):
        assert as_rng(7).random() == as_rng(7).random()

    def test_generator_passthrough(self):
        g = np.random.default_rng(0)
        assert as_rng(g) is g

    def test_none_gives_generator(self):
        assert isinstance(as_rng(None), np.random.Generator)

    def test_spawn_count_and_independence(self):
        children = spawn_rngs(5, 3)
        assert len(children) == 3
        draws = [c.random() for c in children]
        assert len(set(draws)) == 3

    def test_spawn_deterministic(self):
        a = [g.random() for g in spawn_rngs(9, 4)]
        b = [g.random() for g in spawn_rngs(9, 4)]
        assert a == b

    def test_spawn_rejects_negative(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)


class TestCheckPositive:
    def test_strict(self):
        check_positive("x", 1.0)
        with pytest.raises(ValueError, match="x"):
            check_positive("x", 0.0)

    def test_non_strict(self):
        check_positive("x", 0.0, strict=False)
        with pytest.raises(ValueError):
            check_positive("x", -1.0, strict=False)


class TestCheckProbability:
    @pytest.mark.parametrize("v", [0.0, 0.5, 1.0])
    def test_accepts(self, v):
        check_probability("p", v)

    @pytest.mark.parametrize("v", [-0.01, 1.01, 2.0])
    def test_rejects(self, v):
        with pytest.raises(ValueError):
            check_probability("p", v)


class TestCheck1DIntArray:
    def test_returns_int64(self):
        out = check_1d_int_array("a", np.array([1, 2], dtype=np.int32))
        assert out.dtype == np.int64

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            check_1d_int_array("a", np.zeros((2, 2), dtype=np.int64))

    def test_rejects_float(self):
        with pytest.raises(TypeError):
            check_1d_int_array("a", np.array([1.0, 2.0]))

    def test_bounds(self):
        check_1d_int_array("a", np.array([0, 5]), min_value=0, max_value=5)
        with pytest.raises(ValueError):
            check_1d_int_array("a", np.array([-1]), min_value=0)
        with pytest.raises(ValueError):
            check_1d_int_array("a", np.array([6]), max_value=5)

    def test_empty_ok(self):
        out = check_1d_int_array("a", np.array([], dtype=np.int64), min_value=0)
        assert out.size == 0

    def test_range_violation_is_index_and_value_error(self):
        """Range errors raise IndexOutOfRangeError, which is an IndexError
        for new callers and still a ValueError for existing ones."""
        from repro.utils.validation import IndexOutOfRangeError

        assert issubclass(IndexOutOfRangeError, IndexError)
        assert issubclass(IndexOutOfRangeError, ValueError)
        with pytest.raises(IndexError):
            check_1d_int_array("a", np.array([-1]), min_value=0)
        with pytest.raises(IndexError):
            check_1d_int_array("a", np.array([6]), max_value=5)
        # Non-range failures stay plain ValueError/TypeError.
        with pytest.raises(ValueError) as excinfo:
            check_1d_int_array("a", np.zeros((2, 2), dtype=np.int64))
        assert not isinstance(excinfo.value, IndexError)


class TestCheckCSR:
    def test_valid(self):
        idx = np.array([0, 1, 2], dtype=np.int64)
        off = np.array([0, 2, 3], dtype=np.int64)
        i2, o2 = check_csr(idx, off, num_rows=3)
        assert (i2 == idx).all() and (o2 == off).all()

    def test_empty_bags_allowed(self):
        check_csr(np.array([], dtype=np.int64), np.array([0, 0, 0]), num_rows=5)

    def test_rejects_bad_first_offset(self):
        with pytest.raises(ValueError, match="offsets\\[0\\]"):
            check_csr(np.array([0]), np.array([1, 1]), num_rows=2)

    def test_rejects_bad_last_offset(self):
        with pytest.raises(ValueError, match="offsets\\[-1\\]"):
            check_csr(np.array([0, 1]), np.array([0, 1]), num_rows=2)

    def test_rejects_decreasing(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            check_csr(np.array([0, 1, 0]), np.array([0, 2, 1, 3]), num_rows=2)

    def test_rejects_out_of_range_index(self):
        with pytest.raises(ValueError):
            check_csr(np.array([5]), np.array([0, 1]), num_rows=5)

    def test_rejects_empty_offsets(self):
        with pytest.raises(ValueError, match="at least one element"):
            check_csr(np.array([0]), np.array([], dtype=np.int64), num_rows=2)

    @pytest.mark.parametrize("offsets", [[-1, 1], [0, -1, 2]])
    def test_negative_offset_is_named_before_order(self, offsets):
        """One comparison pass accepts; a rejected array still names its
        first fault, a negative entry ahead of the ordering it also breaks."""
        with pytest.raises(IndexOutOfRangeError, match="below 0: min=-1"):
            check_csr(np.array([0, 1]), np.array(offsets), num_rows=2)

    @pytest.mark.parametrize("offsets,error", [
        (np.array([0.0, 1.0]), TypeError), (np.array([[0, 1]]), ValueError)])
    def test_rejects_offsets_of_the_wrong_kind(self, offsets, error):
        with pytest.raises(error, match="offsets must"):
            check_csr(np.array([0]), offsets, num_rows=2)
