"""Tests for the LFU tracker and its policy variants."""

import numpy as np
import pytest

from repro.cache import LFUTracker


class TestLFUPolicy:
    def test_top_k_orders_by_frequency(self):
        t = LFUTracker()
        t.record(np.repeat(np.array([1, 2, 3]), [5, 10, 1]))
        np.testing.assert_array_equal(t.top_k(2), [2, 1])

    def test_accumulates_across_batches(self):
        t = LFUTracker()
        t.record(np.array([4, 4]))
        t.record(np.array([5, 5, 5]))
        np.testing.assert_array_equal(t.top_k(1), [5])
        np.testing.assert_allclose(t.count(np.array([4, 5])), [2, 3])

    def test_empty_record_is_noop(self):
        t = LFUTracker()
        t.record(np.array([], dtype=np.int64))
        assert len(t) == 0
        assert t.total_accesses == 0

    def test_total_accesses(self):
        t = LFUTracker()
        t.record(np.array([1, 2, 3]))
        t.record(np.array([1]))
        assert t.total_accesses == 4


class TestLRUPolicy:
    def test_recency_wins_over_frequency(self):
        t = LFUTracker(policy="lru")
        t.record(np.array([1, 1, 1, 1]))  # old but frequent
        t.record(np.array([2]))
        t.record(np.array([3]))
        # Most recent first: 3, then 2; the frequent-but-old 1 is last.
        np.testing.assert_array_equal(t.top_k(2), [3, 2])

    def test_re_access_refreshes(self):
        t = LFUTracker(policy="lru")
        t.record(np.array([1]))
        t.record(np.array([2]))
        t.record(np.array([1]))
        np.testing.assert_array_equal(t.top_k(1), [1])


class TestStaticPolicy:
    def test_freeze_stops_updates(self):
        t = LFUTracker(policy="static")
        t.record(np.array([1, 1]))
        t.freeze()
        t.record(np.array([2, 2, 2, 2]))
        np.testing.assert_array_equal(t.top_k(1), [1])
        # clock/accesses still advance for bookkeeping
        assert t.total_accesses == 6


class TestValidation:
    def test_bad_policy(self):
        with pytest.raises(ValueError):
            LFUTracker(policy="fifo")
