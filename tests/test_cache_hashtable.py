"""Tests for the open-addressing hash table (paper §4.2 frequency tracker)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import OpenAddressingHashTable
from repro.cache.hashtable import splitmix64


class TestSplitmix64:
    def test_deterministic(self):
        keys = np.arange(100, dtype=np.int64)
        np.testing.assert_array_equal(splitmix64(keys), splitmix64(keys))

    def test_no_collisions_on_small_range(self):
        hashes = splitmix64(np.arange(100_000, dtype=np.int64))
        assert np.unique(hashes).size == 100_000

    def test_spreads_low_bits(self):
        """Sequential keys land in different low-bit buckets."""
        hashes = splitmix64(np.arange(4096, dtype=np.int64)) & np.uint64(255)
        counts = np.bincount(hashes.astype(np.int64), minlength=256)
        assert counts.max() < 3 * (4096 // 256)


class TestHashTable:
    def test_add_and_get(self):
        t = OpenAddressingHashTable(16)
        t.add(np.array([3, 5, 3]))
        np.testing.assert_allclose(t.get(np.array([3, 5, 7])), [2.0, 1.0, 0.0])

    def test_amount_vector(self):
        t = OpenAddressingHashTable(16)
        t.add(np.array([1, 1, 2]), np.array([0.5, 0.25, 3.0]))
        np.testing.assert_allclose(t.get(np.array([1, 2])), [0.75, 3.0])

    def test_scalar_amount(self):
        t = OpenAddressingHashTable(16)
        t.add(np.array([4, 4]), 2.0)
        np.testing.assert_allclose(t.get(np.array([4])), [4.0])

    def test_rejects_negative_keys(self):
        t = OpenAddressingHashTable(16)
        with pytest.raises(ValueError):
            t.add(np.array([-1]))

    def test_rejects_amount_length_mismatch(self):
        t = OpenAddressingHashTable(16)
        with pytest.raises(ValueError):
            t.add(np.array([1, 2]), np.array([1.0]))

    def test_growth_preserves_contents(self):
        t = OpenAddressingHashTable(8)
        keys = np.arange(1000, dtype=np.int64)
        t.add(keys)
        assert len(t) == 1000
        assert t.capacity >= 1000
        np.testing.assert_allclose(t.get(keys), 1.0)

    def test_items_roundtrip(self):
        t = OpenAddressingHashTable(64)
        t.add(np.array([10, 20, 30]), np.array([1.0, 2.0, 3.0]))
        keys, values = t.items()
        order = np.argsort(keys)
        np.testing.assert_array_equal(keys[order], [10, 20, 30])
        np.testing.assert_allclose(values[order], [1, 2, 3])

    def test_top_k(self):
        t = OpenAddressingHashTable(64)
        t.add(np.repeat(np.array([7, 8, 9]), [5, 2, 9]))
        keys, values = t.top_k(2)
        np.testing.assert_array_equal(keys, [9, 7])
        np.testing.assert_allclose(values, [9.0, 5.0])

    def test_top_k_tie_break_deterministic(self):
        t = OpenAddressingHashTable(64)
        t.add(np.array([5, 3, 9]))  # all count 1
        keys, _ = t.top_k(2)
        np.testing.assert_array_equal(keys, [3, 5])

    def test_top_k_edge_cases(self):
        t = OpenAddressingHashTable(16)
        assert t.top_k(3)[0].size == 0
        t.add(np.array([1]))
        keys, _ = t.top_k(100)
        np.testing.assert_array_equal(keys, [1])
        assert t.top_k(0)[0].size == 0

    def test_get_empty_input(self):
        t = OpenAddressingHashTable(16)
        assert t.get(np.array([], dtype=np.int64)).size == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            OpenAddressingHashTable(0)
        with pytest.raises(ValueError):
            OpenAddressingHashTable(16, load_factor=0.99)

    @given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=0, max_size=500),
           st.integers(min_value=8, max_value=64))
    @settings(max_examples=60, deadline=None)
    def test_matches_bincount_oracle(self, keys, cap):
        """Property: the table agrees with a plain counting dict."""
        t = OpenAddressingHashTable(cap)
        arr = np.asarray(keys, dtype=np.int64)
        # split into a few batches to exercise incremental adds
        for chunk in np.array_split(arr, 3):
            if chunk.size:
                t.add(chunk)
        expected: dict[int, int] = {}
        for k in keys:
            expected[k] = expected.get(k, 0) + 1
        probe = np.asarray(sorted(set(keys)) + [10_001], dtype=np.int64)
        got = t.get(probe)
        for k, v in zip(probe, got):
            assert v == expected.get(int(k), 0)
        assert len(t) == len(expected)

    def test_forced_collisions_match_dict(self):
        """Capacity 8 and four keys whose probes all start at one slot: the
        upserts that find their key (``match``) add into distinct slots, so
        the indexed ``+=`` equals a dict, batch after batch."""
        t = OpenAddressingHashTable(8, load_factor=0.95)
        home = splitmix64(np.arange(10_000, dtype=np.int64)) & np.uint64(7)
        keys = np.flatnonzero(home == home[0])[:4]
        assert keys.size == 4
        rng = np.random.default_rng(0)
        want: dict[int, float] = {}
        # Later batches carry at most three distinct keys, so the table
        # never grows out of the collision.
        batches = [np.repeat(keys, 2)]
        batches += [rng.choice(rng.permutation(keys)[:3], size=7) for _ in range(8)]
        for batch in batches:
            amounts = rng.integers(1, 5, size=batch.size).astype(float)
            t.add(batch, amounts)
            for k, a in zip(batch.tolist(), amounts.tolist()):
                want[k] = want.get(k, 0.0) + a
        assert t.capacity == 8 and len(t) == len(want)
        got = t.get(np.array(sorted(want)))
        assert dict(zip(sorted(want), got.tolist())) == want

    def test_adversarial_same_slot_keys(self):
        """Many keys, tiny table: forces heavy probing and growth."""
        t = OpenAddressingHashTable(8, load_factor=0.5)
        keys = np.arange(0, 4096, 1, dtype=np.int64)
        t.add(keys)
        t.add(keys)
        np.testing.assert_allclose(t.get(keys), 2.0)
