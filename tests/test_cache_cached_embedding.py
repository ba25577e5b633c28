"""Tests for CachedTTEmbeddingBag — the hybrid TT + LFU-cache operator."""

import numpy as np
import pytest

from repro.cache import CachedTTEmbeddingBag
from repro.tt import TTShape
from tests.helpers import numeric_grad_check, random_csr


def make(shape=None, **kwargs):
    shape = shape or TTShape.with_uniform_rank(60, 8, (3, 4, 5), (2, 2, 2), 4)
    defaults = dict(cache_size=8, warmup_steps=3, refresh_interval=None, rng=0)
    defaults.update(kwargs)
    return CachedTTEmbeddingBag(60, 8, shape=shape, **defaults)


class TestLifecycle:
    def test_cold_start_serves_tt(self):
        emb = make()
        idx = np.array([1, 2, 3])
        out = emb.forward(idx)
        np.testing.assert_allclose(out, emb.tt.lookup(idx), atol=1e-12)
        assert not emb.is_warm
        assert emb.hits == 0

    def test_populates_after_warmup(self):
        emb = make(warmup_steps=2)
        for _ in range(3):
            emb.forward(np.array([7, 7, 9]))
        assert emb.is_warm
        assert 7 in emb._cached_ids

    def test_cache_values_initialized_from_tt(self):
        emb = make(warmup_steps=1)
        emb.forward(np.array([5, 5, 6]))
        emb.forward(np.array([5]))  # triggers populate on step 2 >= warmup 1
        assert emb.is_warm
        mask, slots = emb._membership(np.array([5]))
        assert mask[0]
        np.testing.assert_allclose(
            emb.cache_rows.data[slots[0]], emb.tt.lookup(np.array([5]))[0], atol=1e-12
        )

    def test_hit_rate_accounting(self):
        emb = make(warmup_steps=1, cache_size=2)
        emb.forward(np.array([3, 3, 3, 4]))
        emb.forward(np.array([3, 4, 9]))  # populate happened at this step
        emb.forward(np.array([3, 4, 9]))
        assert 0 < emb.hit_rate() < 1
        assert emb.lookups == 10

    def test_refresh_keeps_hot_learned_weights(self):
        emb = make(warmup_steps=1, refresh_interval=2, cache_size=2)
        emb.forward(np.array([3, 3, 4, 4]))
        emb.forward(np.array([3, 4]))  # populate
        mask, slots = emb._membership(np.array([3]))
        emb.cache_rows.data[slots[0]] = 99.0  # simulate learned weights
        emb.forward(np.array([3, 4]))  # step 3
        emb.forward(np.array([3, 4]))  # step 4 -> refresh, 3 still hot
        mask, slots = emb._membership(np.array([3]))
        assert mask[0]
        np.testing.assert_allclose(emb.cache_rows.data[slots[0]], 99.0)

    def test_eviction_discards_learned_weights(self):
        emb = make(warmup_steps=1, refresh_interval=2, cache_size=1)
        emb.forward(np.array([3, 3]))
        emb.forward(np.array([3]))  # populate with {3}
        mask, slots = emb._membership(np.array([3]))
        emb.cache_rows.data[slots[0]] = 99.0
        # Make 4 dominate, force refresh -> 3 evicted.
        emb.forward(np.array([4, 4, 4, 4, 4]))
        cores_before = [core.data.tobytes() for core in emb.tt.cores]
        emb.forward(np.array([4, 4, 4, 4, 4]))  # step 4 -> refresh
        mask, _ = emb._membership(np.array([3]))
        assert not mask[0]
        assert emb.stats()["evictions"] == 1
        # Discarding leaves the cores as they were: nothing is written back.
        assert [core.data.tobytes() for core in emb.tt.cores] == cores_before
        # Row 3 now serves from TT again: learned 99s are gone.
        np.testing.assert_allclose(
            emb.lookup(np.array([3]))[0], emb.tt.lookup(np.array([3]))[0], atol=1e-12
        )

    def test_populate_stats(self):
        emb = make(warmup_steps=0, cache_size=3)
        emb.tracker.record(np.array([1, 1, 2, 2, 3, 3]))
        stats = emb.populate()
        assert stats == {"inserted": 3, "kept": 0, "evicted": 0}
        emb.tracker.record(np.array([4] * 10))
        stats = emb.populate()
        assert stats["inserted"] == 1
        assert stats["kept"] == 2
        assert stats["evicted"] == 1


class TestForwardBackward:
    def test_forward_consistent_with_pure_tt_before_warmup(self):
        emb = make(warmup_steps=100)
        rng = np.random.default_rng(0)
        idx, off = random_csr(rng, 60, 5)
        out = emb.forward(idx, off)
        np.testing.assert_allclose(out, emb.tt.forward(idx, off), atol=1e-12)

    @pytest.mark.parametrize("mode", ["sum", "mean"])
    def test_gradients_mixed_cache_tt(self, mode):
        rng = np.random.default_rng(21)
        emb = make(warmup_steps=1, cache_size=4, mode=mode)
        # Warm the cache on a few hot rows.
        emb.forward(np.array([1, 1, 2, 2]))
        emb.forward(np.array([1]))
        assert emb.is_warm
        idx = np.array([1, 2, 30, 40, 1, 50])  # mix of hits and misses
        off = np.array([0, 2, 4, 6])
        alpha = rng.normal(size=6) if mode == "sum" else None
        r = rng.normal(size=(3, 8))

        def loss():
            return float((emb.forward(idx, off, alpha) * r).sum())

        emb.zero_grad()
        base_lookups = emb.lookups
        emb.forward(idx, off, alpha)
        emb.backward(r)
        for p in emb.tt.cores:
            numeric_grad_check(p.data, p.dense_grad(), loss, samples=10)
        numeric_grad_check(emb.cache_rows.data, emb.cache_rows.dense_grad(), loss, samples=10)

    def test_cached_rows_update_densely(self):
        """After SGD on cache_rows, hits serve the *updated* value while the
        TT cores still hold the old one (the two sets learn separately)."""
        emb = make(warmup_steps=1, cache_size=2)
        emb.forward(np.array([5, 5]))
        emb.forward(np.array([5]))
        assert emb.is_warm
        before_tt = emb.tt.lookup(np.array([5]))[0].copy()
        emb.zero_grad()
        emb.forward(np.array([5]))
        emb.backward(np.ones((1, 8)))
        assert not any(p.dense_grad().any() for p in emb.tt.cores)
        emb.cache_rows.data -= 0.1 * emb.cache_rows.dense_grad()
        after = emb.lookup(np.array([5]))[0]
        assert not np.allclose(after, before_tt)
        np.testing.assert_allclose(emb.tt.lookup(np.array([5]))[0], before_tt)

    def test_double_backward_raises(self):
        """A second backward for one forward would silently double the
        accumulated cache-row and core gradients; it must raise instead."""
        emb = make(warmup_steps=1, cache_size=2)
        emb.forward(np.array([3, 3, 4]))
        emb.forward(np.array([3, 4]))  # warm: backward touches both paths
        idx = np.array([3, 4, 20])
        emb.zero_grad()
        emb.forward(idx)
        emb.backward(np.ones((3, 8)))
        snapshot = [p.dense_grad().copy() for p in emb.tt.cores]
        snapshot.append(emb.cache_rows.dense_grad().copy())
        with pytest.raises(RuntimeError, match="twice"):
            emb.backward(np.ones((3, 8)))
        after = [p.dense_grad() for p in emb.tt.cores] + [emb.cache_rows.dense_grad()]
        for g, s in zip(after, snapshot):
            assert np.array_equal(g, s)  # nothing accumulated by the raise
        # forward -> backward works again afterwards.
        emb.forward(idx)
        emb.backward(np.ones((3, 8)))

    def test_cache_grad_scatter_matches_add_at(self):
        """Duplicate-heavy hit batch: coalesce_rows on cache-row grads
        must agree with the np.add.at oracle it replaced."""
        rng = np.random.default_rng(13)
        emb = make(warmup_steps=1, cache_size=4)
        emb.forward(np.array([1, 1, 2, 2, 3, 3]))
        emb.forward(np.array([1, 2, 3]))
        assert emb.is_warm
        # 30 lookups over 3 hot rows plus a few misses: heavy duplication.
        idx = np.concatenate([rng.choice([1, 2, 3], size=30),
                              np.array([40, 41])]).astype(np.int64)
        rng.shuffle(idx)
        grad = rng.normal(size=(idx.size, 8))
        emb.zero_grad()
        emb.forward(idx)
        emb.backward(grad)
        mask, slots = emb._membership(idx)
        expected = np.zeros_like(emb.cache_rows.dense_grad())
        np.add.at(expected, slots, grad[mask])
        np.testing.assert_allclose(emb.cache_rows.dense_grad(), expected, atol=1e-12)

    def test_validated_read_serves_repaired_row(self):
        """Validation and serving must use the same gather: a row poisoned
        before forward is repaired AND the repaired value is what lands in
        the output (not a stale pre-scrub copy)."""
        emb = make(warmup_steps=1, cache_size=2)
        emb.forward(np.array([5, 5, 6]))
        emb.forward(np.array([5, 6]))
        assert emb.is_warm
        emb.validate_reads = True
        mask, slots = emb._membership(np.array([5]))
        assert mask[0]
        emb.cache_rows.data[slots[0]] = np.nan
        out = emb.forward(np.array([5]))
        assert np.isfinite(out).all()
        np.testing.assert_allclose(out[0], emb.tt.lookup(np.array([5]))[0],
                                   atol=1e-12)
        assert emb.repaired_rows == 1

    def test_every_repair_is_counted_whoever_scrubs(self, tmp_path):
        """``cache.repairs`` equals the summed ``rows`` of the module's
        ``cache.repair`` events for read validation, a direct ``scrub()``
        (what the serving ladder calls) and the divergence guard alike."""
        from repro.reliability.guard import scrub_non_finite
        from repro.telemetry import get_request_tracer, read_events

        emb = make(warmup_steps=1, cache_size=2)
        emb.forward(np.array([5, 5, 6]))
        emb.forward(np.array([5, 6]))
        emb.validate_reads = True
        get_request_tracer().configure(sample_every=0,
                                       path=tmp_path / "stream.jsonl")
        try:
            emb.cache_rows.data[0] = np.nan
            emb.forward(np.array([5, 6]))          # read validation
            emb.cache_rows.data[1] = np.inf
            assert emb.scrub() == 1                # explicit caller
            assert emb.stats()["repairs"] == 2
            emb.cache_rows.data[:2] = np.nan
            assert scrub_non_finite(emb) == 2      # the guard's walk
        finally:
            get_request_tracer().shutdown()
        rows = [e["attrs"]["rows"]
                for e in read_events(tmp_path / "stream.jsonl", "cache.repair")
                if e["attrs"]["module"] == emb.metrics_label]
        assert rows == [1, 1, 2]
        assert emb.repaired_rows == emb.stats()["repairs"] == sum(rows)


class TestConfigValidation:
    def test_cache_fraction_default_paper_value(self):
        emb = CachedTTEmbeddingBag(100_000, 8, rank=2, rng=0)
        assert emb.cache_size == 10  # 0.01% of 100k

    def test_cache_size_clamped_to_rows(self):
        emb = make(cache_size=1000)
        assert emb.cache_size == 60

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            make(cache_size=0)
        with pytest.raises(ValueError):
            make(warmup_steps=-1)
        with pytest.raises(ValueError):
            make(refresh_interval=0)
        with pytest.raises(ValueError):
            CachedTTEmbeddingBag(60, 8, cache_fraction=0.0, rng=0)

    def test_num_parameters_counts_cache(self):
        emb = make(cache_size=8)
        assert emb.num_parameters() == emb.tt.num_parameters() + 8 * 8
        assert emb.compression_ratio() == pytest.approx(
            60 * 8 / emb.num_parameters()
        )


class TestStats:
    def test_stats_structured_dict(self):
        emb = make(warmup_steps=1, cache_size=2)
        emb.forward(np.array([3, 3, 3, 4]))
        emb.forward(np.array([3, 4, 9]))  # populate fires this step
        emb.forward(np.array([3, 4, 9]))
        s = emb.stats()
        assert s["lookups"] == 10
        assert s["hits"] + s["misses"] == s["lookups"]
        assert s["hit_rate"] == pytest.approx(emb.hit_rate())
        assert s["hit_rate"] == pytest.approx(s["hits"] / s["lookups"])
        assert s["insertions"] >= 1 and s["refreshes"] >= 1
        assert s["resident_rows"] <= s["cache_size"] == 2
        assert s["populated"] is True

    def test_stats_cold(self):
        s = make().stats()
        assert s["lookups"] == 0 and s["hits"] == 0
        assert s["hit_rate"] == 0.0
        assert s["populated"] is False

    def test_extra_state_round_trips_every_counter(self):
        """Regression: load_extra_state used to drop misses/insertions/
        evictions/refreshes, breaking ``lookups == hits + misses`` (and the
        Fig. 10/12 instrumentation) after a checkpoint resume."""
        emb = make(warmup_steps=1, cache_size=2, refresh_interval=2)
        for _ in range(5):
            emb.forward(np.array([3, 3, 4, 9]))
        s = emb.stats()
        assert s["misses"] > 0 and s["insertions"] > 0 and s["refreshes"] > 0

        fresh = make(warmup_steps=1, cache_size=2, refresh_interval=2)
        fresh.load_extra_state(emb.extra_state())
        rs = fresh.stats()
        for key in ("lookups", "hits", "misses", "repairs",
                    "insertions", "evictions", "refreshes"):
            assert rs[key] == s[key], key
        assert rs["lookups"] == rs["hits"] + rs["misses"] > 0

    def test_load_extra_state_tolerates_old_checkpoints(self):
        """Checkpoints written before all counters were persisted restore
        what they have and zero the rest (no KeyError)."""
        emb = make(warmup_steps=1, cache_size=2)
        emb.forward(np.array([3, 3, 4]))
        state = emb.extra_state()
        for key in ("misses", "insertions", "evictions", "refreshes"):
            state.pop(key)
        fresh = make(warmup_steps=1, cache_size=2)
        fresh.load_extra_state(state)
        s = fresh.stats()
        assert s["lookups"] == 3 and s["misses"] == 0

    def test_legacy_counter_shims(self):
        """The pre-registry attributes read the registry; only a restore
        (``load_extra_state``) writes the counters from outside."""
        emb = make(warmup_steps=1, cache_size=2)
        emb.forward(np.array([3, 3, 4]))
        assert emb.lookups == 3
        emb.load_extra_state({**emb.extra_state(), "lookups": 7,
                              "repairs": 2})
        assert emb.lookups == emb.stats()["lookups"] == 7
        assert emb.repaired_rows == emb.stats()["repairs"] == 2
        with pytest.raises(AttributeError):
            emb.lookups = 9
