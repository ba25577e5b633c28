"""Chaos suite: fault injection, checkpoint/resume, guard, degraded collectives.

The convergence-equivalence tests enforce the reliability acceptance
criterion: a run with injected gradient/collective/cache faults under the
default guard policy must finish within 1% of the fault-free final
smoothed loss. The kill/resume tests enforce bit-exactness: a run killed
at an arbitrary iteration and resumed from its newest checkpoint must
reproduce the uninterrupted run's parameters bit-for-bit.
"""

import json
import os

import numpy as np
import pytest

from repro.data import DatasetSpec, SyntheticCTRDataset
from repro.distributed import CollectiveError, Communicator, DataParallelTrainer
from repro.models import DLRMConfig, TTConfig, build_dlrm, build_ttrec
from repro.models.serialization import named_modules, state_dict
from repro.ops.loss import bce_with_logits
from repro.ops.optim import SGD, Adagrad, RowWiseAdagrad, SparseSGD
from repro.reliability import (
    CheckpointManager,
    DivergenceGuard,
    FaultInjector,
    FaultSpec,
    GuardPolicy,
)
from repro.reliability.checkpoint import CheckpointError
from repro.reliability.guard import scrub_non_finite
from repro.reliability.sanitizer import NumericFaultError, NumericSanitizer
from repro.training import Trainer

SIZES = (400, 60, 300, 200)
CFG = DLRMConfig(table_sizes=SIZES, num_dense=5, emb_dim=8,
                 bottom_mlp=(8,), top_mlp=(16,))
TT = TTConfig(rank=4, use_cache=True, warmup_steps=5, refresh_interval=25,
              cache_fraction=0.1)


def tiny_model(rng=0, cache=True):
    tt = TT if cache else TTConfig(rank=4)
    return build_ttrec(CFG, num_tt_tables=2, tt=tt, min_rows=150, rng=rng)


def tiny_stream(seed=0):
    spec = DatasetSpec(name="tiny", table_sizes=SIZES, num_dense=5, emb_dim=8)
    return SyntheticCTRDataset(spec, seed=seed, noise=0.6)


# --------------------------------------------------------------------- #
# FaultInjector
# --------------------------------------------------------------------- #

class TestFaultInjector:
    def test_same_seed_same_schedule(self):
        def schedule(seed):
            inj = FaultInjector(seed=seed).register("trainer.grad", 0.3)
            return [inj.fires("trainer.grad") for _ in range(200)]

        assert schedule(42) == schedule(42)
        assert schedule(42) != schedule(43)

    def test_unregistered_site_consumes_no_rng(self):
        inj = FaultInjector(seed=0).register("trainer.grad", 0.5)
        ref = FaultInjector(seed=0).register("trainer.grad", 0.5)
        draws = []
        for i in range(100):
            if i % 3 == 0:
                assert not inj.fires("collective.drop")  # unregistered
            draws.append(inj.fires("trainer.grad"))
        assert draws == [ref.fires("trainer.grad") for _ in range(100)]

    def test_counters(self):
        inj = FaultInjector(seed=1).register("cache.row", 1.0)
        arr = np.ones(8)
        assert inj.corrupt("cache.row", arr)
        assert inj.attempts["cache.row"] == 1
        assert inj.fired["cache.row"] == 1
        assert inj.total_fired == 1
        assert inj.counters() == {"cache.row": {"attempts": 1, "fired": 1}}

    @pytest.mark.parametrize("kind,check", [
        ("nan", lambda a: np.isnan(a).sum() == 2),
        ("inf", lambda a: np.isinf(a).sum() == 2),
        ("zero", lambda a: (a == 0).sum() == 2),
        ("scale", lambda a: (np.abs(a) > 1e29).sum() == 2),
    ])
    def test_corruption_kinds(self, kind, check):
        inj = FaultInjector(seed=2)
        spec = FaultSpec("x", 1.0, kind=kind, max_elements=2)
        arr = np.ones(16)
        inj.apply(spec, arr)
        assert check(arr)

    def test_bitflip_changes_bits_not_shape(self):
        inj = FaultInjector(seed=3)
        arr = np.full(32, 1.5)
        inj.apply(FaultSpec("x", 1.0, kind="bitflip", max_elements=4), arr)
        assert (arr != 1.5).sum() == 4

    def test_validation(self):
        with pytest.raises(ValueError, match="probability"):
            FaultSpec("x", 1.5)
        with pytest.raises(ValueError, match="kind"):
            FaultSpec("x", 0.5, kind="gremlin")
        with pytest.raises(ValueError, match="probability is required"):
            FaultInjector().register("x")


# --------------------------------------------------------------------- #
# CheckpointManager
# --------------------------------------------------------------------- #

class TestCheckpointManager:
    def test_save_verify_load(self, tmp_path):
        model = tiny_model()
        mgr = CheckpointManager(tmp_path)
        mgr.save(10, model, losses=[0.7, 0.6])
        assert mgr.verify(10)
        ck = mgr.load()
        assert ck.step == 10
        assert ck.losses == [0.7, 0.6]
        for key, value in state_dict(model).items():
            np.testing.assert_array_equal(ck.arrays[f"model/{key}"], value)

    def test_retention(self, tmp_path):
        model = tiny_model()
        mgr = CheckpointManager(tmp_path, keep=2)
        for step in (5, 10, 15, 20):
            mgr.save(step, model)
        assert mgr.steps() == [15, 20]

    def test_torn_payload_skipped(self, tmp_path):
        """A truncated payload fails checksum; resume falls back."""
        model = tiny_model()
        mgr = CheckpointManager(tmp_path, keep=3)
        mgr.save(10, model)
        mgr.save(20, model)
        with open(mgr.payload_path(20), "r+b") as fh:
            fh.truncate(100)  # simulated mid-write crash / torn file
        assert not mgr.verify(20)
        assert mgr.latest_step() == 10
        assert mgr.load().step == 10

    def test_payload_without_manifest_is_absent(self, tmp_path):
        """Crash between the two renames: payload exists, manifest doesn't."""
        model = tiny_model()
        mgr = CheckpointManager(tmp_path)
        mgr.save(10, model)
        mgr.save(20, model)
        os.remove(mgr.manifest_path(20))
        assert mgr.steps() == [10]
        assert mgr.latest_step() == 10

    def test_stray_tmp_ignored(self, tmp_path):
        model = tiny_model()
        mgr = CheckpointManager(tmp_path)
        mgr.save(10, model)
        with open(mgr.payload_path(20) + ".tmp", "wb") as fh:
            fh.write(b"half-written garbage")
        assert mgr.latest_step() == 10

    def test_no_checkpoint_raises(self, tmp_path):
        with pytest.raises(CheckpointError, match="no valid checkpoint"):
            CheckpointManager(tmp_path).load()

    def test_optimizer_type_mismatch(self, tmp_path):
        model = tiny_model(cache=False)
        mgr = CheckpointManager(tmp_path)
        mgr.save(1, model, optimizer=Adagrad(model.parameters(), lr=0.1))
        with pytest.raises(CheckpointError, match="Adagrad"):
            mgr.restore(model, optimizer=SparseSGD(model.parameters(), lr=0.1))

    def test_rng_roundtrip(self, tmp_path):
        model = tiny_model(cache=False)
        rng = np.random.default_rng(7)
        rng.random(13)  # advance
        mgr = CheckpointManager(tmp_path)
        mgr.save(1, model, rng=rng)
        expected = rng.random(5)
        rng2 = np.random.default_rng(0)
        mgr.restore(tiny_model(cache=False), rng=rng2)
        np.testing.assert_array_equal(rng2.random(5), expected)


class TestOptimizerState:
    def _grads(self, model, seed=0):
        rng = np.random.default_rng(seed)
        for p in model.parameters():
            p.grad[...] = rng.normal(size=p.data.shape)

    @pytest.mark.parametrize("make", [
        lambda ps: SGD(ps, lr=0.05, momentum=0.9),
        lambda ps: SparseSGD(ps, lr=0.05),
        lambda ps: Adagrad(ps, lr=0.05),
        lambda ps: RowWiseAdagrad(ps, lr=0.05),
    ])
    def test_roundtrip_continues_identically(self, make):
        """opt state saved after N steps -> restored copy takes the same
        N+1th step as the original."""
        a, b = tiny_model(rng=0, cache=False), tiny_model(rng=0, cache=False)
        opt_a, opt_b = make(a.parameters()), make(b.parameters())
        for step in range(3):
            self._grads(a, seed=step)
            opt_a.step()
        opt_b.load_state_dict(opt_a.state_dict())
        for p_a, p_b in zip(a.parameters(), b.parameters()):
            p_b.data[...] = p_a.data
        self._grads(a, seed=99)
        self._grads(b, seed=99)
        opt_a.step()
        opt_b.step()
        for p_a, p_b in zip(a.parameters(), b.parameters()):
            np.testing.assert_array_equal(p_a.data, p_b.data)


# --------------------------------------------------------------------- #
# Bit-exact kill/resume
# --------------------------------------------------------------------- #

class TestKillResume:
    def _params(self, model):
        return [p.data.copy() for p in model.parameters()]

    def test_resume_is_bit_identical(self, tmp_path):
        """Uninterrupted 60-iter run == run killed at 47 and resumed from
        the step-30 checkpoint, including cache and optimizer state."""
        def fresh():
            model = tiny_model(rng=3)
            return model, Trainer(model,
                                  optimizer=Adagrad(model.parameters(), lr=0.05))

        # Uninterrupted reference.
        model_a, tr_a = fresh()
        res_a = tr_a.train(tiny_stream(seed=11).batches(32, 60))

        # Killed run: checkpoints every 30, dies after iteration 47.
        model_b, tr_b = fresh()
        tr_b.train(tiny_stream(seed=11).batches(32, 47),
                   checkpoint_every=30, checkpoint_dir=tmp_path)

        # Resume in a brand-new process-equivalent: fresh model, fresh
        # stream, restore from the newest checkpoint.
        model_c, tr_c = fresh()
        res_c = tr_c.train(tiny_stream(seed=11).batches(32, 60),
                           checkpoint_every=30, checkpoint_dir=tmp_path,
                           resume_from=tmp_path)
        assert res_c.start_iteration == 30
        assert res_c.iterations == res_a.iterations == 60
        assert res_c.losses == res_a.losses
        for p_a, p_c in zip(self._params(model_a), self._params(model_c)):
            np.testing.assert_array_equal(p_a, p_c)
        # Cache bookkeeping restored too, not just parameters.
        for (_, m_a), (_, m_c) in zip(named_modules(model_a),
                                      named_modules(model_c)):
            if hasattr(m_a, "extra_state"):
                ea, ec = m_a.extra_state(), m_c.extra_state()
                assert ea.keys() == ec.keys()
                for key in ea:
                    np.testing.assert_array_equal(np.asarray(ea[key]),
                                                  np.asarray(ec[key]))

    def test_resume_preserves_cache_stats_invariant(self, tmp_path):
        """Regression: resume used to drop the misses/insertions/evictions/
        refreshes counters, so a resumed run violated the accounting
        invariant ``lookups == hits + misses`` that the Fig. 10/12
        instrumentation reads."""
        from repro.cache import CachedTTEmbeddingBag

        def fresh():
            model = tiny_model(rng=3)
            return model, Trainer(model,
                                  optimizer=Adagrad(model.parameters(), lr=0.05))

        model_a, tr_a = fresh()
        tr_a.train(tiny_stream(seed=11).batches(32, 60))

        model_b, tr_b = fresh()
        tr_b.train(tiny_stream(seed=11).batches(32, 47),
                   checkpoint_every=30, checkpoint_dir=tmp_path)
        model_c, tr_c = fresh()
        tr_c.train(tiny_stream(seed=11).batches(32, 60),
                   checkpoint_every=30, checkpoint_dir=tmp_path,
                   resume_from=tmp_path)

        cached = [(name, m) for name, m in named_modules(model_c)
                  if isinstance(m, CachedTTEmbeddingBag)]
        assert cached  # the model under test must actually exercise this
        by_name = dict(named_modules(model_a))
        for name, mod in cached:
            s = mod.stats()
            assert s["lookups"] == s["hits"] + s["misses"] > 0, name
            ref = by_name[name].stats()
            for key in ("lookups", "hits", "misses", "repairs",
                        "insertions", "evictions", "refreshes"):
                assert s[key] == ref[key], (name, key)

    def test_checkpoint_every_requires_dir(self):
        model = tiny_model(cache=False)
        with pytest.raises(ValueError, match="checkpoint_dir"):
            Trainer(model).train(tiny_stream().batches(16, 4),
                                 checkpoint_every=2)


# --------------------------------------------------------------------- #
# DivergenceGuard
# --------------------------------------------------------------------- #

class TestDivergenceGuard:
    def test_skip_on_nonfinite(self):
        guard = DivergenceGuard()
        ok = np.zeros(4)
        assert guard.admit(0.5, ok)
        assert not guard.admit(float("nan"), ok)
        assert not guard.admit(0.5, np.array([1.0, np.inf]))
        assert guard.events["skipped_batches"] == 2

    def test_raise_mode(self):
        guard = DivergenceGuard(GuardPolicy(on_nonfinite="raise"))
        with pytest.raises(FloatingPointError, match="diverged"):
            guard.admit(float("inf"), np.zeros(2))

    def test_max_skips_bounds_the_ladder(self):
        guard = DivergenceGuard(GuardPolicy(max_skips=3))
        for _ in range(3):
            guard.admit(float("nan"), np.zeros(1))
        with pytest.raises(FloatingPointError, match="diverged"):
            guard.admit(float("nan"), np.zeros(1))

    def test_isolated_faults_never_back_off_lr(self):
        """backoff_after=2: a lone bad batch between healthy ones leaves
        the learning rate untouched."""
        guard = DivergenceGuard(GuardPolicy(backoff_after=2))
        opt = SGD([], lr=0.1)
        for _ in range(10):
            guard.admit(0.5, np.zeros(1), optimizer=opt)
            guard.admit(float("nan"), np.zeros(1), optimizer=opt)
        assert opt.lr == 0.1
        assert guard.events["lr_backoffs"] == 0

    def test_consecutive_failures_back_off_and_recover(self):
        pol = GuardPolicy(backoff_after=2, lr_backoff=0.5, max_backoffs=3,
                          recovery_steps=4, max_skips=100)
        guard = DivergenceGuard(pol)
        opt = SGD([], lr=0.1)
        guard.admit(float("nan"), np.zeros(1), optimizer=opt)
        assert opt.lr == 0.1  # first failure: streak 1 < backoff_after
        guard.admit(float("nan"), np.zeros(1), optimizer=opt)
        assert opt.lr == pytest.approx(0.05)  # second consecutive: backoff
        for _ in range(4):
            guard.admit(0.4, np.zeros(1), optimizer=opt)
        assert opt.lr == pytest.approx(0.1)  # restored after recovery_steps
        assert guard.events["lr_restores"] == 1

    def test_scrub_repairs_params(self):
        model = tiny_model(cache=False)
        p = model.parameters()[0]
        p.data.reshape(-1)[:3] = np.nan
        fixed = scrub_non_finite(model)
        assert fixed == 3
        assert all(np.isfinite(q.data).all() for q in model.parameters())

    def test_rollback_on_sustained_spike(self):
        pol = GuardPolicy(spike_window=5, spike_factor=2.0, spike_patience=3)
        guard = DivergenceGuard(pol)
        losses = [0.1] * 10
        assert not guard.wants_rollback(losses)
        hits = 0
        for _ in range(5):
            losses.append(5.0)
            if guard.wants_rollback(losses):
                hits += 1
        assert hits == 1
        assert guard.events["rollbacks"] == 1

    def test_policy_validation(self):
        with pytest.raises(ValueError, match="on_nonfinite"):
            GuardPolicy(on_nonfinite="explode")
        with pytest.raises(ValueError, match="lr_backoff"):
            GuardPolicy(lr_backoff=1.5)
        with pytest.raises(ValueError, match="spike_factor"):
            GuardPolicy(spike_factor=0.9)

    def test_unguarded_trainer_still_fails_fast(self):
        """Legacy contract: no guard -> FloatingPointError on the spot."""
        model = tiny_model(cache=False)
        inj = FaultInjector(seed=0).register("trainer.grad", 1.0)
        trainer = Trainer(model, injector=inj)
        ds = tiny_stream(seed=1)
        # The injected NaN lands in the loss gradient; without a guard the
        # unprotected step corrupts parameters and the next loss is NaN.
        with pytest.raises(FloatingPointError):
            for _ in range(3):
                trainer.train_step(ds.batch(16))


# --------------------------------------------------------------------- #
# Degraded-mode collectives
# --------------------------------------------------------------------- #

class TestDegradedCollectives:
    def test_corruption_detected_and_retried(self):
        inj = FaultInjector(seed=0).register("collective.payload", 1.0,
                                             kind="bitflip")
        comm = Communicator(2, injector=inj, max_retries=2)
        with pytest.raises(CollectiveError, match="failed the collective"):
            comm.allreduce_mean([np.ones(8), np.ones(8)])
        assert comm.events["corruptions_detected"] > 0
        assert comm.events["retries"] > 0

    def test_dropped_worker_renormalises_mean(self):
        class DropRank0:
            def __init__(self):
                self.calls = 0

            def fires(self, site):
                if site != "collective.drop":
                    return False
                self.calls += 1
                return self.calls == 1  # only rank 0, first probe

            def corrupt(self, site, arr):
                return False

        comm = Communicator(3, injector=DropRank0())
        out = comm.allreduce_mean(
            [np.full(4, 9.0), np.full(4, 1.0), np.full(4, 3.0)])
        np.testing.assert_allclose(out, 2.0)  # mean of survivors {1, 3}
        assert comm.last_dropped == [0]
        assert comm.events["workers_dropped"] == 1
        assert comm.events["degraded_collectives"] == 1

    def test_dropped_worker_rescales_sum(self):
        class DropRank2:
            def __init__(self):
                self.calls = 0

            def fires(self, site):
                if site != "collective.drop":
                    return False
                self.calls += 1
                return self.calls == 3

            def corrupt(self, site, arr):
                return False

        comm = Communicator(3, injector=DropRank2())
        out = comm.allreduce_sum(
            [np.full(2, 1.0), np.full(2, 2.0), np.full(2, 100.0)])
        # survivors sum 3, rescaled by K/survivors = 3/2.
        np.testing.assert_allclose(out, 4.5)

    def test_allgather_returns_survivors(self):
        inj = FaultInjector(seed=5).register("collective.drop", 0.5)
        comm = Communicator(4, injector=inj)
        bufs = [np.full(2, float(r)) for r in range(4)]
        out = comm.allgather(bufs)
        assert 1 <= len(out) <= 4
        assert len(out) + len(comm.last_dropped) == 4

    def test_all_fail_then_restart_succeeds(self):
        class FailFirstRound:
            def __init__(self):
                self.round = 0

            def fires(self, site):
                if site != "collective.drop":
                    return False
                self.round += 1
                return self.round <= 2  # both ranks drop in round one

            def corrupt(self, site, arr):
                return False

        comm = Communicator(2, injector=FailFirstRound())
        out = comm.allreduce_mean([np.ones(3), np.ones(3)])
        np.testing.assert_allclose(out, 1.0)
        assert comm.events["collective_restarts"] == 1

    def test_dtype_preserved(self):
        """Satellite: float32 gradients stay float32 through allreduce."""
        comm = Communicator(2)
        bufs = [np.ones(4, dtype=np.float32), np.full(4, 2.0, dtype=np.float32)]
        assert comm.allreduce_mean(bufs).dtype == np.float32
        assert comm.allreduce_sum(bufs).dtype == np.float32

    def test_fault_free_path_is_exact(self):
        comm = Communicator(2, injector=FaultInjector(seed=0))
        out = comm.allreduce_mean([np.full(4, 1.0), np.full(4, 3.0)])
        np.testing.assert_array_equal(out, np.full(4, 2.0))
        assert comm.events["degraded_collectives"] == 0


# --------------------------------------------------------------------- #
# Convergence equivalence (the 1% acceptance criterion)
# --------------------------------------------------------------------- #

class TestChaosConvergence:
    ITERS = 300

    def _run(self, injector):
        model = tiny_model(rng=5)
        if injector is not None:
            for _, mod in named_modules(model):
                if hasattr(mod, "validate_reads"):
                    mod.injector = injector
                    mod.validate_reads = True
        trainer = Trainer(model, optimizer=Adagrad(model.parameters(), lr=0.05),
                          guard=DivergenceGuard(), injector=injector)
        res = trainer.train(tiny_stream(seed=21).batches(48, self.ITERS))
        return res.smoothed_loss(50)

    @pytest.fixture(scope="class")
    def clean_loss(self):
        return self._run(None)

    def test_grad_and_cache_faults_within_tolerance(self, clean_loss):
        inj = (FaultInjector(seed=123)
               .register("trainer.grad", 0.02, kind="nan", max_elements=4)
               .register("cache.row", 0.02, kind="nan", max_elements=2))
        faulted = self._run(inj)
        assert inj.total_fired > 0, "chaos run injected nothing"
        rel = abs(faulted - clean_loss) / clean_loss
        assert rel <= 0.01, f"faulted run {rel:.2%} off fault-free"

    def test_collective_faults_within_tolerance(self):
        def run(injector):
            replicas = [tiny_model(rng=5, cache=False) for _ in range(2)]
            dp = DataParallelTrainer(replicas, lr=0.1, injector=injector)
            losses = []
            for batch in tiny_stream(seed=31).batches(48, self.ITERS):
                losses.append(dp.train_step(batch))
            return float(np.mean(losses[-50:])), dp

        clean, _ = run(None)
        inj = (FaultInjector(seed=77)
               .register("collective.payload", 0.01, kind="bitflip")
               .register("collective.drop", 0.005)
               .register("collective.straggler", 0.01))
        faulted, dp = run(inj)
        rel = abs(faulted - clean) / clean
        assert rel <= 0.01, f"degraded DP run {rel:.2%} off fault-free"
        assert dp.fault_events["corruptions_detected"] > 0
        assert dp.parameters_in_sync()


# --------------------------------------------------------------------- #
# Cache read validation
# --------------------------------------------------------------------- #

class TestCacheRowRepair:
    def test_poisoned_rows_are_repaired_on_read(self):
        """NaN rows served from the cache would pass through ReLU silently
        (NaN -> masked to 0); read validation repairs them from TT cores."""
        model = tiny_model(rng=9)
        inj = FaultInjector(seed=13).register("cache.row", 0.2, kind="nan",
                                              max_elements=2)
        cached = [mod for _, mod in named_modules(model)
                  if hasattr(mod, "validate_reads")]
        assert cached, "fixture model has no cached embedding"
        for mod in cached:
            mod.injector = inj
            mod.validate_reads = True
        trainer = Trainer(model, optimizer=Adagrad(model.parameters(), lr=0.05),
                          guard=DivergenceGuard())
        trainer.train(tiny_stream(seed=41).batches(32, 80))
        assert inj.fired["cache.row"] > 0
        assert sum(m.repaired_rows for m in cached) > 0
        # Repair is on-read: a row poisoned after its last read waits for
        # the next read (or an explicit scrub) to be re-materialised.
        for mod in cached:
            mod.scrub()
            assert np.isfinite(mod.cache_rows.data).all()
        assert all(np.isfinite(p.data).all() for p in model.parameters())


# --------------------------------------------------------------------- #
# Shard-delta checkpoints (elastic training)
# --------------------------------------------------------------------- #

class TestShardDeltaCheckpoints:
    WORLD = 3

    def _trained(self, steps=4):
        from repro.ops.loss import bce_with_logits

        model = tiny_model(cache=False)
        opt = RowWiseAdagrad(model.parameters(), lr=0.05)
        ds = tiny_stream()
        for _ in range(steps):
            opt.zero_grad()
            batch = ds.batch(16)
            logits = model.forward(batch.dense, batch.sparse)
            _, grad = bce_with_logits(logits, batch.labels)
            model.backward(grad)
            opt.step()
        return model, opt

    def _ownership(self, model):
        from repro.distributed import partition_parameters

        owner = partition_parameters(model, self.WORLD)
        return {w: [i for i, o in enumerate(owner) if o == w]
                for w in range(self.WORLD)}

    def test_lost_shard_roundtrip_bit_exact(self, tmp_path):
        """Scramble one worker's owned slice (params + optimizer rows),
        restore only that shard, and get every bit back — without the
        restore touching any other shard's state."""
        model, opt = self._trained()
        owned = self._ownership(model)
        mgr = CheckpointManager(tmp_path)
        for w in range(self.WORLD):
            mgr.save_shard(7, w, model, owned[w], optimizer=opt)
        assert mgr.latest_common_shard_step(self.WORLD) == 7

        params = model.parameters()
        ref_params = [p.data.copy() for p in params]
        ref_state = opt.state_dict()

        lost = 1
        state = opt.state_dict()
        for i in owned[lost]:
            params[i].data[...] = -123.0
            key = f"accum.{i}"
            state[key] = np.full_like(state[key], -1.0)
        opt.load_state_dict(state)

        mgr.restore_shard(model, lost, 7, optimizer=opt)

        for p, ref in zip(model.parameters(), ref_params):
            np.testing.assert_array_equal(p.data, ref)
        restored = opt.state_dict()
        assert set(restored) == set(ref_state)
        for key, value in ref_state.items():
            if isinstance(value, np.ndarray):
                np.testing.assert_array_equal(restored[key], value)
            else:
                assert restored[key] == value

    def test_restore_leaves_survivors_untouched(self, tmp_path):
        """restore_shard writes only the named shard's slice: survivor
        state mutated *after* the save must survive the restore."""
        model, opt = self._trained()
        owned = self._ownership(model)
        mgr = CheckpointManager(tmp_path)
        for w in range(self.WORLD):
            mgr.save_shard(3, w, model, owned[w], optimizer=opt)
        sentinel_param = owned[0][0]
        model.parameters()[sentinel_param].data[...] = 777.0
        mgr.restore_shard(model, 1, 3, optimizer=opt)
        assert np.all(model.parameters()[sentinel_param].data == 777.0)

    def test_latest_common_needs_every_shard(self, tmp_path):
        model, opt = self._trained(steps=1)
        owned = self._ownership(model)
        mgr = CheckpointManager(tmp_path)
        for step in (5, 10):
            for w in range(self.WORLD):
                mgr.save_shard(step, w, model, owned[w])
        mgr.save_shard(15, 0, model, owned[0])   # torn round: shard 0 only
        assert mgr.shard(0).steps() == [5, 10, 15]
        assert mgr.shard(1).steps() == [5, 10]
        assert mgr.latest_common_shard_step(self.WORLD) == 10

    def test_shard_verify_detects_tamper(self, tmp_path):
        model, opt = self._trained(steps=1)
        owned = self._ownership(model)
        mgr = CheckpointManager(tmp_path)
        mgr.save_shard(2, 0, model, owned[0], optimizer=opt)
        assert mgr.shard(0).verify(2)
        with open(mgr.shard(0).payload_path(2), "ab") as fh:
            fh.write(b"tamper")
        assert not mgr.shard(0).verify(2)
        with pytest.raises(CheckpointError):
            mgr.shard(0).load(2)

    def test_shard_series_does_not_collide_with_dense(self, tmp_path):
        """`ckpt-s0_...` files must not appear in the dense `steps()`
        series (and vice versa)."""
        model, opt = self._trained(steps=1)
        owned = self._ownership(model)
        mgr = CheckpointManager(tmp_path)
        mgr.save(4, model)
        mgr.save_shard(9, 0, model, owned[0])
        assert mgr.steps() == [4]
        assert mgr.shard(0).steps() == [9]

    def test_shard_series_on_disk_names(self, tmp_path):
        """A shard series is the dense file protocol under the prefix
        ``{prefix}-s{shard}``; these names are what an existing elastic
        checkpoint directory holds, so they must stay readable."""
        model, opt = self._trained(steps=1)
        owned = self._ownership(model)
        mgr = CheckpointManager(tmp_path, keep=2)
        mgr.save_shard(4, 0, model, owned[0], optimizer=opt)
        assert sorted(os.listdir(tmp_path)) == ["ckpt-s0_00000004.json",
                                                "ckpt-s0_00000004.npz"]
        series = mgr.shard(0)
        assert (series.directory, series.keep, series.prefix) == \
            (mgr.directory, 2, "ckpt-s0")
        with open(series.manifest_path(4)) as fh:
            manifest = json.load(fh)
        assert list(manifest) == ["format", "step", "shard", "param_indices",
                                  "payload", "sha256", "optimizer"]
        assert manifest["payload"] == "ckpt-s0_00000004.npz"
        for step in (8, 12):            # retention is the series' own
            mgr.save_shard(step, 0, model, owned[0])
        assert series.steps() == [8, 12]


# --------------------------------------------------------------------- #
# NumericSanitizer
# --------------------------------------------------------------------- #

class TestNumericSanitizer:
    def test_clean_pass_and_restore(self):
        model = tiny_model(cache=False)
        batch = tiny_stream(seed=1).batch(16)
        with NumericSanitizer(model) as sani:
            out = model.forward(batch.dense, batch.sparse)
            _, grad = bce_with_logits(out, batch.labels)
            model.backward(grad)
            assert "forward" in vars(model.bottom_mlp.layers[0])
        assert np.isfinite(out).all()
        # Wrappers removed: instance dicts hold no shadowing attributes.
        assert "forward" not in vars(model.bottom_mlp.layers[0])
        assert "backward" not in vars(model.top_mlp)

    def test_fault_injected_nan_caught_at_first_layer(self):
        """A NaN planted by the fault injector trips at the first boundary
        it crosses — the bottom tower's first linear — not downstream."""
        model = tiny_model(cache=False)
        batch = tiny_stream(seed=1).batch(16)
        injector = FaultInjector(seed=3)
        injector.register("sanitizer.weight", 1.0, kind="nan")
        spec = injector.draw("sanitizer.weight")
        assert spec is not None
        injector.apply(spec, model.bottom_mlp.layers[0].weight.data)
        with pytest.raises(NumericFaultError) as exc_info:
            with NumericSanitizer(model, name="dlrm"):
                model.forward(batch.dense, batch.sparse)
        err = exc_info.value
        assert err.layer == "dlrm.bottom_mlp.layers[0]"
        assert err.stage == "forward"
        assert err.kind == "nan"

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_backward_grad_corruption_caught(self):
        model = tiny_model(cache=False)
        batch = tiny_stream(seed=1).batch(16)
        out = model.forward(batch.dense, batch.sparse)
        _, grad = bce_with_logits(out, batch.labels)
        grad = grad.copy()
        grad[0] = np.inf
        with pytest.raises(NumericFaultError) as exc_info:
            with NumericSanitizer(model, name="dlrm"):
                model.forward(batch.dense, batch.sparse)
                model.backward(grad)
        err = exc_info.value
        assert err.stage == "backward"
        assert err.kind == "inf"

    def test_dtype_drift_caught(self):
        model = tiny_model(cache=False)
        batch = tiny_stream(seed=1).batch(16)

        class Downcaster:
            """Stub layer that silently changes dtype on the second call."""

            def __init__(self):
                self.calls = 0

            def forward(self, x):
                self.calls += 1
                return x.astype(np.float32) if self.calls > 1 else x

            def backward(self, g):
                return g

        from repro.ops.module import Module

        class Wrapper(Module):
            def __init__(self, inner):
                self.inner = inner
                self.stub = Downcaster()

            def forward(self, dense, sparse):
                return self.stub.forward(self.inner.forward(dense, sparse))

        wrapped = Wrapper(model)
        with pytest.raises(NumericFaultError) as exc_info:
            with NumericSanitizer(wrapped, name="w"):
                wrapped.forward(batch.dense, batch.sparse)
                wrapped.forward(batch.dense, batch.sparse)
        assert exc_info.value.kind == "dtype_drift"

    def test_sanitizer_counts_checks(self):
        from repro.telemetry import get_registry

        model = tiny_model(cache=False)
        batch = tiny_stream(seed=1).batch(16)
        checks = get_registry().counter("sanitizer.checks")
        before = checks.value
        with NumericSanitizer(model):
            model.forward(batch.dense, batch.sparse)
        assert checks.value > before

    def test_rejects_non_module(self):
        with pytest.raises(TypeError):
            NumericSanitizer(np.zeros(3))

    def test_sanitized_output_identical(self):
        model = tiny_model(cache=False)
        batch = tiny_stream(seed=1).batch(16)
        plain = model.forward(batch.dense, batch.sparse)
        with NumericSanitizer(model):
            guarded = model.forward(batch.dense, batch.sparse)
        np.testing.assert_array_equal(plain, guarded)
