"""Chaos suite: fault injection, checkpoint/resume, guard, cache row repair.

The convergence-equivalence tests enforce the reliability acceptance
criterion: a run with injected gradient/cache faults under the
guard's fixed ladder must finish within 1% of the fault-free final
smoothed loss. The kill/resume tests enforce bit-exactness: a run killed
at an arbitrary iteration and resumed from its newest checkpoint must
reproduce the uninterrupted run's parameters bit-for-bit.
"""

import os

import numpy as np
import pytest

from repro.data import DatasetSpec, SyntheticCTRDataset
from repro.models import DLRMConfig, TTConfig, build_ttrec
from repro.ops.module import named_modules, state_dict
from repro.ops.optim import Adagrad, RowWiseAdagrad, SparseSGD
from repro.reliability import (
    CheckpointManager,
    DivergenceGuard,
    FaultInjector,
    FaultSpec,
)
from repro.reliability.checkpoint import CheckpointError
from repro.reliability.guard import scrub_non_finite
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
                assert not inj.fires("cache.row")  # unregistered
            draws.append(inj.fires("trainer.grad"))
        assert draws == [ref.fires("trainer.grad") for _ in range(100)]

    def test_counters(self):
        inj = FaultInjector(seed=1).register("cache.row", 1.0)
        arr = np.ones(8)
        assert inj.corrupt("cache.row", arr)
        assert inj.attempts["cache.row"] == 1
        assert inj.fired["cache.row"] == 1
        assert sum(inj.fired.values()) == 1
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
            g = rng.normal(size=p.data.shape)
            if p.sparse:  # every row touched
                p.zero_grad()
                p.accumulate(np.arange(p.shape[0]), g)
            else:
                p.grad[...] = g

    @pytest.mark.parametrize("make", [
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

    def test_max_skips_bounds_the_ladder(self):
        """50 skipped batches are absorbed; the 51st raises."""
        guard = DivergenceGuard()
        for _ in range(50):
            assert not guard.admit(float("nan"), np.zeros(1))
        with pytest.raises(FloatingPointError, match="diverged"):
            guard.admit(float("nan"), np.zeros(1))

    def test_isolated_faults_never_back_off_lr(self):
        """A lone bad batch between healthy ones leaves the learning rate
        untouched: the backoff needs two consecutive failures."""
        guard = DivergenceGuard()
        opt = SparseSGD([], lr=0.1)
        for _ in range(10):
            guard.admit(0.5, np.zeros(1), optimizer=opt)
            guard.admit(float("nan"), np.zeros(1), optimizer=opt)
        assert opt.lr == 0.1
        assert guard.events["lr_backoffs"] == 0

    def test_consecutive_failures_back_off_and_recover(self):
        """The 2nd consecutive failure halves the rate, and 25 healthy
        steps in a row restore it."""
        guard = DivergenceGuard()
        opt = SparseSGD([], lr=0.1)
        guard.admit(float("nan"), np.zeros(1), optimizer=opt)
        assert opt.lr == 0.1  # first failure: no backoff yet
        guard.admit(float("nan"), np.zeros(1), optimizer=opt)
        assert opt.lr == 0.05  # second consecutive failure: halved
        for _ in range(24):
            guard.admit(0.4, np.zeros(1), optimizer=opt)
        assert opt.lr == 0.05  # 24 healthy steps are not enough
        guard.admit(0.4, np.zeros(1), optimizer=opt)
        assert opt.lr == 0.1  # restored at the 25th
        assert guard.events["lr_backoffs"] == 1
        assert guard.events["lr_restores"] == 1

    def test_scrub_repairs_params(self):
        model = tiny_model(cache=False)
        p = model.parameters()[0]
        p.data.reshape(-1)[:3] = np.nan
        fixed = scrub_non_finite(model)
        assert fixed == 3
        assert all(np.isfinite(q.data).all() for q in model.parameters())

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
# Convergence equivalence (the 1% acceptance criterion)
# --------------------------------------------------------------------- #

class TestChaosConvergence:
    ITERS = 300

    def _run(self, injector):
        model = tiny_model(rng=5)
        if injector is not None:
            for _, mod in named_modules(model):
                if hasattr(mod, "cache_rows"):
                    mod.injector = injector
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
        assert sum(inj.fired.values()) > 0, "chaos run injected nothing"
        rel = abs(faulted - clean_loss) / clean_loss
        assert rel <= 0.01, f"faulted run {rel:.2%} off fault-free"


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
                  if hasattr(mod, "cache_rows")]
        assert cached, "fixture model has no cached embedding"
        for mod in cached:
            mod.injector = inj
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
