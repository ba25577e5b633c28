"""Tests for the distributed-training simulator (collectives, DP, MP).

The load-bearing assertions are the *equivalence theorems*: K-worker
data-parallel training is bit-equivalent to single-worker large-batch
training, and the hybrid model-parallel layout computes bit-identical
logits and updates to the unsharded DLRM.
"""

import numpy as np
import pytest

from repro.data import KAGGLE, SyntheticCTRDataset
from repro.distributed import Communicator, DataParallelTrainer, ShardedEmbeddingDLRM
from repro.distributed.data_parallel import shard_batch
from repro.distributed.model_parallel import assign_tables
from repro.models import DLRMConfig, TTConfig, build_dlrm, build_ttrec
from repro.ops.loss import bce_with_logits
from repro.ops.optim import SparseSGD

SPEC = KAGGLE.scaled(0.0002)
CFG = DLRMConfig(table_sizes=SPEC.table_sizes, emb_dim=8,
                 bottom_mlp=(16,), top_mlp=(16,))


def make_batch(size=32, seed=0):
    return SyntheticCTRDataset(SPEC, seed=seed, noise=0.7).batch(size)


class TestCommunicator:
    def test_allreduce_mean(self):
        c = Communicator(3)
        out = c.allreduce_mean([np.ones(4), 2 * np.ones(4), 3 * np.ones(4)])
        np.testing.assert_allclose(out, 2.0)

    def test_allreduce_sum(self):
        c = Communicator(2)
        out = c.allreduce_sum([np.ones(3), 2 * np.ones(3)])
        np.testing.assert_allclose(out, 3.0)

    def test_single_worker_free(self):
        c = Communicator(1)
        c.allreduce_mean([np.ones(10)])
        assert c.total_bytes == 0

    def test_ring_byte_accounting(self):
        c = Communicator(4)
        buf = np.ones(1000)  # 8000 bytes
        c.allreduce_mean([buf.copy() for _ in range(4)])
        # per worker 2*S*(3/4), times 4 workers
        assert c.bytes_allreduce == int(2 * 8000 * 3 / 4) * 4

    def test_all_to_all_transpose(self):
        c = Communicator(2)
        grid = [[np.array([0.0]), np.array([1.0])],
                [np.array([2.0]), np.array([3.0])]]
        out = c.all_to_all(grid)
        assert out[0][1][0] == 2.0  # worker 1's chunk for worker 0
        assert out[1][0][0] == 1.0

    def test_all_to_all_bills_off_diagonal_only(self):
        c = Communicator(2)
        grid = [[np.ones(10), np.ones(20)], [np.ones(30), np.ones(40)]]
        c.all_to_all(grid)
        assert c.bytes_all_to_all == (20 + 30) * 8

    def test_allgather(self):
        c = Communicator(2)
        out = c.allgather([np.zeros(2), np.ones(2)])
        np.testing.assert_array_equal(out[1], np.ones(2))
        assert c.bytes_allgather == 2 * 16

    def test_validation(self):
        with pytest.raises(ValueError):
            Communicator(0)
        c = Communicator(2)
        with pytest.raises(ValueError):
            c.allreduce_mean([np.ones(2)])
        with pytest.raises(ValueError):
            c.allreduce_mean([np.ones(2), np.ones(3)])
        with pytest.raises(ValueError):
            c.all_to_all([[np.ones(1)]])


class TestShardBatch:
    def test_even_split(self):
        batch = make_batch(32)
        shards = shard_batch(batch, 4)
        assert [s.size for s in shards] == [8, 8, 8, 8]
        np.testing.assert_array_equal(
            np.concatenate([s.labels for s in shards]), batch.labels
        )

    def test_sparse_offsets_rebased(self):
        batch = make_batch(8)
        shards = shard_batch(batch, 2)
        for shard in shards:
            for idx, off in shard.sparse:
                assert off[0] == 0
                assert off[-1] == idx.size

    def test_lookup_content_preserved(self):
        batch = make_batch(8)
        shards = shard_batch(batch, 2)
        for t in range(len(batch.sparse)):
            rebuilt = np.concatenate([s.sparse[t][0] for s in shards])
            np.testing.assert_array_equal(rebuilt, batch.sparse[t][0])

    def test_uneven_rejected(self):
        with pytest.raises(ValueError):
            shard_batch(make_batch(10), 4)

    @pytest.mark.parametrize("world_size", [0, -2])
    def test_world_size_must_be_positive(self, world_size):
        with pytest.raises(ValueError, match="world_size must be >= 1"):
            shard_batch(make_batch(8), world_size)


class TestDataParallelEquivalence:
    def test_two_workers_equal_single_worker(self):
        """The equivalence theorem, bit-for-bit over several steps."""
        single = build_ttrec(CFG, num_tt_tables=3, tt=TTConfig(rank=4),
                             min_rows=60, rng=0)
        opt = SparseSGD(single.parameters(), lr=0.1)
        replicas = [
            build_ttrec(CFG, num_tt_tables=3, tt=TTConfig(rank=4),
                        min_rows=60, rng=0)
            for _ in range(2)
        ]
        dp = DataParallelTrainer(replicas, lr=0.1)

        for step in range(3):
            batch = make_batch(16, seed=step)
            # single worker
            opt.zero_grad()
            logits = single.forward(batch.dense, batch.sparse)
            _, grad = bce_with_logits(logits, batch.labels)
            single.backward(grad)
            opt.step()
            # data parallel
            dp.train_step(batch)

        assert dp.parameters_in_sync()
        for a, b in zip(single.parameters(), dp.replicas[0].parameters()):
            np.testing.assert_allclose(a.data, b.data, atol=1e-12)

    def test_replicas_start_synchronized(self):
        replicas = [build_dlrm(CFG, rng=i) for i in range(3)]  # different seeds!
        dp = DataParallelTrainer(replicas, lr=0.1)
        assert dp.parameters_in_sync()

    def test_replicas_stay_synchronized(self):
        replicas = [build_dlrm(CFG, rng=0) for _ in range(2)]
        dp = DataParallelTrainer(replicas, lr=0.1)
        for step in range(2):
            dp.train_step(make_batch(8, seed=step))
        assert dp.parameters_in_sync()

    def test_loss_decreases(self):
        replicas = [build_dlrm(CFG, rng=0) for _ in range(2)]
        dp = DataParallelTrainer(replicas, lr=0.1)
        ds = SyntheticCTRDataset(SPEC, seed=0, noise=0.7)
        losses = [dp.train_step(ds.batch(64)) for _ in range(60)]
        assert np.mean(losses[-10:]) < np.mean(losses[:10])

    def test_comm_bytes_counted(self):
        replicas = [build_dlrm(CFG, rng=0) for _ in range(2)]
        dp = DataParallelTrainer(replicas, lr=0.1)
        dp.train_step(make_batch(8))
        assert dp.comm.bytes_allreduce > 0
        assert dp.comm.bytes_all_to_all == 0  # pure data parallelism

    def test_validation(self):
        with pytest.raises(ValueError):
            DataParallelTrainer([])
        with pytest.raises(ValueError):
            DataParallelTrainer([build_dlrm(CFG, rng=0)], comm=Communicator(2))


class TestAssignTables:
    def test_balanced(self):
        owner = assign_tables((100, 100, 100, 100), 2)
        assert sorted(owner) == [0, 0, 1, 1]

    def test_largest_spread(self):
        owner = assign_tables((1000, 10, 10, 10), 2)
        big_worker = owner[0]
        # the three small tables all avoid the big table's worker
        assert all(owner[i] != big_worker for i in (1, 2, 3))

    def test_validation(self):
        with pytest.raises(ValueError):
            assign_tables((10,), 0)

    def test_deterministic(self):
        sizes = (400, 3, 400, 17, 95, 95, 3)
        assert assign_tables(sizes, 3) == assign_tables(sizes, 3)

    @pytest.mark.parametrize("seed", range(25))
    def test_property_skewed_sizes_spread_bounded(self, seed):
        """Property (LPT + refinement): on skewed size distributions the
        byte spread stays within one largest-table and the max/min
        shard-bytes ratio within the implied bound."""
        rng = np.random.default_rng(seed)
        world = int(rng.integers(2, 6))
        n = int(rng.integers(2 * world, 6 * world))
        # Log-uniform sizes spanning four decades: the DLRM regime of a
        # few giant tables over a long tail of tiny ones.
        sizes = tuple(int(10 ** rng.uniform(1, 5)) for _ in range(n))
        owner = assign_tables(sizes, world)
        assert len(owner) == n and set(owner) <= set(range(world))
        load = [0] * world
        for t, w in enumerate(owner):
            load[w] += sizes[t]
        # LPT invariant: the heaviest worker got its last table while it
        # was the lightest, so the spread never exceeds one table.
        assert max(load) - min(load) <= max(sizes)
        if min(load) > 0:
            assert max(load) / min(load) <= 1.0 + max(sizes) / min(load)

    def test_refinement_tightens_tail_imbalance(self):
        """One giant + many mediums: plain LPT strands the giant's worker
        with nothing else to trade; refinement rebalances the tail."""
        sizes = (900, 300, 300, 300, 300, 300, 300)
        owner = assign_tables(sizes, 3)
        load = [0, 0, 0]
        for t, w in enumerate(owner):
            load[w] += sizes[t]
        assert max(load) - min(load) <= 300
        raw = assign_tables(sizes, 3, refine=False)
        raw_load = [0, 0, 0]
        for t, w in enumerate(raw):
            raw_load[w] += sizes[t]
        assert max(load) - min(load) <= max(raw_load) - min(raw_load)


class TestModelParallelEquivalence:
    @pytest.mark.parametrize("world_size", [2, 4])
    def test_logits_match_unsharded(self, world_size):
        reference = build_dlrm(CFG, rng=0)
        sharded = ShardedEmbeddingDLRM.from_dlrm(reference, world_size)
        batch = make_batch(16)
        ref_logits = reference.forward(batch.dense, batch.sparse)
        np.testing.assert_allclose(sharded.forward(batch), ref_logits, atol=1e-12)

    def test_train_step_matches_unsharded(self):
        """Hybrid-parallel update == single-worker update, bit-for-bit."""
        reference = build_dlrm(CFG, rng=0)
        twin = build_dlrm(CFG, rng=0)  # kept unsharded
        opt = SparseSGD(twin.parameters(), lr=0.1)
        sharded = ShardedEmbeddingDLRM.from_dlrm(reference, 2, lr=0.1)

        for step in range(2):
            batch = make_batch(8, seed=step)
            sharded.zero_grad()
            sharded.train_step(batch)

            opt.zero_grad()
            logits = twin.forward(batch.dense, batch.sparse)
            _, grad = bce_with_logits(logits, batch.labels)
            twin.backward(grad)
            opt.step()

        # Embeddings (moved into the sharded layout) match the twin's.
        for a, b in zip(reference.embeddings, twin.embeddings):
            for pa, pb in zip(a.parameters(), b.parameters()):
                np.testing.assert_allclose(pa.data, pb.data, atol=1e-12)
        # Tower replicas match the twin's MLPs.
        for tower in sharded.towers:
            for pa, pb in zip(tower.bottom.parameters(),
                              twin.bottom_mlp.parameters()):
                np.testing.assert_allclose(pa.data, pb.data, atol=1e-12)
            for pa, pb in zip(tower.top.parameters(),
                              twin.top_mlp.parameters()):
                np.testing.assert_allclose(pa.data, pb.data, atol=1e-12)

    def test_all_to_all_traffic_scales_with_batch(self):
        reference = build_dlrm(CFG, rng=0)
        small_comm = Communicator(2)
        sharded = ShardedEmbeddingDLRM.from_dlrm(reference, 2, comm=small_comm)
        sharded.forward(make_batch(8))
        small = small_comm.bytes_all_to_all
        small_comm.reset_counters()
        sharded.forward(make_batch(32))
        assert small_comm.bytes_all_to_all == 4 * small

    def test_per_worker_memory_balanced(self):
        reference = build_dlrm(CFG, rng=0)
        sharded = ShardedEmbeddingDLRM.from_dlrm(reference, 4)
        loads = sharded.per_worker_embedding_bytes()
        assert max(loads) < sum(loads)  # genuinely split
        assert min(loads) > 0

    def test_backward_before_forward(self):
        sharded = ShardedEmbeddingDLRM.from_dlrm(build_dlrm(CFG, rng=0), 2)
        with pytest.raises(RuntimeError):
            sharded.backward(np.ones(8))


# --------------------------------------------------------------------- #
# Degraded-collective properties (survivor rescaling)
# --------------------------------------------------------------------- #

class TestDegradedAllreduceProperties:
    """Property tests of the K/survivors degraded-mode semantics."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_allreduce_sum_rescaling_is_unbiased(self, seed):
        """E[(K/S) * survivor sum] = full sum, for *distinct* per-worker
        contributions: under i.i.d. drops the survivor set is uniform
        given its size, so the rescaled estimate is conditionally
        unbiased — the property the degraded gradient step relies on."""
        from repro.reliability import FaultInjector

        k = 4
        values = np.arange(1.0, k + 1)           # worker r contributes r+1
        true_sum = float(values.sum())
        injector = FaultInjector(seed=seed).register("collective.drop", 0.12)
        comm = Communicator(k, injector=injector)
        trials = 1500
        total = 0.0
        for _ in range(trials):
            out = comm.allreduce_sum([np.full(1, v) for v in values])
            total += float(out[0])
        assert comm.events["workers_dropped"] > 0
        assert abs(total / trials - true_sum) / true_sum < 0.03

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_allreduce_mean_matches_survivor_reference(self, seed):
        """Renormalised mean == bit-exact float64 survivors-only mean,
        recomputed independently from ``last_dropped``."""
        from repro.reliability import FaultInjector

        injector = FaultInjector(seed=seed).register("collective.drop", 0.2)
        comm = Communicator(4, injector=injector)
        rng = np.random.default_rng(seed)
        saw_degraded = False
        for _ in range(40):
            bufs = [rng.standard_normal(16).astype(np.float32)
                    for _ in range(4)]
            out = comm.allreduce_mean(bufs)
            dropped = set(comm.last_dropped)
            saw_degraded |= bool(dropped)
            survivors = [b for r, b in enumerate(bufs) if r not in dropped]
            ref = survivors[0].astype(np.float64, copy=True)
            for b in survivors[1:]:
                ref += b
            ref /= len(survivors)
            np.testing.assert_array_equal(out, ref.astype(np.float32))
        assert saw_degraded


# --------------------------------------------------------------------- #
# Post-step resync barrier (degraded-mode drift fix)
# --------------------------------------------------------------------- #

class TestDegradedResyncBarrier:
    def test_dropped_worker_resynced_after_step(self):
        """A rank the collective drops takes a divergent local update and
        must be rewritten by the barrier before the next step — the fleet
        ends every step bit-identical (regression for the old behaviour
        of silently handing dropped ranks the reduced gradient)."""
        from repro.reliability import FaultInjector

        injector = FaultInjector(seed=5).register("collective.drop", 0.02)
        replicas = [
            build_ttrec(CFG, num_tt_tables=3, tt=TTConfig(rank=4),
                        min_rows=60, rng=0)
            for _ in range(4)
        ]
        dp = DataParallelTrainer(replicas, lr=0.1, injector=injector)
        start = dp.resyncs
        for step in range(10):
            dp.train_step(make_batch(16, seed=step))
            assert dp.parameters_in_sync()
        assert dp.fault_events["workers_dropped"] > 0
        assert dp.resyncs > start
