"""Distributed simulation: measured wire traffic vs the analytic model.

Runs real (simulated) hybrid-parallel and data-parallel training steps on
the scaled DLRM, reads the Communicator's byte counters, and checks them
against the closed-form all-to-all/allreduce volumes from
:mod:`repro.analysis.parallelism`. Also times one step of each layout.
"""

import numpy as np
from conftest import banner

from repro.bench import format_table
from repro.data import SyntheticCTRDataset
from repro.distributed import Communicator, DataParallelTrainer, ShardedEmbeddingDLRM
from repro.models import DLRMConfig, TTConfig, build_dlrm, build_ttrec

WORLD = 4
BATCH = 64


def _setup(kaggle_small):
    cfg = DLRMConfig(table_sizes=kaggle_small.table_sizes, emb_dim=8,
                     bottom_mlp=(16,), top_mlp=(16,))
    ds = SyntheticCTRDataset(kaggle_small, seed=0, noise=0.7)
    return cfg, ds


def test_model_parallel_step(benchmark, kaggle_small):
    cfg, ds = _setup(kaggle_small)
    comm = Communicator(WORLD)
    sharded = ShardedEmbeddingDLRM.from_dlrm(build_dlrm(cfg, rng=0), WORLD,
                                             comm=comm)
    batch = ds.batch(BATCH)
    benchmark.group = "distributed step"
    benchmark(lambda: (sharded.zero_grad(), sharded.train_step(batch)))


def test_data_parallel_step(benchmark, kaggle_small):
    cfg, ds = _setup(kaggle_small)
    replicas = [build_ttrec(cfg, num_tt_tables=5, tt=TTConfig(rank=8),
                            min_rows=60, rng=0) for _ in range(WORLD)]
    dp = DataParallelTrainer(replicas, lr=0.1)
    batch = ds.batch(BATCH)
    benchmark.group = "distributed step"
    benchmark(dp.train_step, batch)


def test_traffic_matches_analytic_model(benchmark, kaggle_small):
    cfg, ds = _setup(kaggle_small)

    def compute():
        # --- hybrid model parallel (dense) --- #
        mp_comm = Communicator(WORLD)
        sharded = ShardedEmbeddingDLRM.from_dlrm(build_dlrm(cfg, rng=0),
                                                 WORLD, comm=mp_comm)
        batch = ds.batch(BATCH)
        sharded.zero_grad()
        sharded.train_step(batch)

        # --- data parallel (TT-Rec) --- #
        dp_comm = Communicator(WORLD)
        replicas = [build_ttrec(cfg, num_tt_tables=5, tt=TTConfig(rank=8),
                                min_rows=60, rng=0) for _ in range(WORLD)]
        dp = DataParallelTrainer(replicas, lr=0.1, comm=dp_comm)
        dp.train_step(batch)
        return mp_comm, dp_comm, replicas[0]

    mp_comm, dp_comm, tt_model = benchmark.pedantic(compute, rounds=1, iterations=1)

    # Analytic expectations.
    # All-to-all (fwd + bwd): pooled vectors not already local.
    # With balanced table assignment off-diagonal fraction ~ (W-1)/W.
    pooled_bytes = BATCH * cfg.num_tables * cfg.emb_dim * 8
    a2a_expected = 2 * pooled_bytes * (WORLD - 1) / WORLD
    # DP allreduce: 2 * model_bytes * (W-1)/W per worker, summed over workers.
    model_bytes = sum(p.data.nbytes for p in tt_model.parameters())
    dp_expected = 2 * model_bytes * (WORLD - 1) / WORLD * WORLD

    banner("Distributed simulation: measured vs analytic traffic (one step)")
    rows = [
        ["model-parallel all-to-all", f"{mp_comm.bytes_all_to_all / 1e3:.1f} KB",
         f"{a2a_expected / 1e3:.1f} KB"],
        ["model-parallel tower allreduce", f"{mp_comm.bytes_allreduce / 1e3:.1f} KB", "-"],
        ["data-parallel allreduce", f"{dp_comm.bytes_allreduce / 1e3:.1f} KB",
         f"{dp_expected / 1e3:.1f} KB"],
    ]
    print(format_table(["traffic", "measured", "analytic"], rows))
    print("\nThe simulator's byte counters realise the alpha-beta model that "
          "bench_parallelism.py evaluates at datacenter scale.")
    assert mp_comm.bytes_all_to_all == int(a2a_expected)
    assert abs(dp_comm.bytes_allreduce - dp_expected) / dp_expected < 0.01
    assert dp_comm.bytes_all_to_all == 0


def test_degraded_mode_events(benchmark, kaggle_small):
    """Data-parallel steps under collective faults: per-event counters."""
    from repro.reliability import FaultInjector

    cfg, ds = _setup(kaggle_small)
    injector = (FaultInjector(seed=7)
                .register("collective.payload", 0.01, kind="bitflip")
                .register("collective.drop", 0.005)
                .register("collective.straggler", 0.01))
    replicas = [build_ttrec(cfg, num_tt_tables=5, tt=TTConfig(rank=8),
                            min_rows=60, rng=0) for _ in range(WORLD)]
    dp = DataParallelTrainer(replicas, lr=0.1, injector=injector)

    def steps():
        for _ in range(10):
            dp.train_step(ds.batch(BATCH))
        return dp.fault_events

    events = benchmark.pedantic(steps, rounds=1, iterations=1)

    banner(f"Degraded-mode collectives: {WORLD} workers, 10 faulty steps")
    rows = [[name.replace("_", " "), count] for name, count in events.items()]
    print(format_table(["event", "count"], rows))
    print("\nEvery corruption was checksum-detected and retried; dropped "
          "workers were renormalised away. Replicas stay in sync:",
          dp.parameters_in_sync())
    assert events["corruptions_detected"] > 0
    assert dp.parameters_in_sync()
