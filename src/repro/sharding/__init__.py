"""Sharded serving tier: multi-worker fan-out with failure recovery.

The ISSUE-6 layer on top of the hardened single-process runtime
(:mod:`repro.serving`): the 26 embedding tables are partitioned across
shard workers — whole tables by LPT assignment, giant tables split into
row ranges — requests fan out with per-shard deadlines, and failures
walk a ladder *across* shards (primary → hot-row replica → frequency
prior) under the heartbeat health plane and supervised restart →
re-warm → readmit walk of :mod:`repro.runtime`. See docs/SERVING.md
(sharding section).

- :mod:`repro.sharding.topology` — :class:`TableSlice`/:class:`ShardPlan`
  construction (``build_shard_plan``);
- :mod:`repro.sharding.replication` — hot-row mirrors with bitwise
  consistency auditing;
- :mod:`repro.sharding.worker` — one shard: per-slice degradation
  ladders and hot-row re-warm, the payload of the runtime's worker;
- :mod:`repro.sharding.router` — fan-out/gather, failover, the recovery
  payload, global ``healthz``/``readyz``;
- :mod:`repro.sharding.loadgen` — the chaos drill behind
  ``repro serve-bench --shards``.
"""

from repro.runtime.supervisor import HealthPlane
from repro.sharding.loadgen import (
    KillSpec,
    parse_kill_spec,
    reconcile_sharded,
    run_sharded_load,
)
from repro.sharding.replication import ReplicaStore
from repro.sharding.router import ShardConfig, ShardRouter
from repro.sharding.topology import ShardPlan, TableSlice, build_shard_plan
from repro.sharding.worker import (
    NetDrop,
    ShardDown,
    ShardTimeout,
    ShardWorker,
    pool_rows,
)

__all__ = [
    "TableSlice",
    "ShardPlan",
    "build_shard_plan",
    "ReplicaStore",
    "ShardWorker",
    "ShardDown",
    "ShardTimeout",
    "NetDrop",
    "pool_rows",
    "HealthPlane",
    "ShardConfig",
    "ShardRouter",
    "KillSpec",
    "parse_kill_spec",
    "run_sharded_load",
    "reconcile_sharded",
]
