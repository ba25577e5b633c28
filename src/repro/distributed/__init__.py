"""Simulated distributed training (the §5 systems context, made executable).

The paper contrasts two ways to train DLRMs on multiple accelerators:

- **model parallelism** for the dense baseline — embedding tables sharded
  across workers because no single device fits them, with an all-to-all
  exchange of pooled embedding vectors every iteration;
- **data parallelism** for TT-Rec — the compressed model fits everywhere,
  so only a gradient allreduce is needed.

This package *simulates* both in-process: ``Communicator`` provides
byte-accounted collectives (allreduce / all-to-all), ``DataParallelTrainer``
runs K synchronized replicas, and ``ShardedEmbeddingDLRM`` runs the
table-sharded layout with the all-to-all redistribution DLRM systems use.
Everything is exact (no network, no nondeterminism): data-parallel
training is verified bit-equivalent to single-worker large-batch training,
and the byte counters are verified against the analytic model of
:mod:`repro.analysis.parallelism`.

:mod:`repro.distributed.elastic` adds the fault-tolerant runtime on top:
``ElasticTrainer`` supervises ``TrainerWorker`` s through the worker
state machine and recovery walk of :mod:`repro.runtime`, adding
breaker-gated eviction, degraded collectives over survivors, and live
shard-delta recovery of lost replicas.
"""

from repro.distributed.collectives import CollectiveError, Communicator
from repro.distributed.data_parallel import (DataParallelTrainer, shard_batch,
                                             shard_batch_counts)
from repro.distributed.elastic import (ElasticConfig, ElasticError,
                                       ElasticTrainer, TrainerWorker,
                                       WorkerKillSpec, parse_worker_kill_spec,
                                       reconcile_elastic)
from repro.distributed.model_parallel import (ShardedEmbeddingDLRM,
                                              partition_parameters)

__all__ = ["Communicator", "CollectiveError", "DataParallelTrainer",
           "ShardedEmbeddingDLRM", "ElasticTrainer", "TrainerWorker",
           "ElasticConfig", "ElasticError", "WorkerKillSpec",
           "parse_worker_kill_spec", "reconcile_elastic", "shard_batch",
           "shard_batch_counts", "partition_parameters"]
