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

With a :class:`~repro.reliability.fault_injection.FaultInjector`
attached, the collectives run in degraded mode (checksummed, retried,
renormalised over survivors) and ``DataParallelTrainer`` resyncs a
dropped replica after the step.
"""

from repro.distributed.collectives import CollectiveError, Communicator
from repro.distributed.data_parallel import DataParallelTrainer, shard_batch
from repro.distributed.model_parallel import ShardedEmbeddingDLRM

__all__ = ["Communicator", "CollectiveError", "DataParallelTrainer",
           "ShardedEmbeddingDLRM", "shard_batch"]
