"""Hardened serving runtime for the inference path (docs/SERVING.md).

The production tier in front of a trained :class:`repro.models.dlrm.DLRM`:

- :mod:`repro.serving.admission` — request validation/repair with
  per-reason rejection counters (clamp/hash/reject OOV policies, CSR
  offset repair, NaN/Inf dense rejection);
- :mod:`repro.serving.queue` — deadline-aware micro-batching with a
  bounded queue, load shedding and a backpressure signal;
- :mod:`repro.serving.breaker` — circuit breakers (closed/open/half-open)
  over embedding backends;
- :mod:`repro.serving.server` — the degradation ladder (cached hybrid →
  direct TT contraction → frequency-prior default row), health/readiness
  probes and the ``serving.*`` fault-injection sites;
- :mod:`repro.serving.loadgen` — the wall-clock load generator behind
  ``repro serve-bench``, including fault-ledger reconciliation.
"""

from repro.serving.admission import (
    Rejection,
    Request,
    RequestSanitizer,
    SanitizedRequest,
    repair_offsets,
)
from repro.serving.breaker import CircuitBreaker
from repro.serving.loadgen import reconcile, run_load
from repro.serving.queue import ManualClock, MicroBatchQueue
from repro.serving.server import (
    InferenceServer,
    ServerConfig,
    TableLadder,
    frequency_prior_row,
)

__all__ = [
    "Request",
    "SanitizedRequest",
    "Rejection",
    "RequestSanitizer",
    "repair_offsets",
    "CircuitBreaker",
    "ManualClock",
    "MicroBatchQueue",
    "InferenceServer",
    "ServerConfig",
    "TableLadder",
    "frequency_prior_row",
    "run_load",
    "reconcile",
]
