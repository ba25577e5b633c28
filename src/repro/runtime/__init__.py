"""The supervised-worker runtime under sharded serving and elastic training.

TT-Rec's compressed model is small enough to hold whole on every
worker, so the serving fleet (:mod:`repro.sharding`) and the elastic
trainer (:mod:`repro.distributed.elastic`) are the same thing: K
replicas of one model behind a supervisor. This package is that thing,
once — "how a simulated process fails and is readmitted" — and the two
tiers are payloads over it (it imports nothing from them):

- :mod:`repro.runtime.worker` — the ``up | hung | down | rewarming``
  state machine, its fault sites, counters and dispatch exceptions;
- :mod:`repro.runtime.supervisor` — heartbeat tracking and verdicts,
  the control-plane round (probe → detect → restart → re-warm → recover
  → readmit), the quiesce phase, scheduled kills, and the exact
  fault-ledger fold.
"""
