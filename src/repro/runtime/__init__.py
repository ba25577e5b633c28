"""The supervised-worker runtime under sharded serving.

TT-Rec's compressed model is small enough to hold whole on every
worker, so the serving fleet (:mod:`repro.sharding`) is K replicas of
one model behind a supervisor. This package is "how a simulated process
fails and is readmitted", and the tier is a payload over it (it imports
nothing from :mod:`repro.sharding`):

- :mod:`repro.runtime.worker` — the ``up | hung | down | rewarming``
  state machine, its fault sites, counters and dispatch exceptions;
- :mod:`repro.runtime.supervisor` — heartbeat tracking and verdicts,
  the control-plane round (probe → detect → restart → re-warm → recover
  → readmit), the quiesce phase, scheduled kills, and the exact
  fault-ledger fold.
"""
