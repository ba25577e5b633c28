"""Fault-tolerant training runtime: injection, checkpointing, recovery.

Production DLRM training of the scale TT-Rec targets runs for days across
many hosts, where worker loss and numeric blow-ups are routine. This
package makes every training and benchmark run in the repo survivable:

- :class:`FaultInjector` — seeded, deterministic fault source with named
  injection sites wired into the trainer, the embedding cache and the
  serving tier (see :mod:`repro.reliability.fault_injection`);
- :class:`CheckpointManager` — atomic, checksummed, retained checkpoints
  carrying model + optimizer + RNG + module-extra state, so a killed run
  resumes bit-exactly (:mod:`repro.reliability.checkpoint`);
- :class:`DivergenceGuard` / :class:`GuardPolicy` — skip / scrub /
  LR-backoff / rollback recovery ladder replacing the trainer's old
  fail-fast :class:`FloatingPointError` (:mod:`repro.reliability.guard`).

See ``docs/RELIABILITY.md`` for the full story and
``tests/test_reliability.py`` for the chaos suite.
"""

from repro.reliability.checkpoint import (
    CheckpointError,
    CheckpointManager,
    LoadedCheckpoint,
)
from repro.reliability.fault_injection import KNOWN_SITES, FaultInjector, FaultSpec
from repro.reliability.guard import DivergenceGuard, GuardPolicy, scrub_non_finite

__all__ = [
    "FaultInjector",
    "FaultSpec",
    "KNOWN_SITES",
    "CheckpointManager",
    "CheckpointError",
    "LoadedCheckpoint",
    "DivergenceGuard",
    "GuardPolicy",
    "scrub_non_finite",
]
