"""Fault tolerance: checkpoints, WAL replay, overload control.

The paper's production deployment leans on Storm's fault tolerance — failed
tuples are replayed, and the model state in external KV storage survives
worker crashes (§5.1-5.2).  This package rebuilds the state half of that
guarantee for the in-process substrate; the executors do not restart
workers — a bolt exception aborts the run (see :mod:`repro.storm.executor`),
and recovery is this package's checkpoint + WAL replay:

* :mod:`~repro.reliability.checkpoint` — atomic, versioned on-disk
  snapshots of the whole model state;
* :mod:`~repro.reliability.wal` — a segment-rotated write-ahead log of
  user actions;
* :mod:`~repro.reliability.replay` — crash recovery = restore last
  checkpoint + replay the WAL tail (at-least-once);
* :mod:`~repro.reliability.overload` — admission control (a token
  bucket) and circuit breakers, the serve-under-load half of
  robustness.

Recovery semantics are documented in DESIGN.md ("Fault-tolerance
subsystem"), overload semantics in DESIGN.md ("Overload semantics"); the
chaos/recovery test suites live in ``tests/reliability`` and
``tests/overload``, their seeded fault injection in ``tests/support``.
"""

from .checkpoint import CheckpointInfo, CheckpointManager
from .overload import (
    AdmissionController,
    AdmissionDecision,
    BreakerState,
    CircuitBreaker,
    TokenBucket,
)
from .replay import RecoveryManager, RecoveryReport
from .wal import ActionWAL

__all__ = [
    "CheckpointManager",
    "CheckpointInfo",
    "ActionWAL",
    "RecoveryManager",
    "RecoveryReport",
    "TokenBucket",
    "AdmissionController",
    "AdmissionDecision",
    "CircuitBreaker",
    "BreakerState",
]
