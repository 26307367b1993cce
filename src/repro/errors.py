"""Exception hierarchy for the :mod:`repro` package.

Every error raised by this library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still letting programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigError(ReproError):
    """A configuration value is out of its documented range."""


class KVStoreError(ReproError):
    """Base class for key-value store failures."""


class DurableStoreError(KVStoreError):
    """The durable log-structured store hit an unrecoverable disk problem."""


class CorruptSegmentError(DurableStoreError):
    """A sealed segment record failed its checksum (real corruption, not a
    crash artifact — torn tails in the active segment are truncated, never
    raised)."""

    def __init__(self, segment: str, offset: int, reason: str) -> None:
        super().__init__(
            f"corrupt record in segment {segment} at offset {offset}: {reason}"
        )
        self.segment = segment
        self.offset = offset
        self.reason = reason


class ReliabilityError(ReproError):
    """Base class for checkpoint / write-ahead-log / recovery failures."""


class CheckpointError(ReliabilityError):
    """A checkpoint could not be written, validated, or restored."""


class StaleCheckpointError(CheckpointError):
    """An incremental checkpoint references segment files that no longer
    exist (compaction ran after it was taken).  Recovery falls back to a
    full WAL replay — the log still holds every acked action."""


class WALError(ReliabilityError):
    """The write-ahead log is unreadable beyond normal torn-tail truncation."""


class TopologyError(ReproError):
    """The stream topology is mis-wired (unknown component, cycle, ...)."""


class ComponentError(TopologyError):
    """A spout or bolt raised while processing; wraps the original error."""

    def __init__(self, component: str, original: BaseException) -> None:
        super().__init__(f"component {component!r} failed: {original!r}")
        self.component = component
        self.original = original


class DataError(ReproError):
    """Malformed input data (an unparseable action log line, ...)."""


class ModelError(ReproError):
    """A model was used before being trained or with inconsistent shapes."""
