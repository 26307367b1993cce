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


class ReliabilityError(ReproError):
    """Base class for checkpoint / write-ahead-log / recovery failures."""


class CheckpointError(ReliabilityError):
    """A checkpoint could not be written, validated, or restored."""


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
