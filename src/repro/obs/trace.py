"""Request tracing: causally-linked spans along the serving path.

Per-component counters cannot attribute a request's end-to-end time to
stages.  A :class:`Tracer` mints a trace id at the edge of the system (a
:class:`~repro.serving.router.RequestRouter` request), propagates it
through router → recommender → its stages, and records one :class:`Span` per
unit of work, parent-linked so the whole causal tree can be exported and
each stage's share of the latency read off.

Spans are synchronous and request-scoped: they nest with the call stack.
The tracer keeps a per-thread ambient span; :meth:`Tracer.span` parents to
it automatically, so the router's span encloses the recommender's, which
encloses each stage's.  Every child therefore starts after its parent
starts and ends before its parent ends, and a span's *self* time — its
duration minus its direct children's (:meth:`Tracer.stage_latencies`) — is
the work done in that stage alone.

Ids are minted from deterministic counters — with a
:class:`~repro.clock.VirtualClock` a traced run is bit-for-bit
reproducible.  ``sample_every=n`` keeps only every n-th trace (the ids
still advance, so sampled runs stay comparable); ``max_spans`` (10,000
by default) bounds memory, evicting the oldest finished span in O(1).
"""

from __future__ import annotations

import json
import threading
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping

from ..clock import Clock, SystemClock

__all__ = ["Span", "SpanContext", "Tracer", "TRACE_SCHEMA_VERSION"]

#: Version stamped into ``Tracer.to_json()`` documents.
TRACE_SCHEMA_VERSION = 2

#: Sentinel: "parent me to the calling thread's ambient span, else root".
_AMBIENT = object()


@dataclass(frozen=True, slots=True)
class SpanContext:
    """The propagatable identity of a span."""

    trace_id: str
    span_id: str
    sampled: bool = True


@dataclass(slots=True)
class Span:
    """One unit of traced work.

    Attribute writes go through :meth:`set_attribute`; after completion a
    span is effectively frozen (the tracer only hands out completed spans
    from its export APIs).
    """

    name: str
    context: SpanContext
    parent_id: str | None
    start: float
    attributes: dict[str, Any] = field(default_factory=dict)
    end: float | None = None
    error: str | None = None
    _tracer: "Tracer | None" = field(default=None, repr=False)

    @property
    def trace_id(self) -> str:
        return self.context.trace_id

    @property
    def span_id(self) -> str:
        return self.context.span_id

    @property
    def is_root(self) -> bool:
        return self.parent_id is None

    @property
    def duration(self) -> float:
        """Inclusive duration, children included."""
        return 0.0 if self.end is None else self.end - self.start

    def set_attribute(self, key: str, value: Any) -> None:
        self.attributes[key] = value

    def finish(self, error: str | None = None) -> None:
        """Mark this span done (idempotent); it becomes exportable."""
        if self._tracer is not None:
            self._tracer._finish(self, error)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.finish(
            error=None if exc is None else f"{exc_type.__name__}: {exc}"
        )


class _NoopSpan(Span):
    """Span of an unsampled trace: carries context, records nothing."""

    def finish(self, error: str | None = None) -> None:  # noqa: D102
        self.end = self.start


class _ThreadStack(threading.local):
    """Per-thread stack of active spans, present from the first read (a
    missed ``getattr`` on a ``threading.local`` raises internally: slow)."""

    def __init__(self) -> None:
        self.stack: list[Span] = []


def _self_times(spans: list[Span]) -> dict[str, float]:
    """Exclusive time per span id: duration minus direct children's."""
    out = {s.span_id: s.duration for s in spans}
    for s in spans:
        if s.parent_id in out:
            out[s.parent_id] -= s.duration
    return out


class Tracer:
    """Mints, links, and stores spans; see the module docstring."""

    def __init__(
        self,
        clock: Clock | None = None,
        sample_every: int = 1,
        max_spans: int = 10_000,
    ) -> None:
        if sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        if max_spans < 1:
            raise ValueError("max_spans must be >= 1")
        self._clock = clock or SystemClock()
        self.sample_every = sample_every
        self.max_spans = max_spans
        self._lock = threading.Lock()
        self._local = _ThreadStack()
        self._trace_seq = 0
        self._span_seq = 0
        self._root_seq = 0
        self._open = 0
        self._finished: deque[Span] = deque(maxlen=max_spans)
        self.dropped_spans = 0

    # -- ids ---------------------------------------------------------------

    def _mint_trace_locked(self) -> tuple[str, bool]:
        self._trace_seq += 1
        sampled = (self._root_seq % self.sample_every) == 0
        self._root_seq += 1
        return f"t{self._trace_seq:08d}", sampled

    def _mint_span_locked(self) -> str:
        self._span_seq += 1
        return f"s{self._span_seq:08d}"

    # -- ambient (per-thread) span ----------------------------------------

    def current_span(self) -> Span | None:
        """The calling thread's innermost active span, if any."""
        stack = self._local.stack
        return stack[-1] if stack else None

    # -- span lifecycle ----------------------------------------------------

    def start_span(
        self,
        name: str,
        parent: "Span | SpanContext | None" = _AMBIENT,  # type: ignore[assignment]
        attributes: Mapping[str, Any] | None = None,
    ) -> Span:
        """Open a span.

        ``parent`` may be a :class:`Span`, a :class:`SpanContext`, ``None``
        for an explicit new root, or omitted to parent to the calling
        thread's ambient span (falling back to a new root).
        """
        if parent is _AMBIENT:
            parent = self.current_span()
        parent_ctx: SpanContext | None
        if isinstance(parent, Span):
            parent_ctx = parent.context
        else:
            parent_ctx = parent
        with self._lock:
            if parent_ctx is None:
                trace_id, sampled = self._mint_trace_locked()
                parent_id = None
            else:
                trace_id = parent_ctx.trace_id
                sampled = parent_ctx.sampled
                parent_id = parent_ctx.span_id
            span_id = self._mint_span_locked()
            context = SpanContext(trace_id, span_id, sampled)
            now = self._clock.now()
            if not sampled:
                return _NoopSpan(name, context, parent_id, now)
            self._open += 1
            return Span(
                name,
                context,
                parent_id,
                now,
                attributes=dict(attributes or {}),
                _tracer=self,
            )

    @contextmanager
    def span(
        self,
        name: str,
        parent: "Span | SpanContext | None" = _AMBIENT,  # type: ignore[assignment]
        attributes: Mapping[str, Any] | None = None,
    ) -> Iterator[Span]:
        """``with tracer.span("stage"):`` — start, make ambient, finish."""
        opened = self.start_span(name, parent=parent, attributes=attributes)
        error: str | None = None
        stack = self._local.stack
        stack.append(opened)
        try:
            yield opened
        except BaseException as exc:
            error = f"{type(exc).__name__}: {exc}"
            raise
        finally:
            stack.pop()
            opened.finish(error=error)

    def _finish(self, span: Span, error: str | None) -> None:
        with self._lock:
            if span.end is not None:  # idempotent
                return
            span.end = self._clock.now()
            if error is not None:
                span.error = error
            self._open -= 1
            if len(self._finished) == self.max_spans:
                self.dropped_spans += 1  # the append evicts the oldest
            self._finished.append(span)

    # -- export ------------------------------------------------------------

    def finished_spans(self) -> list[Span]:
        with self._lock:
            return list(self._finished)

    def active_span_count(self) -> int:
        with self._lock:
            return self._open

    def traces(self) -> dict[str, list[Span]]:
        """Finished spans grouped by trace id, in start order."""
        grouped: dict[str, list[Span]] = {}
        for span in self.finished_spans():
            grouped.setdefault(span.trace_id, []).append(span)
        for spans in grouped.values():
            spans.sort(key=lambda s: (s.start, s.span_id))
        return grouped

    def complete_traces(self) -> dict[str, list[Span]]:
        """Only traces whose root span has finished."""
        return {
            trace_id: spans
            for trace_id, spans in self.traces().items()
            if any(s.is_root for s in spans)
        }

    def span_tree(self, trace_id: str) -> dict | None:
        """The trace as a nested dict (root at the top), or ``None``."""
        spans = self.traces().get(trace_id)
        if not spans:
            return None
        by_id = {s.span_id: s for s in spans}
        self_times = _self_times(spans)
        children: dict[str, list[Span]] = {}
        roots: list[Span] = []
        for s in spans:
            if s.parent_id is not None and s.parent_id in by_id:
                children.setdefault(s.parent_id, []).append(s)
            else:
                roots.append(s)
        if not roots:
            return None

        def render(s: Span) -> dict:
            return {
                "name": s.name,
                "span_id": s.span_id,
                "start": s.start,
                "end": s.end,
                "self_seconds": self_times[s.span_id],
                "subtree_seconds": s.duration,
                "attributes": dict(s.attributes),
                "error": s.error,
                "children": [
                    render(c)
                    for c in sorted(
                        children.get(s.span_id, []),
                        key=lambda c: (c.start, c.span_id),
                    )
                ],
            }

        return render(roots[0])

    def stage_latencies(
        self, trace_id: str | None = None
    ) -> dict[str, dict[str, float]]:
        """Per-stage (span-name) latency attribution.

        Returns ``{name: {count, self_seconds, subtree_seconds}}``, over
        one trace or (``trace_id=None``) over every finished span.
        ``self_seconds`` is exclusive time (duration minus the direct
        children's), ``subtree_seconds`` inclusive time.
        """
        spans = (
            self.traces().get(trace_id, [])
            if trace_id is not None
            else self.finished_spans()
        )
        self_times = _self_times(spans)
        out: dict[str, dict[str, float]] = {}
        for s in spans:
            agg = out.setdefault(
                s.name, {"count": 0, "self_seconds": 0.0, "subtree_seconds": 0.0}
            )
            agg["count"] += 1
            agg["self_seconds"] += self_times[s.span_id]
            agg["subtree_seconds"] += s.duration
        return out

    def to_json(self, indent: int | None = 2) -> str:
        """Every finished span as a schema-versioned JSON document."""
        document = {
            "schema_version": TRACE_SCHEMA_VERSION,
            "dropped_spans": self.dropped_spans,
            "spans": [
                {
                    "trace_id": s.trace_id,
                    "span_id": s.span_id,
                    "parent_id": s.parent_id,
                    "name": s.name,
                    "start": s.start,
                    "end": s.end,
                    "attributes": {
                        k: v
                        for k, v in s.attributes.items()
                        if isinstance(v, (str, int, float, bool, type(None)))
                    },
                    "error": s.error,
                }
                for s in self.finished_spans()
            ],
        }
        return json.dumps(document, indent=indent, sort_keys=True)
