"""Span causality invariants of the synchronous tracer.

Spans nest with the call stack: a child starts after and ends before its
parent, ``self_seconds`` is a span's duration minus its direct children's,
and a bounded buffer evicts the oldest finished span first.
"""

import json

import pytest

from repro.clock import VirtualClock
from repro.obs import TRACE_SCHEMA_VERSION, Tracer


def test_sync_spans_nest_via_ambient_parent():
    tracer = Tracer(clock=VirtualClock(0.0))
    with tracer.span("outer") as outer:
        with tracer.span("inner") as inner:
            assert tracer.current_span() is inner
        assert tracer.current_span() is outer
    assert tracer.current_span() is None
    spans = {s.name: s for s in tracer.finished_spans()}
    assert spans["inner"].parent_id == spans["outer"].span_id
    assert spans["inner"].trace_id == spans["outer"].trace_id


def test_span_records_error_from_exception():
    tracer = Tracer(clock=VirtualClock(0.0))
    with pytest.raises(RuntimeError):
        with tracer.span("work"):
            raise RuntimeError("boom")
    (span,) = tracer.finished_spans()
    assert span.error == "RuntimeError: boom"


def test_unsampled_traces_record_nothing():
    tracer = Tracer(clock=VirtualClock(0.0), sample_every=3)
    kept = 0
    for _ in range(9):
        span = tracer.start_span("root", parent=None)
        if span.context.sampled:
            kept += 1
        span.finish()
    assert kept == 3  # every 3rd trace
    assert len(tracer.finished_spans()) == 3
    assert tracer.active_span_count() == 0


def test_max_spans_bounds_memory_and_counts_drops():
    tracer = Tracer(clock=VirtualClock(0.0), max_spans=5)
    for _ in range(8):
        tracer.start_span("s", parent=None).finish()
    assert len(tracer.finished_spans()) == 5
    assert tracer.dropped_spans == 3


def test_the_default_ring_keeps_ten_thousand_spans():
    """A served process roots six spans per ``/recommend`` and nothing
    reads them back: by default the ring keeps the newest 10,000."""
    tracer = Tracer(clock=VirtualClock(0.0))
    for _ in range(10_001):
        tracer.start_span("s", parent=None).finish()
    assert len(tracer.finished_spans()) == 10_000
    assert tracer.dropped_spans == 1


def test_eviction_keeps_the_newest_spans():
    tracer = Tracer(clock=VirtualClock(0.0), max_spans=3)
    for i in range(7):
        tracer.start_span(f"s{i}", parent=None).finish()
    assert [s.name for s in tracer.finished_spans()] == ["s4", "s5", "s6"]
    assert tracer.dropped_spans == 4


def _request_tree(clock: VirtualClock) -> Tracer:
    """router (1s own) -> recommender (2s own) -> two kv.get (1s each)."""
    tracer = Tracer(clock=clock)
    with tracer.span("router.handle", parent=None):
        clock.advance(1.0)
        with tracer.span("recommender.recommend"):
            clock.advance(2.0)
            for _ in range(2):
                with tracer.span("kv.get"):
                    clock.advance(1.0)
    return tracer


def test_child_intervals_nest_inside_parent():
    tracer = _request_tree(VirtualClock(0.0))
    assert tracer.active_span_count() == 0
    (spans,) = tracer.complete_traces().values()
    by_id = {s.span_id: s for s in spans}
    assert sum(s.is_root for s in spans) == 1
    for span in spans:
        if span.parent_id is None:
            continue
        parent = by_id[span.parent_id]
        assert parent.start <= span.start <= span.end <= parent.end


def test_stage_latencies_self_seconds_is_exclusive_time():
    stages = _request_tree(VirtualClock(0.0)).stage_latencies()
    assert stages["router.handle"] == {
        "count": 1, "self_seconds": 1.0, "subtree_seconds": 5.0
    }
    assert stages["recommender.recommend"] == {
        "count": 1, "self_seconds": 2.0, "subtree_seconds": 4.0
    }
    assert stages["kv.get"] == {
        "count": 2, "self_seconds": 2.0, "subtree_seconds": 2.0
    }


def test_span_tree_renders_nested_structure():
    tracer = _request_tree(VirtualClock(0.0))
    trace_id = next(iter(tracer.complete_traces()))
    tree = tracer.span_tree(trace_id)
    assert tree["name"] == "router.handle"
    assert (tree["self_seconds"], tree["subtree_seconds"]) == (1.0, 5.0)
    assert [c["name"] for c in tree["children"]] == ["recommender.recommend"]
    rec = tree["children"][0]
    assert [c["name"] for c in rec["children"]] == ["kv.get", "kv.get"]
    assert rec["self_seconds"] == 2.0


def test_to_json_is_schema_v2():
    tracer = _request_tree(VirtualClock(0.0))
    document = json.loads(tracer.to_json())
    assert document["schema_version"] == TRACE_SCHEMA_VERSION == 2
    assert len(document["spans"]) == 4
    assert set(document["spans"][0]) == {
        "trace_id", "span_id", "parent_id", "name", "start", "end",
        "attributes", "error",
    }
