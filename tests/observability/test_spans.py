"""Unit tests for the request-scoped span layer.

The service's :class:`~repro.server.ops.ServiceOps` emits each phase as
``span_start`` / ``span_end`` events and folds them into its live views.
"""

import json

from repro.observability import (
    REQUEST_PHASES,
    IdMinter,
    RingBufferSink,
    chrome_trace_from_events,
    phase_of,
    validate_event,
)
from repro.server.ops import ServiceOps


class FakeClock:
    """Deterministic monotonic clock the tests advance by hand."""

    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def make_tracker(trace=None):
    clock = FakeClock()
    tracker = ServiceOps(trace, minter=IdMinter(token="cafe01"), clock=clock)
    return tracker, clock


def _of_type(sink, kind):
    return [event for event in sink.events if event["type"] == kind]


def test_phase_of_collapses_attempts():
    assert phase_of("solve-attempt-0") == "solve"
    assert phase_of("solve-attempt-17") == "solve"
    for phase in REQUEST_PHASES:
        if phase != "solve":
            assert phase_of(phase) == phase


def test_minter_is_deterministic_with_token_and_unique_without():
    minted = IdMinter(token="abc123")
    assert minted.mint() == "req-abc123-000000"
    assert minted.mint() == "req-abc123-000001"
    assert IdMinter().mint() != IdMinter().mint()


def test_tracker_builds_a_complete_tree():
    sink = RingBufferSink()
    tracker, clock = make_tracker(sink)
    rid = tracker.begin_request("solve", "client-1")
    assert rid == "req-cafe01-000000"
    assert tracker.open_count == 1

    span = tracker.begin(rid, "validate")
    clock.advance(0.010)
    tracker.end(rid, span, status="ok")

    span = tracker.begin(rid, "admit")
    clock.advance(0.005)
    tracker.end(rid, span, status="ok")

    span = tracker.begin(rid, "queue")
    clock.advance(0.100)
    tracker.end(rid, span, status="ok")

    span = tracker.begin(rid, "solve-attempt-0", attempt=0)
    clock.advance(0.500)
    tracker.end(rid, span, status="ok", conflicts=1234)

    tracker.record(rid, "verify", 0.020)
    tracker.finish_request(rid, "result")

    assert tracker.open_count == 0
    assert tracker.finished == 1
    starts = _of_type(sink, "span_start")
    ends = _of_type(sink, "span_end")
    assert [start["name"] for start in starts] == [
        "request", "validate", "admit", "queue", "solve-attempt-0", "verify",
    ]
    # Children hang off the root, and every span closed.
    root = starts[0]
    assert root["request_id"] == rid and root["op"] == "solve"
    assert all(start["parent_id"] == root["span_id"] for start in starts[1:])
    assert sorted(end["span_id"] for end in ends) == sorted(
        start["span_id"] for start in starts
    )
    root_end = ends[-1]
    assert root_end["name"] == "request" and root_end["kind"] == "result"
    assert root_end["duration_ms"] == 615.0
    # The fold fed each phase and the whole request to the histograms.
    latency = tracker.latency()
    assert latency["validate"]["p50"] == 0.010
    assert latency["admit"]["p50"] == 0.005
    assert latency["queue"]["p50"] == 0.100
    assert latency["solve"]["p50"] == 0.500
    assert latency["verify"]["p50"] == 0.020
    assert latency["request"]["p50"] == 0.615


def test_finish_closes_stragglers_as_unfinished():
    sink = RingBufferSink()
    tracker, clock = make_tracker(sink)
    rid = tracker.begin_request("solve", "c")
    tracker.begin(rid, "queue")
    clock.advance(1.0)
    tracker.finish_request(rid, "deadline")
    assert tracker.open_count == 0  # finish closed it...
    straggler, root = _of_type(sink, "span_end")
    assert straggler["name"] == "queue"
    assert straggler["status"] == "unfinished"  # ...but said so honestly
    assert root["kind"] == "deadline"


def test_end_is_idempotent_and_ignores_unknown_ids():
    sink = RingBufferSink()
    tracker, clock = make_tracker(sink)
    rid = tracker.begin_request("solve", "c")
    span = tracker.begin(rid, "validate")
    clock.advance(0.010)
    tracker.end(rid, span)
    clock.advance(5.0)
    tracker.end(rid, span)  # second end must not stretch the span
    tracker.end(rid, "s999999")  # unknown span id: no-op
    tracker.end("req-nope-000000", span)  # unknown request: no-op
    tracker.finish_request(rid, "result")
    assert tracker.latency()["validate"]["p50"] == 0.010
    # Operations against a sealed request are also no-ops.
    emitted = len(sink)
    assert tracker.begin(rid, "late") is None
    tracker.record(rid, "late", 0.1)
    tracker.finish_request(rid, "result")
    assert len(sink) == emitted
    assert tracker.finished == 1


def test_open_requests_reports_oldest_first_with_open_spans():
    tracker, clock = make_tracker()
    old = tracker.begin_request("solve", "a")
    tracker.begin(old, "queue")
    clock.advance(2.0)
    young = tracker.begin_request("solve", "b")
    clock.advance(1.0)
    rows = tracker.open_requests()
    assert [row["request_id"] for row in rows] == [old, young]
    assert rows[0]["age_seconds"] == 3.0
    assert rows[0]["open_spans"] == ["queue"]
    assert tracker.open_requests(limit=1) == rows[:1]


def test_mirrored_events_are_schema_valid():
    sink = RingBufferSink()
    tracker, clock = make_tracker(sink)
    rid = tracker.begin_request("solve", "client-7")
    span = tracker.begin(rid, "solve-attempt-1", attempt=1,
                         resumed_from_conflicts=250)
    clock.advance(0.25)
    tracker.end(rid, span, status="ok", conflicts=900)
    tracker.finish_request(rid, "result")

    assert [event["type"] for event in sink.events] == [
        "span_start", "span_start", "span_end", "span_end",
    ]
    for event in sink.events:
        assert validate_event(event) is None, (event, validate_event(event))
    start = sink.events[1]
    assert start["attempt"] == 1
    assert start["resumed_from_conflicts"] == 250
    end = sink.events[2]
    assert end["duration_ms"] == 250.0
    assert end["conflicts"] == 900
    root_end = sink.events[3]
    assert root_end["name"] == "request"
    assert root_end["kind"] == "result"


def test_chrome_trace_from_trees_is_well_formed():
    # A request tree, recorded as its mirrored span events.
    sink = RingBufferSink()
    tracker, clock = make_tracker(sink)
    rid = tracker.begin_request("solve", "c")
    span = tracker.begin(rid, "validate")
    clock.advance(0.010)
    tracker.end(rid, span, status="ok")
    tracker.finish_request(rid, "result")

    exported = chrome_trace_from_events(sink.events)
    assert exported["displayTimeUnit"] == "ms"
    events = exported["traceEvents"]
    meta = [event for event in events if event["ph"] == "M"]
    spans = [event for event in events if event["ph"] == "X"]
    assert len(meta) == 1 and meta[0]["args"]["name"] == rid
    assert {event["name"] for event in spans} == {"request", "validate"}
    for event in spans:
        assert event["pid"] == 1 and event["tid"] == 1
        assert event["ts"] >= 0 and event["dur"] >= 0
    json.dumps(exported)  # must be JSON-serializable as-is


def test_chrome_trace_from_events_pairs_and_flags_orphans():
    sink = RingBufferSink()
    tracker, clock = make_tracker(sink)
    rid = tracker.begin_request("solve", "c")
    done = tracker.begin(rid, "validate")
    clock.advance(0.010)
    tracker.end(rid, done, status="ok")
    tracker.begin(rid, "queue")  # started, never ended
    events = sink.events

    exported = chrome_trace_from_events(events)
    spans = {e["name"]: e for e in exported["traceEvents"] if e["ph"] == "X"}
    assert spans["validate"]["dur"] == 10000.0  # 10ms in microseconds
    assert spans["queue"]["dur"] == 0.0
    assert spans["queue"]["args"] == {"incomplete": True}
    # The earliest span is normalized to ts 0.
    assert min(e["ts"] for e in exported["traceEvents"] if e["ph"] == "X") == 0

    # Filtering to an unknown request exports nothing.
    empty = chrome_trace_from_events(events, request_id="req-other-000000")
    assert empty["traceEvents"] == []
