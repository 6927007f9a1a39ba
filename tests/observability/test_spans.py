"""Unit tests for the request-scoped span layer."""

import json

from repro.observability import (
    REQUEST_PHASES,
    IdMinter,
    RingBufferSink,
    SpanTracker,
    chrome_trace_from_events,
    phase_of,
    validate_event,
)


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
    tracker = SpanTracker(
        trace, minter=IdMinter(token="cafe01"), clock=clock
    )
    return tracker, clock


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
    tracker, clock = make_tracker()
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
    tree = tracker.finish_request(rid, "result")

    assert tracker.open_count == 0
    assert tracker.finished == 1
    assert tree["request_id"] == rid
    assert tree["op"] == "solve"
    assert tree["reply_kind"] == "result"
    assert tree["complete"] is True
    assert tree["attempts"] == 1
    assert tree["duration_seconds"] == 0.615
    assert tree["phases"]["validate"] == 0.010
    assert tree["phases"]["admit"] == 0.005
    assert tree["phases"]["queue"] == 0.100
    assert tree["phases"]["solve"] == 0.500
    assert tree["phases"]["verify"] == 0.020
    names = [span["name"] for span in tree["spans"]]
    assert names == [
        "request", "validate", "admit", "queue", "solve-attempt-0", "verify",
    ]
    # Children hang off the root.
    root_id = tree["spans"][0]["span_id"]
    assert all(span["parent_id"] == root_id for span in tree["spans"][1:])


def test_finish_closes_stragglers_as_unfinished():
    tracker, clock = make_tracker()
    rid = tracker.begin_request("solve", "c")
    tracker.begin(rid, "queue")
    clock.advance(1.0)
    tree = tracker.finish_request(rid, "deadline")
    assert tree["complete"] is True  # finish closed it...
    straggler = tree["spans"][1]
    assert straggler["status"] == "unfinished"  # ...but said so honestly


def test_end_is_idempotent_and_ignores_unknown_ids():
    tracker, clock = make_tracker()
    rid = tracker.begin_request("solve", "c")
    span = tracker.begin(rid, "validate")
    clock.advance(0.010)
    tracker.end(rid, span)
    clock.advance(5.0)
    tracker.end(rid, span)  # second end must not stretch the span
    tracker.end(rid, "s999999")  # unknown span id: no-op
    tracker.end("req-nope-000000", span)  # unknown request: no-op
    tree = tracker.finish_request(rid, "result")
    assert tree["phases"]["validate"] == 0.010
    # Operations against a sealed request are also no-ops.
    assert tracker.begin(rid, "late") is None
    assert tracker.record(rid, "late", 0.1) is None
    assert tracker.finish_request(rid) is None


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


def test_completed_history_is_bounded():
    tracker, _ = make_tracker()
    tracker.completed = type(tracker.completed)(maxlen=2)
    for index in range(5):
        rid = tracker.begin_request("ping", "c")
        tracker.finish_request(rid, "pong")
    assert tracker.finished == 5
    assert len(tracker.completed) == 2


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
