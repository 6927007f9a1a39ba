"""The fleet dashboard: a sink folding supervision events into lane states."""

import io

import pytest

from repro.generators.pigeonhole import pigeonhole_formula
from repro.observability import (
    LANE_STATES,
    FleetDashboard,
    MultiSink,
    RingBufferSink,
    validate_event,
)


class _FakeTty(io.StringIO):
    def isatty(self) -> bool:
        return True


def _progress(lane: int, **rates) -> dict:
    """A relayed worker telemetry row, as the pool emits it."""
    row = {
        "type": "lane_progress", "lane": lane, "conflicts": 300,
        "decisions": 900, "propagations": 20_000, "restarts": 2,
        "props_per_sec": 1000.0, "conflicts_per_sec": 50.0,
        "shared_exported": 0, "shared_imported": 0, "shared_per_sec": 0.0,
    }
    row.update(rates)
    return row


#: A canonical crash/retry/resume fleet story, as a fleet traces it.
STORY = [
    {"type": "fleet_start", "count": 2, "labels": ["berkmin", "chaff"]},
    {"type": "worker_start", "lane": 0, "attempt": 0},
    {"type": "worker_start", "lane": 1, "attempt": 0},
    _progress(0),
    {"type": "worker_fault", "lane": 0, "attempt": 0,
     "reason": "worker crashed (SIGKILL)", "will_retry": True},
    {"type": "worker_retry", "lane": 0, "attempt": 1, "resumed_from_conflicts": 200},
    {"type": "job_end", "lane": 0, "answered": True, "attempt": 1, "status": "UNSAT"},
    {"type": "job_end", "lane": 1, "answered": True, "attempt": 0, "status": "SAT"},
    {"type": "fleet_end", "summary": "2 lanes ok"},
]


def _drive(sink, events=STORY) -> None:
    for event in events:
        sink.emit(event)
    sink.close()


def _lines(events) -> list[str]:
    out = io.StringIO()
    _drive(FleetDashboard(out), events)
    return out.getvalue().splitlines()


def test_lane_states_cover_the_life_cycle():
    assert LANE_STATES == (
        "pending", "running", "retrying", "resumed",
        "quarantined", "degraded", "done",
    )


def test_dashboard_non_tty_prints_one_line_per_transition():
    for event in STORY:
        assert validate_event(event) is None, event
    lines = _lines(STORY)
    assert lines == [
        "fleet: 2 lanes",
        "lane 0: running",
        "lane 1: running",
        "lane 0: retrying (worker crashed (SIGKILL))",
        "lane 0: resumed [attempt 1]",
        "lane 0: done (UNSAT) [attempt 1]",
        "lane 1: done (SAT)",
        "fleet finished: 2 lanes ok",
    ]
    assert not any("\x1b[" in line for line in lines)  # no ANSI off-TTY


def test_dashboard_folds_each_supervision_event():
    events = [
        {"type": "fleet_start", "count": 3},
        # A relaunch without a checkpoint runs; a final fault is silent
        # because the job_end that follows degrades the lane.
        {"type": "worker_retry", "lane": 0, "attempt": 1},
        {"type": "worker_fault", "lane": 0, "attempt": 1,
         "reason": "stalled (no heartbeat)", "will_retry": False},
        {"type": "job_end", "lane": 0, "answered": False, "attempt": 1,
         "status": "UNKNOWN", "limit_reason": "stalled (no heartbeat)"},
        {"type": "lane_quarantine", "lane": 1, "attempt": 0,
         "rejections": 6, "exported": 40},
        # Grouped jobs end without a status.
        {"type": "job_end", "lane": 2, "answered": True, "attempt": 0},
        # Events that are not lane transitions are ignored.
        {"type": "share_export", "lane": 1, "attempt": 0, "seq": 1, "size": 2, "lbd": 2},
        {"type": "server_reply", "kind": "result", "cached": None},
    ]
    for event in events:
        assert validate_event(event) is None, event
    assert _lines(events) == [
        "fleet: 3 lanes",
        "lane 0: running [attempt 1]",
        "lane 0: degraded (stalled (no heartbeat)) [attempt 1]",
        "lane 1: quarantined (6 hard share rejections)",
        "lane 2: done",
    ]


def test_dashboard_folds_audit_rounds_as_lanes():
    events = [
        {"type": "fleet_start", "count": 2},
        {"type": "audit_round_start", "round": 0, "engine": "batch", "fault": "crash"},
        {"type": "audit_round", "round": 0, "engine": "batch", "fault": "crash",
         "ok": True, "retries": 1},
        {"type": "audit_round_start", "round": 1, "engine": "serve", "fault": "healthy"},
        {"type": "audit_round", "round": 1, "engine": "serve", "fault": "healthy",
         "ok": False, "retries": 0, "detail": "hole5: expected UNSAT, got SAT"},
        {"type": "fleet_end", "summary": "audit FAIL"},
    ]
    for event in events:
        assert validate_event(event) is None, event
    assert _lines(events) == [
        "fleet: 2 lanes",
        "lane 0: running (batch/crash)",
        "lane 0: done (batch/crash)",
        "lane 1: running (serve/healthy)",
        "lane 1: degraded (hole5: expected UNSAT, got SAT)",
        "fleet finished: audit FAIL",
    ]


def test_dashboard_tty_redraws_an_ansi_panel():
    out = _FakeTty()
    dashboard = FleetDashboard(out, refresh_seconds=0.0)
    _drive(dashboard)
    text = out.getvalue()
    assert "\x1b[" in text  # in-place redraws
    assert "fleet 2/2" in text
    assert "✓" in text and "↻" in text
    assert "1,000 props/s" in text
    assert text.rstrip().endswith("fleet finished: 2 lanes ok")


def test_dashboard_renders_fleet_detours_and_share_throughput():
    out = _FakeTty()
    _drive(
        FleetDashboard(out, refresh_seconds=0.0),
        [
            {"type": "fleet_start", "count": 2, "labels": ["berkmin", "chaff"]},
            {"type": "worker_start", "lane": 0, "attempt": 0},
            {"type": "worker_start", "lane": 1, "attempt": 0},
            _progress(0, shared_per_sec=4.5),
            {"type": "lane_quarantine", "lane": 0, "attempt": 0,
             "rejections": 6, "exported": 12},
            {"type": "fleet_end", "summary": "done"},
        ],
    )
    text = out.getvalue()
    assert "☣" in text
    assert "4.5 shares/s" in text


def test_dashboard_non_tty_logs_quarantine_transition():
    lines = _lines(
        [
            {"type": "fleet_start", "count": 2},
            {"type": "lane_quarantine", "lane": 0, "attempt": 0,
             "rejections": 3, "exported": 9, "reason": "byzantine sharing"},
            {"type": "fleet_end", "summary": "done"},
        ]
    )
    assert "lane 0: quarantined (3 hard share rejections)" in lines


def test_dashboard_eta_appears_when_some_lanes_finish():
    out = _FakeTty()
    dashboard = FleetDashboard(out, refresh_seconds=0.0)
    dashboard.emit({"type": "fleet_start", "count": 4})
    dashboard.emit({"type": "worker_start", "lane": 0, "attempt": 0})
    dashboard.emit({"type": "job_end", "lane": 0, "answered": True, "attempt": 0})
    assert "eta ~" in out.getvalue()


def test_dashboard_survives_a_closed_stream():
    out = io.StringIO()
    dashboard = FleetDashboard(out)
    dashboard.emit({"type": "fleet_start", "count": 1})
    out.close()
    dashboard.emit({"type": "worker_start", "lane": 0, "attempt": 0})  # must not raise
    dashboard.emit({"type": "fleet_end", "summary": "ok"})
    dashboard.close()


def test_dashboard_ignores_out_of_range_lanes():
    out = _FakeTty()
    dashboard = FleetDashboard(out, refresh_seconds=0.0)
    dashboard.emit({"type": "fleet_start", "count": 1})
    dashboard.emit({"type": "worker_start", "lane": 7, "attempt": 0})
    dashboard.emit(_progress(7))
    assert "lane 7" not in out.getvalue()
    assert dashboard.latest == {}  # telemetry of unknown lanes is dropped too


# ----------------------------------------------------------------------
# The acceptance story: a live batch with a crashing worker
# ----------------------------------------------------------------------
@pytest.mark.fault_injection
def test_batch_dashboard_shows_crash_retry_resume(tmp_path):
    """8 lanes, one SIGKILLed mid-search: running → retrying → resumed → done."""
    from repro.parallel import solve_batch
    from repro.reliability import FaultPlan, RetryPolicy
    from repro.reliability.faults import FAULT_SIGNAL, FaultSpec

    formulas = [pigeonhole_formula(6)] + [pigeonhole_formula(3)] * 7
    out = io.StringIO()
    trace = RingBufferSink()
    batch = solve_batch(
        formulas,
        jobs=4,
        retry=RetryPolicy(max_attempts=3, backoff=0.01),
        fault_plan=FaultPlan(
            (FaultSpec(FAULT_SIGNAL, worker=0, attempt=0, after_conflicts=300),)
        ),
        checkpoint_dir=tmp_path,
        checkpoint_interval=100,
        trace=MultiSink(trace, FleetDashboard(out)),
    )
    assert batch.num_unsat == 8

    lines = out.getvalue().splitlines()

    def states_of(lane: int) -> list[str]:
        prefix = f"lane {lane}: "
        return [
            line[len(prefix):].split(" ")[0]
            for line in lines
            if line.startswith(prefix)
        ]

    assert lines[0] == "fleet: 8 lanes"
    assert states_of(0) == ["running", "retrying", "resumed", "done"]
    for lane in range(1, 8):
        assert states_of(lane) == ["running", "done"]
    assert "lane 0: retrying (worker crashed (SIGKILL))" in lines
    assert "lane 0: resumed [attempt 1]" in lines
    assert lines[-1] == f"fleet finished: {batch!r}"

    # The trace records the whole fleet: its bracket, one launch event
    # per attempt, the fault, and one job_end per instance.
    events = trace.events
    for event in events:
        assert validate_event(event) is None
    assert events[0]["type"] == "fleet_start" and events[-1]["type"] == "fleet_end"
    supervision = [
        event for event in events if event["type"] in ("worker_fault", "worker_retry")
    ]
    assert [event["type"] for event in supervision] == ["worker_fault", "worker_retry"]
    assert supervision[0]["will_retry"] is True
    assert supervision[1]["resumed_from_conflicts"] >= 100
    assert sum(event["type"] == "worker_start" for event in events) == 8
    assert sorted(event["lane"] for event in events if event["type"] == "job_end") == list(
        range(8)
    )


# ----------------------------------------------------------------------
# OpsTop: the `repro-sat top` service panel
# ----------------------------------------------------------------------
STATS_SNAPSHOT = {
    "uptime_seconds": 12.0,
    "requests": 40,
    "draining": False,
    "replies": {"result": 30, "busy": 5},
    "pool": {"size": 4, "active": 2, "queued": 3, "retries": 1},
    "admission": {"in_flight": 5},
    "spans": {
        "open": 5,
        "completed": 35,
        "slowest_open": [
            {"request_id": "req-aa-000007", "op": "solve", "client": "c",
             "age_seconds": 2.5, "open_spans": ["solve-attempt-1"]},
        ],
    },
    "latency": {
        "solve": {"count": 30, "p50": 0.1, "p90": 0.4, "p99": 0.9},
        "request": {"count": 35, "p50": 0.12, "p90": 0.5, "p99": 1.1},
    },
    "slo": {"objective_seconds": 1.0, "requests": 35,
            "within_objective": 33, "burn_ratio": 0.057143},
}


def test_ops_top_non_tty_prints_one_line_per_update():
    from repro.observability import OpsTop

    out = io.StringIO()
    top = OpsTop(out)
    top.update(STATS_SNAPSHOT)
    second = dict(STATS_SNAPSHOT, requests=44)
    top.update(second)
    top.close()
    lines = out.getvalue().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("top: 40 requests, 0.0 rps")
    assert "active 2/4" in lines[0]
    assert "queued 3" in lines[0]
    assert "p50 120.0ms" in lines[0]
    assert lines[1].startswith("top: 44 requests, ")


def test_ops_top_tty_panel_shows_percentiles_and_slowest_open():
    from repro.observability import OpsTop

    out = _FakeTty()
    top = OpsTop(out)
    top.update(STATS_SNAPSHOT)
    top.close()
    panel = out.getvalue()
    assert "solver service  up 12s" in panel
    assert "40 requests" in panel
    assert "pool 2/4 active, 3 queued, 1 retries" in panel
    assert "replies: busy=5, result=30" in panel
    assert "slo: 33/35 within 1.0s" in panel
    assert "solve" in panel and "p99=   900.0ms" in panel
    assert "req-aa-000007" in panel and "solve-attempt-1" in panel


def test_ops_top_handles_minimal_stats():
    from repro.observability import OpsTop

    out = io.StringIO()
    top = OpsTop(out)
    top.update({"requests": 0})  # an old server with no ops sections
    top.close()
    line = out.getvalue().splitlines()[0]
    assert line == "top: 0 requests, 0.0 rps, in-flight 0, active 0/0, queued 0, p50 -"
