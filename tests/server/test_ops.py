"""The ops plane: metrics op, scrape, stats extension, spans under faults."""

import io
import time

from repro.cli import build_parser
from repro.generators import pigeonhole_formula
from repro.observability import FleetDashboard, IdMinter, MultiSink, RingBufferSink
from repro.reliability.faults import FaultPlan, FaultSpec
from repro.reliability.retry import RetryPolicy
from repro.server.ops import (
    ServiceDashboardAdapter,
    ServiceOps,
    prometheus_text,
)
from repro.server.protocol import Request
from repro.server.service import SolverService
from repro.solver.config import VERIFY_FULL, config_by_name

HOLE6 = [list(clause) for clause in pigeonhole_formula(6).clauses]


def drive(service, request, client="tester", budget_seconds=120.0):
    """handle() one request and tick until its reply arrives."""
    replies: list = []
    service.handle(request, client, replies.append)
    deadline = time.monotonic() + budget_seconds
    while not replies and time.monotonic() < deadline:
        service.tick()
        time.sleep(0.01)
    assert replies, "request never answered"
    return replies[0]


# ----------------------------------------------------------------------
# ServiceOps unit behavior
# ----------------------------------------------------------------------
def test_ops_counts_requests_and_settles_slo():
    ops = ServiceOps(latency_objective=10.0, minter=IdMinter(token="aa0000"))
    rid = ops.begin_request("solve", "c")
    ops.finish_request(rid, "result", reply_seconds=0.001)
    assert ops.finished == 1
    assert ops.counts("requests_") == {"solve": 1}
    assert ops.counts("replies_") == {"result": 1}
    slo = ops.slo()
    assert slo == {
        "objective_seconds": 10.0,
        "requests": 1,
        "within_objective": 1,
        "burn_ratio": 0.0,
    }
    ops.finish_request(None, "error")  # untracked: no-op
    assert ops.counts("replies_") == {"result": 1}
    assert ops.finished == 1


def test_ops_burns_budget_on_slow_requests():
    clock_value = [0.0]
    ops = ServiceOps(latency_objective=0.5, clock=lambda: clock_value[0])
    rid = ops.begin_request("solve", "c")
    clock_value[0] = 2.0  # the request took 2s against a 0.5s objective
    ops.finish_request(rid, "result")
    assert ops.slo()["burn_ratio"] == 1.0
    assert ops.latency()["request"]["count"] == 1


def test_ops_rejects_nonpositive_objective():
    try:
        ServiceOps(latency_objective=0.0)
    except ValueError:
        pass
    else:
        raise AssertionError("objective 0 must be rejected")


# ----------------------------------------------------------------------
# The metrics op and the scrape
# ----------------------------------------------------------------------
def test_metrics_op_serves_a_prometheus_scrape():
    service = SolverService(pool_size=1, config=config_by_name("berkmin", seed=3))
    try:
        reply = drive(service, Request(op="solve", request_id=1, clauses=[[1]]))
        assert reply["kind"] == "result" and reply["status"] == "SAT"
        metrics_reply = drive(service, Request(op="metrics", request_id=2))
    finally:
        service.close()

    assert metrics_reply["kind"] == "metrics"
    body = metrics_reply["metrics"]
    assert isinstance(body, str) and body.endswith("\n")
    # Counters, by op and by kind.
    assert 'reprosat_requests_total{op="solve"} 1' in body
    assert 'reprosat_replies_total{kind="result"} 1' in body
    # Every observed phase exposes p50/p90/p99.
    for phase in ("validate", "admit", "queue", "solve", "reply", "request"):
        for quantile in ("0.5", "0.9", "0.99"):
            assert (
                f'reprosat_phase_latency_seconds{{phase="{phase}",'
                f'quantile="{quantile}"}}' in body
            ), (phase, quantile)
    # Gauges from the defense layers and the pool.
    assert "reprosat_pool_size 1" in body
    assert "reprosat_admission_in_flight 0" in body
    assert "reprosat_breaker_quarantined 0" in body
    assert "reprosat_cache_entries 1" in body
    assert "reprosat_slo_objective_seconds 1.0" in body
    # HELP/TYPE headers precede samples (text exposition format).
    assert body.index("# HELP reprosat_requests_total") < body.index(
        'reprosat_requests_total{op="solve"}'
    )


def test_stats_op_carries_spans_latency_and_slo_sections():
    service = SolverService(pool_size=1, config=config_by_name("berkmin", seed=3))
    try:
        drive(service, Request(op="solve", request_id=1, clauses=[[2]]))
        reply = drive(service, Request(op="stats", request_id=2))
    finally:
        service.close()
    stats = reply["stats"]
    # The stats request itself is still open while its payload is built
    # — the honest answer, and exactly what the `top` view wants.
    assert stats["spans"]["open"] == 1
    assert stats["spans"]["completed"] >= 1
    assert [row["op"] for row in stats["spans"]["slowest_open"]] == ["stats"]
    assert stats["slo"]["requests"] >= 1
    assert stats["latency"]["solve"]["count"] == 1
    assert stats["latency"]["request"]["p50"] is not None


# ----------------------------------------------------------------------
# Span propagation across the retry + warm-resume seam
# ----------------------------------------------------------------------
def test_request_id_survives_sigkill_retry_and_warm_resume(tmp_path):
    sink = RingBufferSink(capacity=65536)
    service = SolverService(
        pool_size=1,
        config=config_by_name("berkmin", seed=7),
        verification=VERIFY_FULL,
        retry=RetryPolicy(max_attempts=3, backoff=0.01),
        stall_seconds=10.0,
        checkpoint_dir=str(tmp_path),
        checkpoint_interval=50,
        fault_plan=FaultPlan(
            specs=(
                FaultSpec(mode="signal", worker=0, attempt=0, after_conflicts=100),
            )
        ),
        trace=sink,
    )
    try:
        reply = drive(service, Request(op="solve", request_id=1, clauses=HOLE6))
    finally:
        service.close()

    # The request recovered to its true, verified answer.
    assert reply["kind"] == "result" and reply["status"] == "UNSAT", reply
    assert reply["attempts"] == 2

    assert service.ops.open_count == 0
    starts = [e for e in sink.events if e["type"] == "span_start"]
    ends = [e for e in sink.events if e["type"] == "span_end"]
    rid = starts[0]["request_id"]

    # One complete tree, same request_id, one attempt span per launch.
    assert {e["request_id"] for e in starts + ends} == {rid}
    assert sorted(e["span_id"] for e in ends) == sorted(e["span_id"] for e in starts)
    attempt_spans = [e for e in ends if e["name"].startswith("solve-attempt-")]
    assert [span["name"] for span in attempt_spans] == [
        "solve-attempt-0", "solve-attempt-1",
    ]
    first, second = attempt_spans
    # The killed attempt closed with the fault as its status.
    assert "crashed" in (first.get("status") or ""), first
    # The relaunch warm-resumed from the checkpoint, and the final
    # conflict total is monotone across the seam.
    resumed = second["resumed_from_conflicts"]
    assert resumed > 0
    assert second["conflicts"] >= resumed
    assert second["status"] == "ok"
    # Verification time was attributed to the request as its own phase.
    verify = [e for e in ends if e["name"] == "verify"]
    assert len(verify) == 1 and verify[0]["duration_ms"] > 0

    # The supervision events on the trace bus carry the same
    # correlation ID as the spans.
    retries = [e for e in sink.events if e["type"] == "worker_retry"]
    assert retries and all(e.get("request_id") == rid for e in retries)
    faults = [e for e in sink.events if e["type"] == "worker_fault"]
    assert faults and all(e.get("request_id") == rid for e in faults)


# ----------------------------------------------------------------------
# Dashboard adapter: unbounded job ids onto fixed slots
# ----------------------------------------------------------------------
def _start(lane):
    return {"type": "worker_start", "lane": lane, "attempt": 0}


def _progress(lane, conflicts):
    return {"type": "lane_progress", "lane": lane, "conflicts": conflicts}


class _ClosingRing(RingBufferSink):
    closed = False

    def close(self):
        self.closed = True


def test_dashboard_adapter_leases_and_frees_slots():
    inner = _ClosingRing()
    adapter = ServiceDashboardAdapter(inner, slots=2)
    # fleet_start fired at construction
    assert inner.events == [
        {"type": "fleet_start", "count": 2, "labels": ["slot 0", "slot 1"]}
    ]
    inner.clear()

    # A job that expired in the queue or was shed at drain ends without
    # a launch: it takes no slot.
    adapter.emit(
        {
            "type": "job_end",
            "lane": 9,
            "answered": False,
            "attempt": 0,
            "status": "UNKNOWN",
            "limit_reason": "deadline expired",
        }
    )
    adapter.emit(_start(10))
    adapter.emit(_start(11))
    adapter.emit(_start(12))  # no free slot: silently unmapped
    adapter.emit(_progress(10, 5))
    adapter.emit(_progress(12, 9))  # unmapped: dropped
    adapter.emit({"type": "job_end", "lane": 10, "answered": True, "attempt": 0})
    adapter.emit(_start(13))  # reuses the freed slot 0
    adapter.emit({"type": "fleet_end", "summary": "summary"})
    adapter.close()

    lanes = [(event["type"], event.get("lane")) for event in inner.events]
    assert lanes == [
        ("worker_start", 0),  # job 10
        ("worker_start", 1),  # job 11
        ("lane_progress", 0),
        ("job_end", 0),
        ("worker_start", 0),  # job 13
        ("fleet_end", None),
    ]
    assert inner.events[2]["conflicts"] == 5
    assert inner.closed


def test_dashboard_adapter_rejects_zero_slots():
    try:
        ServiceDashboardAdapter(RingBufferSink(), slots=0)
    except ValueError:
        pass
    else:
        raise AssertionError("0 slots must be rejected")


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
def test_serve_parser_accepts_dashboard_and_latency_objective():
    args = build_parser().parse_args(
        ["serve", "--dashboard", "--latency-objective", "0.5"]
    )
    assert args.dashboard is True
    assert args.latency_objective == 0.5


def test_top_and_trace_export_parsers():
    args = build_parser().parse_args(["top", "--once", "--port", "1234"])
    assert args.once and args.port == 1234
    args = build_parser().parse_args(
        ["trace-export", "t.jsonl", "-o", "out.json", "--request", "req-aa-000001"]
    )
    assert args.file == "t.jsonl" and args.out == "out.json"
    assert args.request == "req-aa-000001"
    args = build_parser().parse_args(["trace-summary", "t.jsonl", "--service"])
    assert args.service is True


def test_service_monitor_sees_job_states_through_the_adapter():
    # What `repro-sat serve --dashboard` wires up: the pool's unbounded
    # job ids reach a fixed-slot fleet dashboard through the adapter,
    # which sits on the pool's sink only.
    out = io.StringIO()
    service = SolverService(pool_size=1, config=config_by_name("berkmin", seed=3))
    adapter = ServiceDashboardAdapter(FleetDashboard(out), slots=1)
    service.pool.trace = MultiSink(adapter, service.pool.trace)
    try:
        drive(service, Request(op="solve", request_id=1, clauses=[[5]]))
        drive(service, Request(op="solve", request_id=2, clauses=[[6]]))
    finally:
        service.close()
    # One slot, started at construction; both jobs ran through slot 0:
    # running -> done, twice.
    assert out.getvalue().splitlines() == [
        "fleet: 1 lanes",
        "lane 0: running",
        "lane 0: done (SAT)",
        "lane 0: running",
        "lane 0: done (SAT)",
    ]
