"""trace-summary aggregation: the Table-3-shaped report over a trace."""

import json

import pytest

from repro.generators.pigeonhole import pigeonhole_formula
from repro.observability import (
    JsonlTraceSink,
    TraceFormatError,
    format_summary,
    summarize_trace,
)
from repro.observability.summary import _distribution
from repro.solver.config import config_by_name
from repro.solver.solver import Solver


@pytest.fixture(scope="module")
def recorded_trace(tmp_path_factory):
    path = tmp_path_factory.mktemp("trace") / "hole6.jsonl"
    with JsonlTraceSink(path) as sink:
        config = config_by_name("berkmin", trace=sink, restart_interval=64)
        result = Solver(pigeonhole_formula(6), config).solve()
    return path, result


def test_distribution_shapes():
    assert _distribution([]) == {"count": 0}
    dist = _distribution([3, 1, 2])
    assert dist["count"] == 3
    assert dist["min"] == 1 and dist["max"] == 3
    assert dist["mean"] == 2.0
    assert dist["p50"] == 2


def test_summarize_trace_reports_the_table3_evidence(recorded_trace):
    path, result = recorded_trace
    summary = summarize_trace(path)
    assert summary["events"] == sum(summary["by_type"].values())
    assert summary["decisions"] == result.stats.decisions
    mix = summary["decision_source_mix"]
    assert set(mix) == {"top_clause", "global", "vsids", "random"}
    assert abs(sum(mix.values()) - 1.0) < 0.01
    # BerkMin on pigeonhole decides overwhelmingly on the top clause
    # (the paper's Section 5 claim — the observability layer must show it).
    assert mix["top_clause"] > 0.5
    assert summary["skin_distance"]["count"] == result.stats.top_clause_decisions
    assert summary["skin_distance"]["p50"] <= summary["skin_distance"]["p99"]
    assert summary["lbd"]["count"] > 0
    assert summary["restarts"]["count"] >= 1
    assert summary["max_conflicts"] == result.stats.conflicts
    assert summary["solves"] == [
        {"status": "UNSAT", "conflicts": result.stats.conflicts, "limit_reason": None}
    ]


def test_format_summary_renders_every_section(recorded_trace):
    path, _ = recorded_trace
    text = format_summary(summarize_trace(path))
    for needle in (
        "trace summary:",
        "decision-source mix",
        "top_clause",
        "skin distance",
        "lbd",
        "restarts:",
        "db reductions:",
        "solves:",
        "UNSAT",
    ):
        assert needle in text


def test_summarize_trace_refuses_malformed_input(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"type":"decision"}\n')
    with pytest.raises(TraceFormatError, match="missing field"):
        summarize_trace(path)


def test_summarize_empty_trace(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    summary = summarize_trace(path)
    assert summary["events"] == 0
    assert summary["decisions"] == 0
    assert summary["skin_distance"] == {"count": 0}
    assert "(no samples)" in format_summary(summary)


def test_fleet_events_land_in_the_fleet_section(tmp_path):
    path = tmp_path / "fleet.jsonl"
    with JsonlTraceSink(path) as sink:
        sink.emit({"type": "worker_fault", "lane": 0, "attempt": 0,
                   "reason": "worker crashed (SIGKILL)", "will_retry": True})
        sink.emit({"type": "worker_retry", "lane": 0, "attempt": 1,
                   "resumed_from_conflicts": 300})
        sink.emit({"type": "audit_round", "round": 0, "engine": "batch",
                   "fault": "crash", "ok": False, "detail": "boom"})
    summary = summarize_trace(path)
    assert summary["fleet"] == {
        "faults": 1, "retries": 1, "audit_rounds": 1, "audit_failures": 1,
    }
    assert "fleet: 1 faults, 1 retries" in format_summary(summary)


def test_sharing_events_land_in_the_sharing_section(tmp_path):
    path = tmp_path / "sharing.jsonl"
    with JsonlTraceSink(path) as sink:
        sink.emit({"type": "share_export", "lane": 0, "attempt": 0,
                   "seq": 0, "size": 3, "lbd": 2})
        sink.emit({"type": "share_export", "lane": 1, "attempt": 0,
                   "seq": 0, "size": 2, "lbd": 1})
        sink.emit({"type": "share_import", "lane": 1, "count": 4})
        sink.emit({"type": "share_reject", "lane": 0, "reason": "bad-crc",
                   "severity": "hard"})
        sink.emit({"type": "share_reject", "lane": 0, "reason": "bad-crc",
                   "severity": "hard"})
        sink.emit({"type": "share_reject", "lane": 1,
                   "reason": "rup-unproven", "severity": "benign"})
        sink.emit({"type": "lane_quarantine", "lane": 0, "attempt": 0,
                   "rejections": 3, "exported": 7})
    summary = summarize_trace(path)
    sharing = summary["sharing"]
    assert sharing["exports"] == 2
    assert sharing["imported"] == 4
    assert sharing["import_batches"] == 1
    assert sharing["rejects"] == 3
    assert sharing["reject_reasons"] == {"bad-crc": 2, "rup-unproven": 1}
    assert sharing["quarantines"] == 1
    rendered = format_summary(summary)
    assert "clause sharing: 2 exports, 4 clauses imported in 1 batches" in rendered
    assert "bad-crc=2" in rendered
    assert "lanes: 1 quarantined" in rendered


def test_summary_skips_unknown_event_types_with_a_warning(tmp_path):
    # A line of a type that older traces carry and the schema has since
    # dropped: such traces must still summarize.
    dropped = '{"type": "lane_adapt", "lane": 1, "attempt": 0, "mutation": "restarts=luby"}'
    path = tmp_path / "future.jsonl"
    path.write_text(
        '{"type": "restart", "conflicts": 10, "restarts": 1, "learned": 5}\n'
        '{"type": "wormhole_sync", "lane": 0, "payload": "??"}\n'
        '{"type": "wormhole_sync", "lane": 1, "payload": "??"}\n'
        '{"type": "quantum_probe", "qubits": 8}\n'
        + dropped + "\n"
    )
    summary = summarize_trace(path)
    assert summary["events"] == 1  # only the known event is aggregated
    assert summary["unknown_events"] == {
        "count": 4,
        "types": {json.loads(dropped)["type"]: 1, "quantum_probe": 1, "wormhole_sync": 2},
    }
    rendered = format_summary(summary)
    assert "warning: skipped 4 event(s) of unknown type" in rendered
    assert "wormhole_sync=2" in rendered
    assert "not in this build's event schema" in rendered
    assert "newer" not in rendered  # lane_adapt was retired, not added


def test_summary_still_refuses_corrupt_known_events(tmp_path):
    # Leniency is for the future, not for corruption: a known type with
    # a missing field still fails the whole summary.
    path = tmp_path / "corrupt.jsonl"
    path.write_text('{"type": "share_reject", "lane": 0}\n')
    with pytest.raises(TraceFormatError, match="missing field"):
        summarize_trace(path)


def test_summary_surfaces_arena_inprocessing(tmp_path):
    path = tmp_path / "arena.jsonl"
    with JsonlTraceSink(path) as sink:
        config = config_by_name(
            "berkmin", trace=sink, restart_interval=20, inprocess_interval=1
        )
        solver = Solver(pigeonhole_formula(6), config).solve()
    summary = summarize_trace(path)
    totals = summary["inprocess"]
    assert totals["passes"] > 0
    assert totals["eliminated"] > 0
    assert totals["freed_words"] >= 0
    assert totals["wall_ms"] >= 0
    rendered = format_summary(summary)
    assert "inprocessing:" in rendered
    assert "variables eliminated" in rendered


# ----------------------------------------------------------------------
# The service-shaped summary (trace-summary --service)
# ----------------------------------------------------------------------
@pytest.fixture()
def service_trace(tmp_path):
    """A hand-built service trace: one clean request, one incomplete."""
    from repro.observability import IdMinter
    from repro.server.ops import ServiceOps

    path = tmp_path / "service.jsonl"
    with JsonlTraceSink(path) as sink:
        sink.emit({"type": "server_request", "client": "c1", "op": "solve",
                   "request_id": "req-aa-000000"})
        tracker = ServiceOps(sink, minter=IdMinter(token="aa"))
        rid = tracker.begin_request("solve", "c1")
        assert rid == "req-aa-000000"
        span = tracker.begin(rid, "validate")
        tracker.end(rid, span, status="ok")
        span = tracker.begin(rid, "solve-attempt-0", attempt=0)
        tracker.end(rid, span, status="ok", conflicts=12)
        tracker.finish_request(rid, "result")
        sink.emit({"type": "server_reply", "kind": "result", "cached": None,
                   "request_id": rid})
        # A second request whose span never closed (e.g. a crash before
        # the reply) plus an attributed worker fault.
        sink.emit({"type": "server_request", "client": "c2", "op": "solve",
                   "request_id": "req-aa-000009"})
        sink.emit({"type": "span_start", "request_id": "req-aa-000009",
                   "span_id": "s000099", "name": "queue", "ts_ms": 1.0})
        sink.emit({"type": "worker_fault", "lane": 3, "attempt": 0,
                   "reason": "worker crashed", "will_retry": True,
                   "request_id": "req-aa-000009"})
        sink.emit({"type": "worker_retry", "lane": 3, "attempt": 1,
                   "request_id": "req-aa-000009"})
    return path


def test_service_summary_reports_requests_phases_and_completeness(service_trace):
    from repro.observability import summarize_service_trace

    summary = summarize_service_trace(service_trace)
    assert summary["requests_by_op"] == {"solve": 2}
    assert summary["replies_by_kind"] == {"result": 1}
    assert summary["requests_traced"] == 2
    assert summary["requests_complete"] == 1
    assert summary["requests_incomplete"] == ["req-aa-000009"]
    assert summary["phase_latency_ms"]["validate"]["count"] == 1
    assert summary["phase_latency_ms"]["solve"]["count"] == 1
    assert summary["phase_latency_ms"]["request"]["count"] == 1
    assert summary["faults"] == {
        "worker_faults": 1, "worker_retries": 1, "with_request_id": 2,
    }


def test_service_summary_renders_for_terminals(service_trace):
    from repro.observability import (
        format_service_summary,
        summarize_service_trace,
    )

    rendered = format_service_summary(summarize_service_trace(service_trace))
    assert "requests by op:" in rendered
    assert "solve" in rendered
    assert "replies by kind:" in rendered
    assert "phase latency (ms):" in rendered
    assert "span trees: 2 traced, 1 complete" in rendered
    assert "left spans open (req-aa-000009)" in rendered
    assert "1 worker faults, 1 retries (2 attributed to a request)" in rendered


def test_service_summary_of_empty_trace(tmp_path):
    from repro.observability import (
        format_service_summary,
        summarize_service_trace,
    )

    path = tmp_path / "empty.jsonl"
    path.write_text("")
    summary = summarize_service_trace(path)
    assert summary["events"] == 0
    assert summary["requests_traced"] == 0
    rendered = format_service_summary(summary)
    assert "(none)" in rendered and "(no spans in trace)" in rendered
