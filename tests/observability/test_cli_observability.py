"""CLI surface of the telemetry layer: flags, verbs, and exit codes."""

import csv
import json

import pytest

from repro.cli import main
from repro.cnf.dimacs import write_dimacs_file
from repro.generators.pigeonhole import pigeonhole_formula
from repro.observability import read_trace, summarize_trace, validate_event


def _write(tmp_path, formula, name="f.cnf"):
    path = tmp_path / name
    write_dimacs_file(formula, path)
    return str(path)


def test_solve_trace_and_metrics_out_produce_valid_artifacts(tmp_path, capsys):
    cnf = _write(tmp_path, pigeonhole_formula(6))
    trace_path = tmp_path / "t.jsonl"
    metrics_path = tmp_path / "m.csv"
    code = main([
        "solve", cnf,
        "--trace-out", str(trace_path),
        "--metrics-out", str(metrics_path),
        "--metrics-interval", "128",
    ])
    out = capsys.readouterr().out
    assert code == 20
    assert "c trace written to" in out
    assert "c metrics written to" in out

    events = list(read_trace(trace_path))  # read_trace validates every line
    assert events[0]["type"] == "solve_start"
    assert events[-1]["type"] == "solve_end"
    kinds = {event["type"] for event in events}
    assert {"decision", "conflict"} <= kinds

    with open(metrics_path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) >= 2  # interval 128 on a ~700-conflict solve
    assert float(rows[-1]["props_per_sec"]) >= 0.0
    assert rows[0]["skin_p50"] != ""


def test_trace_summary_text_and_json(tmp_path, capsys):
    cnf = _write(tmp_path, pigeonhole_formula(5))
    trace_path = tmp_path / "t.jsonl"
    assert main(["solve", cnf, "--trace-out", str(trace_path)]) == 20
    capsys.readouterr()

    assert main(["trace-summary", str(trace_path)]) == 0
    text = capsys.readouterr().out
    assert "decision-source mix" in text
    assert "skin distance" in text
    assert "top_clause" in text

    assert main(["trace-summary", str(trace_path), "--json"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary == summarize_trace(trace_path)
    assert summary["decision_source_mix"]["top_clause"] > 0.5


def test_trace_summary_skips_unknown_event_types(tmp_path, capsys):
    # Unknown event *types* are forward-compat skipped with a counted
    # warning (a trace from a newer schema still summarises)...
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"type":"mystery"}\n')
    assert main(["trace-summary", str(bad)]) == 0
    captured = capsys.readouterr()
    assert "skipped 1 event(s) of unknown type" in captured.out
    assert "mystery=1" in captured.out


def test_trace_summary_rejects_corrupt_known_event(tmp_path, capsys):
    # ...but a *known* type with missing fields is corruption, refused.
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"type":"conflict"}\n')
    assert main(["trace-summary", str(bad)]) == 2
    assert "repro-sat: error:" in capsys.readouterr().err


def test_trace_summary_missing_file_is_one_line_error(tmp_path, capsys):
    assert main(["trace-summary", str(tmp_path / "nope.jsonl")]) == 2
    assert "repro-sat: error:" in capsys.readouterr().err


def test_solve_dashboard_warns_on_sequential_path(tmp_path, capsys):
    cnf = _write(tmp_path, pigeonhole_formula(3))
    assert main(["solve", cnf, "--dashboard"]) == 20
    assert "--dashboard applies to the parallel engines" in capsys.readouterr().err


def test_batch_dashboard_and_trace_flags(tmp_path, capsys):
    files = [
        _write(tmp_path, pigeonhole_formula(3), "a.cnf"),
        _write(tmp_path, pigeonhole_formula(4), "b.cnf"),
    ]
    trace_path = tmp_path / "t.jsonl"
    code = main([
        "batch", *files, "--jobs", "2",
        "--dashboard", "--trace-out", str(trace_path),
    ])
    captured = capsys.readouterr()
    assert code == 0
    assert "fleet: 2 lanes" in captured.err
    assert "lane 0: done (UNSAT)" in captured.err
    assert "fleet finished: " in captured.err
    # A healthy fleet traces its lifecycle and no fault: fleet_start,
    # one worker_start and one job_end per file, and fleet_end.
    assert "c trace written to" in captured.out
    events = list(read_trace(trace_path))
    assert events[0]["type"] == "fleet_start" and events[-1]["type"] == "fleet_end"
    launches = [event["type"] for event in events if event["type"].startswith("worker_")]
    assert launches == ["worker_start", "worker_start"]
    assert sorted(event["lane"] for event in events if event["type"] == "job_end") == [0, 1]


def test_portfolio_dashboard_renders_lanes(tmp_path, capsys):
    cnf = _write(tmp_path, pigeonhole_formula(5))
    code = main(["solve", cnf, "--portfolio", "--jobs", "2", "--dashboard"])
    captured = capsys.readouterr()
    assert code == 20
    assert "fleet: 2 lanes" in captured.err
    assert "fleet finished: UNSAT by" in captured.err


def test_audit_round_metrics_and_trace(tmp_path, capsys):
    trace_path = tmp_path / "audit.jsonl"
    metrics_path = tmp_path / "rounds.csv"
    code = main([
        "audit", "--rounds", "2", "--seed", "0",
        "--trace-out", str(trace_path), "--metrics-out", str(metrics_path),
    ])
    assert code == 0
    events = list(read_trace(trace_path))
    assert [event["type"] for event in events] == [
        "fleet_start",
        "audit_round_start", "audit_round",
        "audit_round_start", "audit_round",
        "fleet_end",
    ]
    rounds = [event for event in events if event["type"] == "audit_round"]
    for event in rounds:
        assert validate_event(event) is None
        assert event["ok"] is True
    with open(metrics_path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert [row["round"] for row in rows] == ["0", "1"]
    assert {row["type"] for row in rows} == {"audit_round"}


def test_fleet_metrics_rows_carry_a_lane_column(tmp_path, capsys):
    import argparse

    from repro.cli import _open_fleet_sink, _report_fleet_outputs

    path = tmp_path / "telemetry.jsonl"
    args = argparse.Namespace(trace_out=None, metrics_out=str(path), dashboard=False)
    sink, trace, rows = _open_fleet_sink(args, "lane_progress")
    assert trace is None
    sink.emit({"type": "fleet_start", "count": 1})
    sink.emit({"type": "worker_start", "lane": 0, "attempt": 0})
    sink.emit({"type": "lane_progress", "lane": 0, "conflicts": 300,
               "props_per_sec": 1000.0, "conflicts_per_sec": 50.0})
    sink.close()
    _report_fleet_outputs(args, trace, rows)
    assert "(1 rows)" in capsys.readouterr().out
    written = [json.loads(line) for line in path.read_text().splitlines()]
    assert written == [{"lane": 0, "conflicts": 300, "props_per_sec": 1000.0,
                        "conflicts_per_sec": 50.0}]


def test_keyboard_interrupt_exits_130(tmp_path, capsys, monkeypatch):
    import repro.parallel

    def boom(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(repro.parallel, "solve_batch", boom)
    cnf = _write(tmp_path, pigeonhole_formula(3))
    assert main(["batch", cnf, "--dashboard"]) == 130
    assert "repro-sat: interrupted" in capsys.readouterr().err


def test_bench_report_header_records_sha_and_metrics_interval(tmp_path, capsys):
    out_path = tmp_path / "BENCH.json"
    code = main(["bench", "--scale", "quick", "--repeats", "1",
                 "--no-agreement", "--out", str(out_path)])
    assert code == 0
    report = json.loads(out_path.read_text())
    assert report["metrics_interval"] == 0  # timed runs pay no telemetry
    sha = report["git_sha"]
    assert sha is None or (len(sha) == 40 and set(sha) <= set("0123456789abcdef"))


# ----------------------------------------------------------------------
# Service-trace verbs: trace-summary --service and trace-export
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def service_trace(tmp_path_factory):
    """A real service trace: one traced solve through a 1-worker pool."""
    import time

    from repro.observability import JsonlTraceSink
    from repro.server.protocol import Request
    from repro.server.service import SolverService
    from repro.solver.config import config_by_name

    path = tmp_path_factory.mktemp("svc") / "service.jsonl"
    with JsonlTraceSink(path) as sink:
        service = SolverService(
            pool_size=1, config=config_by_name("berkmin", seed=5), trace=sink
        )
        try:
            replies: list = []
            service.handle(
                Request(op="solve", request_id=1, clauses=[[1], [2]]),
                "cli-test",
                replies.append,
            )
            deadline = time.monotonic() + 60.0
            while not replies and time.monotonic() < deadline:
                service.tick()
                time.sleep(0.01)
            assert replies and replies[0]["kind"] == "result"
        finally:
            service.close()
    return path


def test_trace_summary_service_text_and_json(service_trace, capsys):
    assert main(["trace-summary", str(service_trace), "--service"]) == 0
    text = capsys.readouterr().out
    assert "service trace summary:" in text
    assert "requests by op:" in text
    assert "phase latency (ms):" in text
    assert "span trees: 1 traced, 1 complete" in text

    assert main(["trace-summary", str(service_trace), "--service", "--json"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["requests_by_op"] == {"solve": 1}
    assert summary["replies_by_kind"] == {"result": 1}
    assert summary["requests_incomplete"] == []
    assert summary["phase_latency_ms"]["solve"]["count"] >= 1


def test_plain_trace_summary_tolerates_span_events(service_trace, capsys):
    # The classic search summary must not choke on a service trace —
    # span events are known types it simply counts.
    assert main(["trace-summary", str(service_trace)]) == 0
    out = capsys.readouterr().out
    assert "span_start=" in out and "span_end=" in out


def test_trace_export_writes_chrome_trace_json(service_trace, tmp_path, capsys):
    out_path = tmp_path / "timeline.json"
    assert main(["trace-export", str(service_trace), "-o", str(out_path)]) == 0
    captured = capsys.readouterr()
    assert "c exported" in captured.out and str(out_path) in captured.out

    exported = json.loads(out_path.read_text())
    assert exported["displayTimeUnit"] == "ms"
    events = exported["traceEvents"]
    spans = [event for event in events if event.get("ph") == "X"]
    names = {event["name"] for event in spans}
    assert {"request", "validate", "admit", "queue", "solve-attempt-0"} <= names
    for event in spans:
        assert event["ts"] >= 0 and event["dur"] >= 0
        assert event["pid"] == 1 and isinstance(event["tid"], int)
    # Exactly one request thread, named with the correlation ID.
    metas = [event for event in events if event.get("ph") == "M"]
    assert len(metas) == 1
    assert metas[0]["args"]["name"].startswith("req-")


def test_trace_export_filters_by_request_id(service_trace, tmp_path, capsys):
    out_path = tmp_path / "empty.json"
    code = main([
        "trace-export", str(service_trace),
        "-o", str(out_path), "--request", "req-nonexistent-000000",
    ])
    captured = capsys.readouterr()
    assert code == 0
    assert "c exported 0 spans" in captured.out
    assert "no span events found" in captured.err
    assert json.loads(out_path.read_text())["traceEvents"] == []


def test_trace_export_missing_file_is_one_line_error(tmp_path, capsys):
    code = main([
        "trace-export", str(tmp_path / "nope.jsonl"), "-o", str(tmp_path / "o.json")
    ])
    assert code == 2
    assert "repro-sat: error:" in capsys.readouterr().err
