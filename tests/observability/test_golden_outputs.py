"""Golden-file tests: the trace views over traces recorded earlier.

``tests/observability/golden/`` holds four small recorded traces (a
crash-injected batch, a hole4 solve, a two-round audit and a
three-request solver-service run) next to the outputs the CLI printed
for them when they were recorded.  Each case regenerates one output
from its trace and compares it byte for byte, so a change to the event
stream or to a view cannot silently change what old traces report.
The CLI runs from the golden directory so the printed path is the bare
file name.  ``golden/README.md`` says how the traces were recorded.

One more case pins the producer side: it replays a scripted service
run and compares its live event stream with ``service_spans.jsonl``,
then checks that the service's live latency views and
``trace-summary --service`` agree on the same events.
"""

import json
import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.generators import pigeonhole_formula
from repro.observability import IdMinter, RingBufferSink, summarize_service_trace
from repro.reliability.faults import FaultPlan
from repro.reliability.retry import RetryPolicy
from repro.server.ops import ServiceOps
from repro.server.protocol import Request
from repro.server.service import SolverService
from repro.solver.config import config_by_name

GOLDEN = Path(__file__).parent / "golden"

#: (expected-output file, CLI arguments that print it).
STDOUT_CASES = [
    (f"{trace}.summary.txt", ["trace-summary", f"{trace}.jsonl"])
    for trace in ("batch_crash", "solve_hole4", "audit", "service")
] + [
    (f"{trace}.summary.json", ["trace-summary", f"{trace}.jsonl", "--json"])
    for trace in ("batch_crash", "solve_hole4", "audit", "service")
] + [
    ("service.service.txt", ["trace-summary", "service.jsonl", "--service"]),
    ("service.service.json", ["trace-summary", "service.jsonl", "--service", "--json"]),
]


@pytest.mark.parametrize(
    "expected, argv", STDOUT_CASES, ids=[name for name, _ in STDOUT_CASES]
)
def test_golden_output_is_unchanged(expected, argv, monkeypatch, capsys):
    monkeypatch.chdir(GOLDEN)
    assert main(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / expected).read_text(encoding="utf-8")


def test_golden_trace_export_is_unchanged(monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(GOLDEN)
    out = tmp_path / "service.export.json"
    assert main(["trace-export", "service.jsonl", "-o", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == (GOLDEN / "service.export.json").read_bytes()


# ----------------------------------------------------------------------
# The service's live event stream, pinned
# ----------------------------------------------------------------------
HOLE3 = [list(clause) for clause in pigeonhole_formula(3).clauses]
HOLE9 = [list(clause) for clause in pigeonhole_formula(9).clauses]


def _answer(service, request, budget_seconds=60.0):
    """handle() one request and tick until its reply arrives."""
    replies: list = []
    service.handle(request, "golden", replies.append)
    deadline = time.monotonic() + budget_seconds
    while not replies and time.monotonic() < deadline:
        service.tick()
        time.sleep(0.01)
    assert replies, f"request {request.request_id} never answered"


def scripted_service_run():
    """The eight-request service run behind ``service_spans.jsonl``.

    A clean solve, a crash followed by a retry, an exact cache hit, a
    ping, a stats request, an unknown config, then a hole9 solve with a
    request queued behind it: the queued one expires in the queue and
    the drain interrupts hole9.  Returns ``(events, service)``.
    """
    ring = RingBufferSink(capacity=65536)
    service = SolverService(
        pool_size=1,
        config=config_by_name("berkmin", seed=5),
        retry=RetryPolicy(max_attempts=3, backoff=0.01),
        fault_plan=FaultPlan.single("crash", worker=1, attempt=0),
        trace=ring,
        ops=ServiceOps(ring, minter=IdMinter(token="901d00")),
    )
    try:
        _answer(service, Request(op="solve", request_id=1, clauses=[[1], [2]]))
        _answer(service, Request(op="solve", request_id=2, clauses=HOLE3))
        _answer(service, Request(op="solve", request_id=3, clauses=[[1], [2]]))
        _answer(service, Request(op="ping", request_id=4))
        _answer(service, Request(op="stats", request_id=5))
        _answer(
            service, Request(op="solve", request_id=6, clauses=[[1]], config="nope")
        )
        late: list = []
        service.handle(
            Request(op="solve", request_id=7, clauses=HOLE9), "golden", late.append
        )
        service.handle(
            Request(op="solve", request_id=8, clauses=[[5], [6]], timeout=0.05),
            "golden",
            late.append,
        )
        stop = time.monotonic() + 1.5
        while time.monotonic() < stop:
            service.tick()
            time.sleep(0.01)
        service.drain(0.1)
        assert [reply["id"] for reply in late] == [8, 7], late
    finally:
        service.close()
    return ring.events, service


def normalize(event: dict) -> dict:
    """Drop what differs run to run: clock readings and interrupted counts."""
    event = {key: value for key, value in event.items()
             if key not in ("ts_ms", "duration_ms")}
    if "interrupted" in (event.get("status"), event.get("limit_reason")):
        event.pop("conflicts", None)
    return event


def test_service_event_stream_matches_golden_and_views_agree(tmp_path):
    events, service = scripted_service_run()
    golden = (GOLDEN / "service_spans.jsonl").read_text(encoding="utf-8").splitlines()
    stream = [normalize(event) for event in events]
    for number, (line, event) in enumerate(zip(golden, stream), start=1):
        assert event == json.loads(line), f"line {number}"
    assert len(stream) == len(golden)

    # The live views and the file view read the same spans.  The file
    # view counts one solve span per attempt; the live histogram one
    # solve phase per request.
    trace = tmp_path / "service.jsonl"
    trace.write_text(
        "".join(json.dumps(event) + "\n" for event in events), encoding="utf-8"
    )
    summary = summarize_service_trace(trace)
    live = service.ops.latency()
    file_counts = {
        phase: dist["count"] for phase, dist in summary["phase_latency_ms"].items()
    }
    file_counts["solve"] -= summary["faults"]["worker_retries"]
    assert file_counts == {phase: dist["count"] for phase, dist in live.items()}
    completed = service.ops.stats_section()["spans"]["completed"]
    assert summary["requests_complete"] == completed == 8
