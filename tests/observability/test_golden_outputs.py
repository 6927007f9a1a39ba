"""Golden-file tests: the trace views over traces recorded earlier.

``tests/observability/golden/`` holds four small recorded traces (a
crash-injected batch, a hole4 solve, a two-round audit and a
three-request solver-service run) next to the outputs the CLI printed
for them when they were recorded.  Each case regenerates one output
from its trace and compares it byte for byte, so a change to the event
stream or to a view cannot silently change what old traces report.
The CLI runs from the golden directory so the printed path is the bare
file name.  ``golden/README.md`` says how the traces were recorded.
"""

from pathlib import Path

import pytest

from repro.cli import main

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
