"""Smoke coverage for the BCP perf harness (``repro.bench`` + the CLI verb).

Marked ``perf_smoke``: fast checks that the harness runs, agrees with
the DPLL oracle, and produces a well-formed ``BENCH_*.json`` report — kept in
tier-1 (``make perf-smoke`` runs just these).  The real timed suite is
``make bench-bcp`` / ``repro-sat bench``, which is too slow for tier-1.
"""

from __future__ import annotations

import json

import pytest

from repro import bench
from repro.cli import main
from repro.generators import pigeonhole_formula, queens_formula

pytestmark = pytest.mark.perf_smoke

#: Tiny pinned instance: fast enough for tier-1, binary-heavy enough to
#: exercise the binary implication arrays.
_TINY = bench.BenchInstance("hole4", "pigeonhole", lambda: pigeonhole_formula(4))


def test_suite_is_pinned():
    names = [instance.name for instance in bench.bench_suite("quick")]
    assert names == ["hole5", "hole6", "queens8", "parity16_sat", "ksat60"]
    assert len(bench.bench_suite("full")) > len(bench.bench_suite("default"))
    with pytest.raises(ValueError, match="unknown bench scale"):
        bench.bench_suite("nope")


def test_run_instance_times_all_engines_and_agrees():
    row = bench.run_instance(_TINY, repeats=1)
    assert row["name"] == "hole4"
    assert row["status"] == "UNSAT"
    assert row["conflicts"] > 0 and row["propagations"] > 0
    assert row["wall_seconds"] > 0
    for rate in ("propagations_per_second", "conflicts_per_second", "decisions_per_second"):
        assert row[rate] > 0
    assert row["check_seconds"] > 0
    assert row["check_per_search"] == round(row["check_seconds"] / row["wall_seconds"], 2)


def test_sat_rows_carry_no_check_columns():
    queens = bench.BenchInstance("queens5", "queens", lambda: queens_formula(5))
    row = bench.run_instance(queens, repeats=1)
    assert row["status"] == "SAT"
    assert row["check_seconds"] is None and row["check_per_search"] is None
    assert "queens5" in bench.format_table(_report(row))


def test_rejected_proof_fails_the_bench(monkeypatch):
    import repro.reliability.verify as verify
    from repro.proof import ProofError

    def reject(formula, proof, **kwargs):
        raise ProofError("step 0: clause [1] is not a RUP consequence")

    monkeypatch.setattr(verify, "check_rup_proof", reject)
    with pytest.raises(bench.BenchAgreementError, match="hole4: proof check failed"):
        bench.run_instance(_TINY, repeats=1)


def _report(row):
    return {
        "schema": bench.SCHEMA,
        "scale": "smoke",
        "config": "berkmin",
        "repeats": 1,
        "generated_at": "1970-01-01T00:00:00+0000",
        "instances": [row],
        "aggregate": {
            "wall_seconds": row["wall_seconds"],
            "propagations": row["propagations"],
            "propagations_per_second": row["propagations_per_second"],
        },
    }


def test_report_round_trips_and_formats(tmp_path):
    row = bench.run_instance(_TINY, repeats=1)
    report = _report(row)
    path = tmp_path / "BENCH_smoke.json"
    bench.write_report(report, str(path))
    assert json.loads(path.read_text())["schema"] == bench.SCHEMA
    table = bench.format_table(report)
    assert "hole4" in table and "props/s" in table and "chk/srch" in table
    assert "aggregate:" in table


def test_config_agreement_stage_on_one_config():
    summary = bench.check_config_agreement(["berkmin"])
    assert summary["configs_checked"] == ["berkmin"]
    assert summary["pairs_checked"] == 2  # one config x two pinned instances
    assert summary["statuses_match_oracle"] and summary["models_verified"]


def test_cli_bench_profile(capsys):
    assert main(["bench", "--profile", "--holes", "3"]) == 0
    out = capsys.readouterr().out
    assert "cProfile: pigeonhole(3)" in out
    assert "cumulative" in out


def test_session_suite_is_pinned():
    quick = bench.session_bench_suite("quick")
    assert [case.name for case in quick] == ["counter4_t9_en", "counter4_t13"]
    with pytest.raises(ValueError, match="unknown bench scale"):
        bench.session_bench_suite("huge")


def test_session_case_agrees_and_serves_from_cache():
    row = bench.run_session_case(
        bench.SessionBenchCase("counter3_t5_en", 3, 5, 6), rounds=2
    )
    assert row["statuses"] == ["UNSAT"] * 5 + ["SAT"] * 2
    assert row["session"]["served_by_search"] == 7
    assert row["session"]["served_by_cache"] == 7
    assert row["oneshot"]["wall_seconds"] > 0
    assert row["speedup"] > 0


def test_cli_bench_session_writes_report(tmp_path, capsys):
    path = tmp_path / "BENCH_smoke6.json"
    code = main(["bench", "--session", "--scale", "quick", "--out", str(path)])
    out = capsys.readouterr().out
    report = json.loads(path.read_text())
    assert report["schema"] == bench.SESSION_SCHEMA
    assert report["agreement"]["statuses_match_ground_truth"] is True
    assert "session bench" in out and "aggregate:" in out
    # Exit code reflects the >= 2x acceptance gate the report records.
    assert code == (0 if report["aggregate"]["meets_target"] else 1)
