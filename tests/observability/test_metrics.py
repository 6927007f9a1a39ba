"""Metrics instruments, the registry, and the solve-progress collector."""

import csv
import json

import pytest

from repro.generators.pigeonhole import pigeonhole_formula
from repro.observability import (
    Counter,
    Histogram,
    MetricsCollector,
    MetricsRegistry,
    RingBufferSink,
    skin_percentile,
    validate_event,
    write_rows_csv,
    write_rows_jsonl,
)
from repro.solver.config import config_by_name
from repro.solver.result import SolveStatus
from repro.solver.solver import Solver


# ----------------------------------------------------------------------
# Instruments
# ----------------------------------------------------------------------
def test_counter_accumulates_and_rejects_negatives():
    counter = Counter("conflicts")
    counter.add()
    counter.add(4)
    assert counter.value == 5
    with pytest.raises(ValueError):
        counter.add(-1)


def test_histogram_is_exact_below_reservoir_capacity():
    histogram = Histogram("depth", size=100)
    for value in range(50):
        histogram.observe(value)
    assert histogram.observed == 50
    assert histogram.quantile(0.0) == 0
    assert histogram.quantile(1.0) == 49
    summary = histogram.summary()
    assert summary["min"] == 0 and summary["max"] == 49
    assert summary["p50"] == 25


def test_histogram_reservoir_bounds_memory_and_stays_deterministic():
    first = Histogram("a", size=16, seed=3)
    second = Histogram("b", size=16, seed=3)
    for value in range(10_000):
        first.observe(value)
        second.observe(value)
    assert len(first.reservoir) == 16
    assert first.reservoir == second.reservoir  # seeded Algorithm R
    assert first.observed == 10_000
    # min/max track the true stream, not the sample.
    assert first.summary()["min"] == 0 and first.summary()["max"] == 9_999


def test_histogram_quantile_edge_cases():
    histogram = Histogram("empty")
    assert histogram.quantile(0.5) is None
    with pytest.raises(ValueError):
        histogram.quantile(1.5)
    with pytest.raises(ValueError):
        Histogram("tiny", size=0)


def test_histogram_tiny_samples_clamp_to_true_extremes():
    # A p99 extrapolated from one or two points is noise; below three
    # observations quantiles answer with the true stream min/max.
    one = Histogram("one")
    one.observe(7.0)
    assert one.quantile(0.25) == 7.0
    assert one.quantile(0.5) == 7.0
    assert one.quantile(0.99) == 7.0
    two = Histogram("two")
    two.observe(10.0)
    two.observe(2.0)
    assert two.quantile(0.0) == 2.0
    assert two.quantile(0.49) == 2.0
    assert two.quantile(0.5) == 10.0
    assert two.quantile(0.99) == 10.0
    # From three observations on, the sampled quantile takes over.
    three = Histogram("three")
    for value in (1.0, 2.0, 3.0):
        three.observe(value)
    assert three.quantile(0.5) == 2.0


def test_registry_creates_on_first_touch_and_snapshots_flat():
    registry = MetricsRegistry()
    registry.counter("conflicts").add(7)
    assert registry.counter("conflicts").value == 7  # same instrument
    registry.histogram("depth").observe(5)
    assert registry.histogram("depth").observed == 1  # same instrument
    assert registry.histogram("depth").summary() == {
        "count": 1, "min": 5, "max": 5, "p50": 5, "p90": 5, "p99": 5,
    }


def test_skin_percentile_walks_the_cumulative_histogram():
    histogram = {0: 50, 1: 30, 5: 15, 40: 5}
    assert skin_percentile(histogram, 0.50) == 0
    assert skin_percentile(histogram, 0.90) == 5
    assert skin_percentile(histogram, 1.00) == 40
    assert skin_percentile({}, 0.5) is None


# ----------------------------------------------------------------------
# The solve-progress collector
# ----------------------------------------------------------------------
def _metered_solve(formula, every_conflicts):
    solver = Solver(formula, config_by_name("berkmin"))
    sink = RingBufferSink()
    collector = MetricsCollector(solver, sink, every_conflicts=every_conflicts)
    result = solver.solve(on_progress=collector)
    collector.finish(result.stats)
    return solver, result, collector, sink


@pytest.fixture(scope="module")
def metered_solver():
    solver, result, collector, sink = _metered_solve(pigeonhole_formula(6), 64)
    assert result.status is SolveStatus.UNSAT
    return solver, result, collector, sink


def test_collector_appends_periodic_and_closing_rows(metered_solver):
    _, result, _, sink = metered_solver
    rows = sink.events
    assert len(rows) >= 2  # periodic cadence plus the closing row
    assert all(validate_event(row) is None for row in rows)
    assert {row["type"] for row in rows} == {"solve_progress"}
    assert rows[-1]["conflicts"] == result.stats.conflicts
    conflicts = [row["conflicts"] for row in rows]
    assert conflicts == sorted(conflicts)
    for row in rows:
        assert row["props_per_sec"] >= 0.0
        assert row["elapsed_seconds"] >= 0.0
        assert 0.0 <= row["top_clause_fraction"] <= 1.0
        assert row["skin_p50"] is not None
    # The closing row's skin percentiles are the exact ones of the
    # solve's own skin-effect histogram.
    for key, q in (("skin_p50", 0.50), ("skin_p90", 0.90), ("skin_p99", 0.99)):
        assert rows[-1][key] == skin_percentile(result.stats.skin_effect, q)
    # Rows carry a monotonic stamp so they join against other
    # monotonic-clock telemetry (spans, watchdogs) without wall skew,
    # and the stamps never run backwards.
    stamps = [row["monotonic_ms"] for row in rows]
    assert all(isinstance(stamp, float) for stamp in stamps)
    assert stamps == sorted(stamps)


def test_collector_finish_is_idempotent(metered_solver):
    solver, _, collector, sink = metered_solver
    count = len(sink)
    collector.finish(solver.stats)
    assert len(sink) == count


def test_trivial_solve_still_produces_a_series():
    _, _, _, sink = _metered_solve(pigeonhole_formula(2), 512)
    assert len(sink) >= 1


def test_row_writers_union_columns_and_blank_missing_values(tmp_path):
    rows = [{"a": 1}, {"a": 2, "b": None}, {"b": 3}]
    path = tmp_path / "rows.csv"
    write_rows_csv(path, rows)
    with open(path, newline="") as handle:
        parsed = list(csv.DictReader(handle))
    assert parsed == [
        {"a": "1", "b": ""},
        {"a": "2", "b": ""},
        {"a": "", "b": "3"},
    ]
    jsonl = tmp_path / "rows.jsonl"
    write_rows_jsonl(jsonl, rows)
    assert [json.loads(line) for line in jsonl.read_text().splitlines()] == rows
