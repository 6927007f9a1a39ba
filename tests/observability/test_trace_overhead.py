"""Zero-cost-when-disabled: tracing must not tax the BCP hot loops.

Two layers of enforcement, both fast enough for tier-1:

* a **static guard** — the bytecode of the search's hot loops
  (propagation, conflict analysis, backtracking, enqueue, and the two
  search engines: the caller of the C loop and the pure-Python step)
  must never reference the trace/metrics machinery at all, so they
  cannot pay even a ``None``-check per propagation;
* an **A/B timing smoke** — solving the same pinned instance with
  tracing disabled must stay within 3% of the propagation rate of an
  identical solve with a sink attached, and enabling a sink must not
  change the search (identical conflict/decision/propagation counts).
  Disabled and enabled solves run back to back in pairs, so both sides
  of a pair see the same host state, and the median pair decides.
"""

import gc
import statistics
import time

import pytest

from repro.generators.pigeonhole import pigeonhole_formula
from repro.observability import RingBufferSink, TraceSink
from repro.solver.config import config_by_name
from repro.solver.solver import Solver

pytestmark = pytest.mark.perf_smoke

#: Tracing disabled may cost at most this fraction of propagation rate.
_MAX_DISABLED_REGRESSION = 0.03
#: The span layer's vocabulary is forbidden too: correlation IDs are a
#: *supervisor*-side concern and must never leak into worker hot loops.
_FORBIDDEN_NAMES = (
    "trace", "metrics", "emit", "last_decision_source",
    "span", "spans", "ops", "request_id", "trace_context",
)


@pytest.mark.parametrize(
    "loop",
    [
        "_propagate",
        "_analyze",
        "_analyze_resolve",
        "_backtrack",
        "_enqueue",
        "_run_kernel",
        "_run_pure",
    ],
)
def test_bcp_hot_loops_never_touch_the_telemetry_layer(loop):
    names = getattr(Solver, loop).__code__.co_names
    for forbidden in _FORBIDDEN_NAMES:
        assert forbidden not in names, (
            f"{loop} references {forbidden!r}: the search hot loops must "
            "stay telemetry-free (see docs/OBSERVABILITY.md)"
        )


def _propagation_rate(trace) -> tuple[float, tuple[int, int, int]]:
    """Props/sec and search counts of one pinned hole-6 solve under ``trace``.

    The garbage collector is paused for the timed solve (as ``timeit``
    does), so a collection triggered by the other side's allocations
    never lands on this side's clock.
    """
    config = config_by_name("berkmin", trace=trace)
    solver = Solver(pigeonhole_formula(6), config)
    gc.collect()
    gc.disable()
    try:
        started = time.perf_counter()
        result = solver.solve()
        elapsed = time.perf_counter() - started
    finally:
        gc.enable()
    assert result.is_unsat
    stats = result.stats
    counts = (stats.conflicts, stats.decisions, stats.propagations)
    return stats.propagations / max(elapsed, 1e-9), counts


def test_disabled_tracing_costs_under_three_percent():
    # Warm both paths once so neither side pays first-run compilation.
    sink = RingBufferSink(1 << 20)
    _propagation_rate(None)
    _propagation_rate(sink)
    # Fifteen back-to-back pairs, alternating which side goes first; a
    # slow stretch of the host then hits both solves of a pair, and the
    # median of the per-pair ratios is immune to a few such stretches.
    ratios = []
    counts = {}
    for pair in range(15):
        rates = {}
        order = ("disabled", "enabled") if pair % 2 == 0 else ("enabled", "disabled")
        for side in order:
            trace = sink if side == "enabled" else None
            rates[side], counts[side] = _propagation_rate(trace)
        ratios.append(rates["disabled"] / rates["enabled"])

    # Emitting events must not change the search itself.
    assert counts["enabled"] == counts["disabled"]

    ratio = statistics.median(ratios)
    assert ratio >= 1.0 - _MAX_DISABLED_REGRESSION, (
        f"tracing disabled ran at {ratio:.3f}x the props/s of a solve with "
        "a sink attached (median of paired solves) — the disabled path "
        "must never be the slow one"
    )


def test_noop_sink_solve_matches_untraced_counts():
    untraced = Solver(pigeonhole_formula(5), config_by_name("berkmin")).solve()
    traced = Solver(
        pigeonhole_formula(5), config_by_name("berkmin", trace=TraceSink())
    ).solve()
    assert untraced.status is traced.status
    assert untraced.stats.conflicts == traced.stats.conflicts
    assert untraced.stats.decisions == traced.stats.decisions
    assert untraced.stats.propagations == traced.stats.propagations
