"""Metrics registry and the solve-progress collector.

Two layers:

* :class:`MetricsRegistry` — a generic, standalone registry of named
  :class:`Counter` / :class:`Histogram` instruments.  Histograms use
  reservoir sampling (Vitter's Algorithm R with a seeded RNG), so
  quantiles over unbounded observation streams cost bounded memory and
  stay deterministic run to run.
* :class:`MetricsCollector` — an ``on_progress`` hook for
  :meth:`~repro.solver.Solver.solve`.  At the solver's progress cadence
  (every 128 conflicts / 512 decisions) it emits one ``solve_progress``
  event per ``every_conflicts`` conflicts onto a trace sink: throughput
  rates since the previous row (props/sec, conflicts/sec), the
  cumulative decision-source mix, and exact skin-effect depth
  percentiles.  ``repro-sat solve --metrics-out`` collects those rows
  from the stream and writes them through :func:`write_rows_csv` /
  :func:`write_rows_jsonl`.

The collector never touches the BCP hot loops — a solve without the
hook samples nothing at all.
"""

from __future__ import annotations

import random
import time


class Counter:
    """A monotone accumulator."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def add(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Histogram:
    """Reservoir-sampled distribution (Algorithm R, seeded — deterministic).

    The reservoir keeps a uniform sample of everything ever observed;
    ``quantile`` answers from the sample.  ``observed`` counts the true
    stream length.
    """

    __slots__ = ("name", "reservoir", "size", "observed", "_rng", "_min", "_max")

    def __init__(self, name: str, size: int = 1024, seed: int = 0) -> None:
        if size < 1:
            raise ValueError("reservoir size must be >= 1")
        self.name = name
        self.size = size
        self.reservoir: list = []
        self.observed = 0
        self._rng = random.Random(seed)
        self._min = None
        self._max = None

    def observe(self, value) -> None:
        self.observed += 1
        if self._min is None or value < self._min:
            self._min = value
        if self._max is None or value > self._max:
            self._max = value
        if len(self.reservoir) < self.size:
            self.reservoir.append(value)
        else:
            slot = self._rng.randrange(self.observed)
            if slot < self.size:
                self.reservoir[slot] = value

    def quantile(self, q: float):
        """The q-quantile (0 <= q <= 1) of the sampled distribution.

        With fewer than 3 observations a sampled quantile is pure
        extrapolation (p99 of two points says nothing), so tiny samples
        clamp to the *true* stream extremes instead: the minimum for
        q < 0.5, the maximum otherwise.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if not self.reservoir:
            return None
        if len(self.reservoir) < 3:
            return self._min if q < 0.5 else self._max
        ordered = sorted(self.reservoir)
        index = min(len(ordered) - 1, int(q * len(ordered)))
        return ordered[index]

    def summary(self) -> dict:
        return {
            "count": self.observed,
            "min": self._min,
            "max": self._max,
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
        }


class MetricsRegistry:
    """Named instruments, created on first touch (Prometheus-style)."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        try:
            return self._counters[name]
        except KeyError:
            instrument = self._counters[name] = Counter(name)
            return instrument

    def histogram(self, name: str, size: int = 1024, seed: int = 0) -> Histogram:
        try:
            return self._histograms[name]
        except KeyError:
            instrument = self._histograms[name] = Histogram(name, size=size, seed=seed)
            return instrument


def skin_percentile(skin_effect: dict[int, int], q: float) -> int | None:
    """The q-percentile depth of a cumulative skin-effect histogram.

    ``skin_effect`` is :attr:`SolverStats.skin_effect`: distance ->
    number of top-clause decisions made at that distance.  Exact (the
    histogram is small), no sampling involved.
    """
    total = sum(skin_effect.values())
    if total == 0:
        return None
    target = q * total
    seen = 0
    for distance in sorted(skin_effect):
        seen += skin_effect[distance]
        if seen >= target:
            return distance
    return max(skin_effect)  # pragma: no cover - loop always reaches target


class MetricsCollector:
    """Periodic ``solve_progress`` rows sampled from a live solver.

    An ``on_progress`` callable: pass it to :meth:`Solver.solve`, or
    chain it behind another hook (``CheckpointWriter(chain=...)``).  One
    row is emitted onto ``sink`` every ``every_conflicts`` conflicts
    (quantized up to the 128-conflict hook), and :meth:`finish` emits
    the closing row, so even a trivial solve produces a series.
    """

    def __init__(self, solver, sink, every_conflicts: int = 512) -> None:
        self.solver = solver
        self.sink = sink
        self.every_conflicts = max(1, every_conflicts)
        self.emitted = 0
        self._started = time.perf_counter()
        self._last_wall = self._started
        self._last_conflicts = 0
        self._last_propagations = 0

    def __call__(self, stats) -> None:
        if stats.conflicts - self._last_conflicts >= self.every_conflicts:
            self._emit_row(stats)

    def finish(self, stats) -> None:
        """Emit the closing row (idempotent per conflict count)."""
        if not self.emitted or self._last_conflicts != stats.conflicts:
            self._emit_row(stats)

    def _emit_row(self, stats) -> None:
        now = time.perf_counter()
        window = now - self._last_wall
        delta_conflicts = stats.conflicts - self._last_conflicts
        delta_props = stats.propagations - self._last_propagations
        source_total = stats.top_clause_decisions + stats.formula_decisions
        rate = (lambda delta: delta / window) if window > 1e-9 else (lambda delta: 0.0)
        self.sink.emit(
            {
                "type": "solve_progress",
                # Monotonic stamp: rows from one process sort and join
                # against other monotonic-clock telemetry (spans,
                # heartbeat watchdogs) without wall-clock skew.
                "monotonic_ms": round(time.monotonic() * 1000.0, 3),
                "elapsed_seconds": round(now - self._started, 6),
                "conflicts": stats.conflicts,
                "decisions": stats.decisions,
                "propagations": stats.propagations,
                "restarts": stats.restarts,
                "learned_clauses": len(self.solver.learned),
                "props_per_sec": round(rate(delta_props), 1),
                "conflicts_per_sec": round(rate(delta_conflicts), 1),
                "top_clause_fraction": (
                    round(stats.top_clause_decisions / source_total, 4)
                    if source_total
                    else None
                ),
                "skin_p50": skin_percentile(stats.skin_effect, 0.50),
                "skin_p90": skin_percentile(stats.skin_effect, 0.90),
                "skin_p99": skin_percentile(stats.skin_effect, 0.99),
            }
        )
        self.emitted += 1
        self._last_wall = now
        self._last_conflicts = stats.conflicts
        self._last_propagations = stats.propagations


def _row_columns(rows: list[dict]) -> list[str]:
    columns: list[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    return columns


def write_rows_jsonl(path, rows: list[dict]) -> None:
    """Write dict rows as JSONL through the shared atomic writer."""
    import json

    from repro.checkpoint.io import atomic_write_text

    body = "".join(json.dumps(row, separators=(",", ":")) + "\n" for row in rows)
    atomic_write_text(path, body)


def write_rows_csv(path, rows: list[dict]) -> None:
    """Write dict rows as CSV (union of keys, first-seen column order)."""
    import csv
    import io

    from repro.checkpoint.io import atomic_write_text

    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=_row_columns(rows), restval="")
    writer.writeheader()
    for row in rows:
        writer.writerow({key: ("" if value is None else value) for key, value in row.items()})
    atomic_write_text(path, buffer.getvalue())
