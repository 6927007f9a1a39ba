"""Unified telemetry: one event stream and the views folded from it.

All optional and all zero-cost when unused:

* :mod:`~repro.observability.trace` — typed events
  (:data:`EVENT_SCHEMA`) flowing through a :class:`TraceSink`
  (JSONL file, in-memory ring buffer, callback, or a fan-out of those),
  enabled per solver via ``SolverConfig(trace=...)``.
* :mod:`~repro.observability.metrics` — counters and reservoir-sampled
  histograms, plus :class:`MetricsCollector`, an ``on_progress`` hook
  emitting one ``solve_progress`` event per metrics row.
* :mod:`~repro.observability.dashboard` — the live TTY
  :class:`FleetDashboard` for the supervised parallel engines, a sink
  folding their supervision events into lane states.
* :mod:`~repro.observability.spans` — request correlation IDs and phase
  names for the solver service's ``span_start`` / ``span_end`` events,
  plus the Chrome-trace/Perfetto exporter.
* :mod:`~repro.observability.summary` — ``trace-summary`` folds over a
  recorded trace.

See ``docs/OBSERVABILITY.md`` for the event schema table and overhead
numbers.
"""

from .dashboard import (
    LANE_STATES,
    FleetDashboard,
    OpsTop,
)
from .metrics import (
    Counter,
    Histogram,
    MetricsCollector,
    MetricsRegistry,
    skin_percentile,
    write_rows_csv,
    write_rows_jsonl,
)
from .spans import (
    REQUEST_PHASES,
    IdMinter,
    chrome_trace_from_events,
    phase_of,
)
from .summary import (
    format_service_summary,
    format_summary,
    summarize_service_trace,
    summarize_trace,
)
from .trace import (
    DECISION_SOURCES,
    EVENT_SCHEMA,
    EVENT_TYPES,
    CallbackSink,
    JsonlTraceSink,
    MultiSink,
    RingBufferSink,
    TraceFormatError,
    TraceSink,
    read_trace,
    require_valid_event,
    validate_event,
)

__all__ = [
    "CallbackSink",
    "Counter",
    "DECISION_SOURCES",
    "EVENT_SCHEMA",
    "EVENT_TYPES",
    "FleetDashboard",
    "Histogram",
    "IdMinter",
    "JsonlTraceSink",
    "LANE_STATES",
    "MetricsCollector",
    "MetricsRegistry",
    "MultiSink",
    "OpsTop",
    "REQUEST_PHASES",
    "RingBufferSink",
    "TraceFormatError",
    "TraceSink",
    "chrome_trace_from_events",
    "format_service_summary",
    "format_summary",
    "phase_of",
    "read_trace",
    "require_valid_event",
    "skin_percentile",
    "summarize_service_trace",
    "summarize_trace",
    "validate_event",
    "write_rows_csv",
    "write_rows_jsonl",
]
