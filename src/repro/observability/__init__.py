"""Unified telemetry: structured tracing, metrics time-series, fleet dashboard.

Four layers, all optional and all zero-cost when unused:

* :mod:`~repro.observability.trace` — typed search events
  (:data:`EVENT_SCHEMA`) flowing through a :class:`TraceSink`
  (JSONL file, in-memory ring buffer, callback, or a fan-out of those),
  enabled per solver via ``SolverConfig(trace=...)``.
* :mod:`~repro.observability.metrics` — counters / gauges /
  reservoir-sampled histograms, plus the :class:`MetricsCollector`
  time-series the solver drives from its progress hook
  (``SolverConfig(metrics_interval=...)``).
* :mod:`~repro.observability.dashboard` — the live TTY
  :class:`FleetDashboard` for the supervised parallel engines, a sink
  folding their supervision events into lane states.
* :mod:`~repro.observability.spans` — request-scoped correlation IDs
  and per-request phase trees for the solver service, plus the
  Chrome-trace/Perfetto exporter.

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
    Gauge,
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
    Span,
    SpanTracker,
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
    "Gauge",
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
    "Span",
    "SpanTracker",
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
