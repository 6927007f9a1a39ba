"""The service's ops plane: spans, counters, latency SLO, scrape, dashboard.

:class:`ServiceOps` is the single observability object a
:class:`~repro.server.service.SolverService` owns.  It emits each
request's phases (validate/admit/queue/solve-attempt-N/verify/reply)
as ``span_start`` / ``span_end`` events and is itself a sink folding
those events into three views:

* the open requests, oldest first (the ``top`` view's feed),
* a :class:`~repro.observability.metrics.MetricsRegistry` of per-op
  request counters, reply-kind counters, and per-phase latency
  histograms (reservoir-sampled p50/p90/p99),
* an SLO accumulator: requests answered within ``latency_objective``
  seconds vs. total, rendered as a burn ratio.

So the ``stats`` op, ``top`` and the scrape read the same events that
``--trace-out`` records.

:func:`prometheus_text` renders everything — plus the service's
admission/breaker/cache/pool summaries — in the Prometheus text
exposition format, served by the wire protocol's ``metrics`` op.

:class:`ServiceDashboardAdapter` is a trace sink that maps the pool's
unbounded job ids onto a fixed number of dashboard slots, so
``repro-sat serve --dashboard`` can reuse the stock
:class:`~repro.observability.FleetDashboard` unchanged.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field

from repro.observability.metrics import MetricsRegistry
from repro.observability.spans import REQUEST_PHASES, IdMinter, phase_of
from repro.observability.trace import MultiSink, TraceSink

#: Default latency objective (seconds): the SLO burn denominator when
#: the operator configures nothing.
DEFAULT_LATENCY_OBJECTIVE = 1.0

#: Span fields copied from the caller's keywords onto each event.
_START_FIELDS = ("op", "client", "attempt", "resumed_from_conflicts")
_END_FIELDS = ("conflicts", "attempt", "resumed_from_conflicts", "kind")


@dataclass
class _OpenRequest:
    """The fold's record of one request between its root start and end."""

    root: dict
    spans: dict = field(default_factory=dict)  # open child span_start events
    seconds: dict = field(default_factory=dict)  # phase -> summed seconds


class ServiceOps(TraceSink):
    """Request-scoped spans + ops metrics for one solver service.

    The service calls ``begin_request`` / ``begin`` / ``end`` /
    ``record`` / ``finish_request``; each call builds one schema-valid
    span event and sends it to ``trace`` (when given) and then to
    :meth:`emit`, the fold behind every view.  A caller that wants
    finished requests in memory attaches a
    :class:`~repro.observability.RingBufferSink` as ``trace``.

    Args:
        trace: optional sink receiving every span event.
        latency_objective: the latency SLO in seconds — a request whose
            admission→reply time exceeds it burns error budget.
        minter: injectable ID minter for deterministic tests.
        clock: monotonic time source (injectable for tests).
    """

    def __init__(
        self,
        trace=None,
        *,
        latency_objective: float = DEFAULT_LATENCY_OBJECTIVE,
        minter: IdMinter | None = None,
        clock=time.monotonic,
    ) -> None:
        if latency_objective <= 0:
            raise ValueError("latency objective must be positive seconds")
        self.minter = minter if minter is not None else IdMinter()
        self.clock = clock
        self.registry = MetricsRegistry()
        self.latency_objective = latency_objective
        #: Requests whose root span ended since construction.
        self.finished = 0
        self._open: dict[str, _OpenRequest] = {}
        self._span_ids = itertools.count()
        self._out = self if trace is None else MultiSink(trace, self)

    # ------------------------------------------------------------------
    # Emitting (called by the service)
    # ------------------------------------------------------------------
    def begin_request(self, op: str, client) -> str:
        """Open a request's root span; returns the minted correlation ID."""
        rid = self.minter.mint()
        self._start(rid, "request", self.clock(), {"op": op, "client": str(client)})
        return rid

    def begin(self, request_id: str, name: str, **meta) -> str | None:
        """Open a child span; returns its span_id (None for unknown requests)."""
        if request_id not in self._open:
            return None
        return self._start(request_id, name, self.clock(), meta)

    def end(self, request_id: str, span_id: str | None, status: str | None = None,
            **meta) -> None:
        """Close one open span (idempotent; unknown IDs are ignored)."""
        request = self._open.get(request_id)
        if request is None or span_id not in request.spans:
            return
        self._end(request.spans[span_id], self.clock(), status, meta)

    def record(self, request_id: str, name: str, duration_seconds: float) -> None:
        """Add an already-measured phase (e.g. verify time from the pool)."""
        request = self._open.get(request_id)
        if request is None:
            return
        now = self.clock()
        span_id = self._start(request_id, name, now - max(duration_seconds, 0.0), {})
        self._end(request.spans[span_id], now, None, {})

    def finish_request(self, request_id: str | None, kind: str,
                       reply_seconds: float | None = None) -> None:
        """Seal one request after its reply went out.

        Records the ``reply`` span (when measured), closes every span
        still open as ``unfinished``, then ends the root with the reply
        kind, which settles the request in every view.
        """
        request = self._open.get(request_id)
        if request is None:
            return
        if reply_seconds is not None:
            self.record(request_id, "reply", reply_seconds)
        now = self.clock()
        for start in list(request.spans.values()):
            self._end(start, now, "unfinished", {})
        self._end(request.root, now, kind, {"kind": kind})

    def _start(self, request_id: str, name: str, started: float, meta: dict) -> str:
        """Emit one span_start; a span of an open request is its root's child."""
        span_id = f"s{next(self._span_ids):06d}"
        event = {
            "type": "span_start",
            "request_id": request_id,
            "span_id": span_id,
            "name": name,
            "ts_ms": round(started * 1000.0, 3),
        }
        if request_id in self._open:
            event["parent_id"] = self._open[request_id].root["span_id"]
        for key in _START_FIELDS:
            if meta.get(key) is not None:
                event[key] = meta[key]
        self._out.emit(event)
        return span_id

    def _end(self, start: dict, ended: float, status: str | None, meta: dict) -> None:
        ts_ms = round(ended * 1000.0, 3)
        event = {
            "type": "span_end",
            "request_id": start["request_id"],
            "span_id": start["span_id"],
            "name": start["name"],
            "ts_ms": ts_ms,
            "duration_ms": round(ts_ms - start["ts_ms"], 3),
        }
        if status is not None:
            event["status"] = status
        for key in _END_FIELDS:
            value = meta.get(key, start.get(key))
            if value is not None:
                event[key] = value
        self._out.emit(event)

    # ------------------------------------------------------------------
    # The fold
    # ------------------------------------------------------------------
    def emit(self, event: dict) -> None:
        kind = event["type"]
        if kind == "span_start":
            if "parent_id" not in event:
                self.registry.counter(f"requests_{event['op']}").add()
                self._open[event["request_id"]] = _OpenRequest(event)
            elif event["request_id"] in self._open:
                self._open[event["request_id"]].spans[event["span_id"]] = event
        elif kind == "span_end":
            request = self._open.get(event["request_id"])
            if request is None:
                return
            seconds = round(event["duration_ms"] / 1000.0, 6)
            if event["span_id"] != request.root["span_id"]:
                request.spans.pop(event["span_id"], None)
                phase = phase_of(event["name"])
                request.seconds[phase] = request.seconds.get(phase, 0.0) + seconds
                return
            registry = self.registry
            registry.counter(f"replies_{event.get('kind')}").add()
            for phase, total in request.seconds.items():
                registry.histogram(f"phase_{phase}_seconds").observe(round(total, 6))
            registry.histogram("request_seconds").observe(seconds)
            registry.counter("slo_requests").add()
            if seconds <= self.latency_objective:
                registry.counter("slo_within").add()
            self.finished += 1
            del self._open[event["request_id"]]

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def open_count(self) -> int:
        return len(self._open)

    def open_requests(self, limit: int | None = None) -> list[dict]:
        """Open requests, oldest (slowest) first — the ``top`` view's feed."""
        now_ms = self.clock() * 1000.0
        rows = [
            {
                "request_id": rid,
                "op": request.root["op"],
                "client": request.root["client"],
                "age_seconds": round((now_ms - request.root["ts_ms"]) / 1000.0, 6),
                "open_spans": [start["name"] for start in request.spans.values()],
            }
            for rid, request in self._open.items()
        ]
        rows.sort(key=lambda row: row["age_seconds"], reverse=True)
        return rows[:limit] if limit is not None else rows

    def counts(self, prefix: str) -> dict[str, int]:
        """Counter values under ``prefix``, keyed by the rest of the name."""
        return {
            name[len(prefix):]: counter.value
            for name, counter in sorted(self.registry._counters.items())
            if name.startswith(prefix)
        }

    def slo(self) -> dict:
        """Objective, totals, and the burn ratio (1.0 = budget all burnt)."""
        total = self.registry.counter("slo_requests").value
        within = self.registry.counter("slo_within").value
        return {
            "objective_seconds": self.latency_objective,
            "requests": total,
            "within_objective": within,
            "burn_ratio": round((total - within) / total, 6) if total else 0.0,
        }

    def latency(self) -> dict:
        """Per-phase and end-to-end latency summaries (seconds)."""
        report: dict = {}
        for phase in REQUEST_PHASES:
            histogram = self.registry._histograms.get(f"phase_{phase}_seconds")
            if histogram is not None and histogram.observed:
                report[phase] = _round_summary(histogram.summary())
        request = self.registry._histograms.get("request_seconds")
        if request is not None and request.observed:
            report["request"] = _round_summary(request.summary())
        return report

    def stats_section(self) -> dict:
        """The ops slice of the ``stats`` op's payload."""
        return {
            "spans": {
                "open": self.open_count,
                "completed": self.finished,
                "slowest_open": self.open_requests(limit=5),
            },
            "latency": self.latency(),
            "slo": self.slo(),
        }


def _round_summary(summary: dict) -> dict:
    return {
        key: (round(value, 6) if isinstance(value, float) else value)
        for key, value in summary.items()
    }


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------
def _escape_label(value) -> str:
    return str(value).replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


class _Scrape:
    """Accumulate one Prometheus text exposition body."""

    def __init__(self) -> None:
        self.lines: list[str] = []

    def header(self, name: str, kind: str, help_text: str) -> None:
        self.lines.append(f"# HELP {name} {help_text}")
        self.lines.append(f"# TYPE {name} {kind}")

    def sample(self, name: str, value, labels: dict | None = None) -> None:
        label_text = ""
        if labels:
            body = ",".join(
                f'{key}="{_escape_label(val)}"' for key, val in labels.items()
            )
            label_text = "{" + body + "}"
        if value is None:
            value = "NaN"
        elif isinstance(value, bool):
            value = int(value)
        self.lines.append(f"{name}{label_text} {value}")

    def body(self) -> str:
        return "\n".join(self.lines) + "\n"


def prometheus_text(service) -> str:
    """Render one service's full ops state as a Prometheus scrape body.

    ``service`` is a :class:`~repro.server.service.SolverService` (any
    object with ``ops``, ``stats()``-shaped summaries, and a pool works).
    Counters end in ``_total``; histograms expose ``quantile`` samples
    (p50/p90/p99 from the reservoir) plus ``_count``; everything else is
    a gauge.
    """
    ops: ServiceOps = service.ops
    scrape = _Scrape()

    scrape.header("reprosat_uptime_seconds", "gauge", "Seconds since service start.")
    scrape.sample(
        "reprosat_uptime_seconds", round(time.monotonic() - service.started_at, 3)
    )
    scrape.header("reprosat_draining", "gauge", "1 while the service drains.")
    scrape.sample("reprosat_draining", service.draining)

    scrape.header(
        "reprosat_requests_total", "counter", "Requests decoded, by wire op."
    )
    for op, count in ops.counts("requests_").items():
        scrape.sample("reprosat_requests_total", count, {"op": op})
    scrape.header(
        "reprosat_replies_total", "counter", "Replies sent, by protocol kind."
    )
    for kind, count in ops.counts("replies_").items():
        scrape.sample("reprosat_replies_total", count, {"kind": kind})

    scrape.header(
        "reprosat_phase_latency_seconds", "summary",
        "Per-phase request latency (reservoir-sampled quantiles).",
    )
    phases = list(REQUEST_PHASES) + ["request"]
    for phase in phases:
        key = "request_seconds" if phase == "request" else f"phase_{phase}_seconds"
        histogram = ops.registry._histograms.get(key)
        if histogram is None or not histogram.observed:
            continue
        for q, quantile in (("0.5", 0.50), ("0.9", 0.90), ("0.99", 0.99)):
            scrape.sample(
                "reprosat_phase_latency_seconds",
                round(histogram.quantile(quantile), 6),
                {"phase": phase, "quantile": q},
            )
        scrape.sample(
            "reprosat_phase_latency_seconds_count", histogram.observed,
            {"phase": phase},
        )

    slo = ops.slo()
    scrape.header(
        "reprosat_slo_objective_seconds", "gauge", "Configured latency objective."
    )
    scrape.sample("reprosat_slo_objective_seconds", slo["objective_seconds"])
    scrape.header(
        "reprosat_slo_within_total", "counter",
        "Requests answered within the latency objective.",
    )
    scrape.sample("reprosat_slo_within_total", slo["within_objective"])
    scrape.header(
        "reprosat_slo_requests_total", "counter", "Requests settled against the SLO."
    )
    scrape.sample("reprosat_slo_requests_total", slo["requests"])
    scrape.header(
        "reprosat_slo_burn_ratio", "gauge",
        "Fraction of settled requests over the objective (0 = no burn).",
    )
    scrape.sample("reprosat_slo_burn_ratio", slo["burn_ratio"])

    scrape.header(
        "reprosat_requests_open", "gauge", "Requests admitted but not yet replied."
    )
    scrape.sample("reprosat_requests_open", ops.open_count)

    pool = service.pool
    scrape.header("reprosat_pool_size", "gauge", "Worker pool slots.")
    scrape.sample("reprosat_pool_size", pool.size)
    scrape.header("reprosat_pool_active", "gauge", "Attempts currently running.")
    scrape.sample("reprosat_pool_active", len(pool.active))
    scrape.header("reprosat_pool_queued", "gauge", "Jobs waiting for a slot.")
    scrape.sample("reprosat_pool_queued", len(pool.pending))
    scrape.header("reprosat_pool_retries_total", "counter", "Attempt relaunches.")
    scrape.sample("reprosat_pool_retries_total", pool.retries)

    admission = service.admission.summary()
    scrape.header("reprosat_admission_in_flight", "gauge", "Admitted, unreleased requests.")
    scrape.sample("reprosat_admission_in_flight", admission.get("in_flight", 0))
    scrape.header("reprosat_admission_admitted_total", "counter", "Requests admitted.")
    scrape.sample("reprosat_admission_admitted_total", admission.get("admitted", 0))
    scrape.header(
        "reprosat_admission_refused_total", "counter", "Admission refusals, by reason."
    )
    for reason, count in sorted((admission.get("refused") or {}).items()):
        scrape.sample(
            "reprosat_admission_refused_total", count, {"reason": reason}
        )
    scrape.header("reprosat_admission_clients", "gauge", "Clients with in-flight work.")
    scrape.sample("reprosat_admission_clients", admission.get("clients", 0))

    breaker = service.breaker.summary()
    scrape.header("reprosat_breaker_tracked", "gauge", "Fingerprints with failure state.")
    scrape.sample("reprosat_breaker_tracked", breaker.get("tracked", 0))
    scrape.header("reprosat_breaker_quarantined", "gauge", "Fingerprints currently open.")
    scrape.sample("reprosat_breaker_quarantined", breaker.get("quarantined", 0))
    scrape.header("reprosat_breaker_opens_total", "counter", "Circuit open transitions.")
    scrape.sample("reprosat_breaker_opens_total", breaker.get("opens", 0))
    scrape.header("reprosat_breaker_refusals_total", "counter", "Requests refused open.")
    scrape.sample("reprosat_breaker_refusals_total", breaker.get("refusals", 0))

    cache = service.cache.summary()
    scrape.header("reprosat_cache_entries", "gauge", "Answer-cache entries resident.")
    scrape.sample("reprosat_cache_entries", cache.get("entries", 0))
    scrape.header("reprosat_cache_hits_total", "counter", "Answer-cache hits.")
    scrape.sample("reprosat_cache_hits_total", cache.get("hits", 0))
    scrape.header("reprosat_cache_misses_total", "counter", "Answer-cache misses.")
    scrape.sample("reprosat_cache_misses_total", cache.get("misses", 0))

    return scrape.body()


# ----------------------------------------------------------------------
# Dashboard adapter
# ----------------------------------------------------------------------
class ServiceDashboardAdapter(TraceSink):
    """Project an unbounded job-id stream onto fixed dashboard slots.

    The stock :class:`~repro.observability.FleetDashboard` renders a
    fixed fleet of lanes, but the service's pool reports ever-increasing
    job ids.  This sink leases one of ``slots`` lanes when a job
    launches (``worker_start`` / ``worker_retry``), frees it at the
    job's ``job_end``, and forwards the job's events in between to
    ``inner`` under the slot's lane, so ``serve --dashboard`` shows a
    pool-shaped live panel.  Jobs launching while every slot is leased,
    and jobs that end without a launch (expired in the queue or shed at
    drain), are silently unmapped — the panel tracks the *pool*, not
    the queue.  Events without a lane pass through unchanged.
    """

    def __init__(self, inner: TraceSink, slots: int) -> None:
        if slots < 1:
            raise ValueError("adapter needs at least one slot")
        self.inner = inner
        self.slots = slots
        self._slot_of: dict = {}
        self._free = list(range(slots))
        self.inner.emit(
            {
                "type": "fleet_start",
                "count": slots,
                "labels": [f"slot {i}" for i in range(slots)],
            }
        )

    def emit(self, event: dict) -> None:
        if "lane" not in event:
            self.inner.emit(event)
            return
        lane = event["lane"]
        slot = self._slot_of.get(lane)
        if (
            slot is None
            and event["type"] in ("worker_start", "worker_retry")
            and self._free
        ):
            slot = self._free.pop(0)
            self._slot_of[lane] = slot
        if slot is None:
            return
        self.inner.emit({**event, "lane": slot})
        if event["type"] == "job_end":
            del self._slot_of[lane]
            self._free.append(slot)

    def close(self) -> None:
        self.inner.close()
