"""The service's ops plane: spans, counters, latency SLO, scrape, dashboard.

:class:`ServiceOps` is the single observability object a
:class:`~repro.server.service.SolverService` owns.  It bundles

* a :class:`~repro.observability.spans.SpanTracker` assembling each
  request's phase tree (validate/admit/queue/solve-attempt-N/verify/
  reply),
* a :class:`~repro.observability.metrics.MetricsRegistry` of per-op
  request counters, reply-kind counters, and per-phase latency
  histograms (reservoir-sampled p50/p90/p99),
* an SLO accumulator: requests answered within ``latency_objective``
  seconds vs. total, rendered as a burn ratio.

:func:`prometheus_text` renders everything — plus the service's
admission/breaker/cache/pool summaries — in the Prometheus text
exposition format, served by the wire protocol's ``metrics`` op.

:class:`ServiceDashboardAdapter` is a trace sink that maps the pool's
unbounded job ids onto a fixed number of dashboard slots, so
``repro-sat serve --dashboard`` can reuse the stock
:class:`~repro.observability.FleetDashboard` unchanged.
"""

from __future__ import annotations

import time

from repro.observability.metrics import MetricsRegistry
from repro.observability.spans import REQUEST_PHASES, SpanTracker
from repro.observability.trace import TraceSink

#: Default latency objective (seconds): the SLO burn denominator when
#: the operator configures nothing.
DEFAULT_LATENCY_OBJECTIVE = 1.0


class ServiceOps:
    """Request-scoped spans + ops metrics for one solver service.

    Args:
        trace: optional sink mirrored by the span tracker.
        latency_objective: the latency SLO in seconds — a request whose
            admission→reply time exceeds it burns error budget.
        keep: completed span trees retained for ``top`` / stats views.
        minter: injectable ID minter for deterministic tests.
    """

    def __init__(
        self,
        trace=None,
        *,
        latency_objective: float = DEFAULT_LATENCY_OBJECTIVE,
        keep: int = 2048,
        minter=None,
    ) -> None:
        if latency_objective <= 0:
            raise ValueError("latency objective must be positive seconds")
        self.spans = SpanTracker(trace, keep=keep, minter=minter)
        self.registry = MetricsRegistry()
        self.latency_objective = latency_objective
        self.started_at = time.monotonic()

    # ------------------------------------------------------------------
    # Request lifecycle (called by the service)
    # ------------------------------------------------------------------
    def begin_request(self, op: str, client) -> str:
        """Count the request, open its span tree, return the correlation ID."""
        self.registry.counter(f"requests_{op}").add()
        return self.spans.begin_request(op, client)

    def finish_request(self, request_id: str | None, kind: str,
                       reply_seconds: float | None = None) -> dict | None:
        """Seal one request tree after its reply went out.

        Records the ``reply`` span (when measured), closes the root,
        feeds every phase duration into the latency histograms, and
        settles the request against the latency objective.  Returns the
        completed tree (None for untracked requests).
        """
        if request_id is None:
            return None
        self.registry.counter(f"replies_{kind}").add()
        if reply_seconds is not None:
            self.spans.record(request_id, "reply", reply_seconds)
        tree = self.spans.finish_request(request_id, kind)
        if tree is None:
            return None
        for phase, seconds in tree["phases"].items():
            self.registry.histogram(f"phase_{phase}_seconds").observe(seconds)
        duration = tree["duration_seconds"]
        self.registry.histogram("request_seconds").observe(duration)
        self.registry.counter("slo_requests").add()
        if duration <= self.latency_objective:
            self.registry.counter("slo_within").add()
        return tree

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
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
                "open": self.spans.open_count,
                "completed": self.spans.finished,
                "slowest_open": self.spans.open_requests(limit=5),
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
    for name, counter in sorted(ops.registry._counters.items()):
        if name.startswith("requests_"):
            scrape.sample(
                "reprosat_requests_total", counter.value,
                {"op": name[len("requests_"):]},
            )
    scrape.header(
        "reprosat_replies_total", "counter", "Replies sent, by protocol kind."
    )
    for name, counter in sorted(ops.registry._counters.items()):
        if name.startswith("replies_"):
            scrape.sample(
                "reprosat_replies_total", counter.value,
                {"kind": name[len("replies_"):]},
            )

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
    scrape.sample("reprosat_requests_open", ops.spans.open_count)

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
