"""Request-scoped spans: correlation IDs, phase names, timeline export.

The trace bus (:mod:`repro.observability.trace`) sees *individual*
events — a worker died, a reply went out — but nothing ties a client
request causally through admission → queue → worker attempts → verify →
reply.  This module holds the vocabulary of that spine:

* :class:`IdMinter` mints process-unique correlation IDs
  (``req-<token>-<n>``) at admission time; the ID rides the pool job's
  ``trace_context`` into supervision events and worker telemetry, so
  every retry, warm resume, and fault is attributable to the request
  that caused it.
* :data:`REQUEST_PHASES` and :func:`phase_of` name the phases
  (``validate`` / ``admit`` / ``queue`` / ``solve-attempt-N`` /
  ``verify`` / ``reply``) of one request.
* :func:`chrome_trace_from_events` exports ``span_start`` /
  ``span_end`` events as Chrome-trace / Perfetto JSON (open in
  ``chrome://tracing`` or https://ui.perfetto.dev).

The service's :class:`~repro.server.ops.ServiceOps` emits those span
events and folds them into its live views.  Spans are a *server-side*
layer: the solver's BCP hot loops never see them (the
``tests/observability/test_trace_overhead.py`` bytecode guard covers
the span vocabulary too), and workers receive only the opaque
``trace_context`` dict — never a sink.
"""

from __future__ import annotations

import itertools
import os

#: The phase names the solver service emits, in causal order.  A
#: ``solve-attempt-N`` span exists per supervised launch; every other
#: phase appears at most once per request.
REQUEST_PHASES = ("validate", "admit", "queue", "solve", "verify", "reply")


def phase_of(name: str) -> str:
    """Collapse a span name onto its phase (``solve-attempt-3`` → ``solve``)."""
    if name.startswith("solve-attempt-"):
        return "solve"
    return name


class IdMinter:
    """Mint process-unique correlation IDs: ``<prefix>-<token>-<n>``.

    The random token separates restarts of the same server (two
    processes can never mint colliding IDs); the counter orders requests
    within one process.  Pass an explicit ``token`` for deterministic
    IDs in tests.
    """

    def __init__(self, prefix: str = "req", token: str | None = None) -> None:
        self.prefix = prefix
        self.token = token if token is not None else os.urandom(3).hex()
        self._counter = itertools.count()

    def mint(self) -> str:
        return f"{self.prefix}-{self.token}-{next(self._counter):06d}"


# ----------------------------------------------------------------------
# Chrome-trace / Perfetto export
# ----------------------------------------------------------------------
def chrome_trace_from_events(events, request_id: str | None = None) -> dict:
    """Build Chrome-trace JSON from ``span_start``/``span_end`` trace events.

    ``events`` is any iterable of schema-valid trace events (other types
    are skipped); ``request_id`` restricts the export to one request.
    Spans with a start but no end are exported with zero duration and
    ``"incomplete": true`` — visible, never silently dropped.
    """
    starts: dict[tuple, dict] = {}
    spans: list[dict] = []
    for event in events:
        kind = event.get("type")
        if kind not in ("span_start", "span_end"):
            continue
        if request_id is not None and event.get("request_id") != request_id:
            continue
        key = (event["request_id"], event["span_id"])
        if kind == "span_start":
            starts[key] = event
        else:
            start = starts.pop(key, None)
            ts_ms = (
                start["ts_ms"] if start is not None
                else event["ts_ms"] - event["duration_ms"]
            )
            args = {
                key_: event[key_]
                for key_ in ("status", "conflicts", "attempt",
                             "resumed_from_conflicts", "kind")
                if key_ in event
            }
            spans.append(
                {
                    "request_id": event["request_id"],
                    "name": event["name"],
                    "ts_ms": ts_ms,
                    "dur_ms": event["duration_ms"],
                    "args": args,
                }
            )
    for (rid, _span_id), start in starts.items():  # started, never ended
        spans.append(
            {
                "request_id": rid,
                "name": start["name"],
                "ts_ms": start["ts_ms"],
                "dur_ms": 0.0,
                "args": {"incomplete": True},
            }
        )
    if not spans:
        return {"displayTimeUnit": "ms", "traceEvents": []}
    base_ms = min(span["ts_ms"] for span in spans)
    tids: dict[str, int] = {}  # one thread per request, in first-seen order
    for span in spans:
        tids.setdefault(span["request_id"], len(tids) + 1)
    out: list[dict] = [
        {
            "name": "thread_name",
            "ph": "M",
            "pid": 1,
            "tid": tid,
            "args": {"name": rid},
        }
        for rid, tid in tids.items()
    ]
    for span in spans:
        out.append(
            {
                "name": span["name"],
                "cat": "span",
                "ph": "X",
                "ts": round((span["ts_ms"] - base_ms) * 1000.0, 1),
                "dur": round(span["dur_ms"] * 1000.0, 1),
                "pid": 1,
                "tid": tids[span["request_id"]],
                "args": span["args"],
            }
        )
    return {"displayTimeUnit": "ms", "traceEvents": out}
