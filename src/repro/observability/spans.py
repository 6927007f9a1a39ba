"""Request-scoped spans: correlation IDs and per-request phase trees.

The trace bus (:mod:`repro.observability.trace`) sees *individual*
events — a worker died, a reply went out — but nothing ties a client
request causally through admission → queue → worker attempts → verify →
reply.  This module adds that missing spine:

* :class:`IdMinter` mints process-unique correlation IDs
  (``req-<token>-<n>``) at admission time; the ID rides the pool job's
  ``trace_context`` into supervision events and worker telemetry, so
  every retry, warm resume, and fault is attributable to the request
  that caused it.
* :class:`Span` is one timed phase (``validate`` / ``admit`` /
  ``queue`` / ``solve-attempt-N`` / ``verify`` / ``reply``) inside one
  request.
* :class:`SpanTracker` assembles spans into per-request trees, keeps a
  bounded history of completed trees plus a live view of open requests
  (the ``top`` view's "slowest open" list), and optionally mirrors every
  span onto a :class:`~repro.observability.trace.TraceSink` as
  ``span_start`` / ``span_end`` events.
* :func:`chrome_trace_from_events` exports the mirrored span events
  as Chrome-trace / Perfetto JSON (open in ``chrome://tracing`` or
  https://ui.perfetto.dev).

Spans are a *server-side* layer: the solver's BCP hot loops never see
them (the ``tests/observability/test_trace_overhead.py`` bytecode guard
covers the span vocabulary too), and workers receive only the opaque
``trace_context`` dict — never a tracker or sink.
"""

from __future__ import annotations

import itertools
import os
import time
from collections import deque
from dataclasses import dataclass, field

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


@dataclass
class Span:
    """One timed phase of one request."""

    span_id: str
    request_id: str
    name: str
    parent_id: str | None = None
    started: float = 0.0  # monotonic seconds
    ended: float | None = None
    status: str | None = None
    meta: dict = field(default_factory=dict)

    @property
    def open(self) -> bool:
        return self.ended is None

    @property
    def duration(self) -> float | None:
        """Span length in seconds, or None while still open."""
        if self.ended is None:
            return None
        return self.ended - self.started

    def as_dict(self) -> dict:
        row = {
            "span_id": self.span_id,
            "name": self.name,
            "parent_id": self.parent_id,
            "duration_seconds": (
                round(self.duration, 6) if self.duration is not None else None
            ),
            "status": self.status,
        }
        if self.meta:
            row["meta"] = dict(self.meta)
        return row


@dataclass
class _RequestTree:
    """The assembler's working state for one in-flight request."""

    request_id: str
    op: str
    client: str
    root: Span
    spans: list[Span] = field(default_factory=list)
    by_id: dict = field(default_factory=dict)
    reply_kind: str | None = None


class SpanTracker:
    """Assemble request-scoped spans into per-request phase trees.

    The tracker is single-threaded by design (like the service that owns
    it): ``begin_request`` mints the correlation ID, ``begin``/``end``
    bracket phases, ``record`` adds an already-measured phase, and
    ``finish_request`` seals the tree into the bounded completed
    history.  When ``trace`` is given, every span is mirrored as a
    schema-valid ``span_start`` / ``span_end`` event.

    Args:
        trace: optional :class:`~repro.observability.trace.TraceSink`.
        keep: completed request trees retained (oldest evicted first).
        minter: ID source (inject a seeded one for deterministic tests).
        clock: monotonic time source (injectable for tests).
    """

    def __init__(self, trace=None, *, keep: int = 2048, minter: IdMinter | None = None,
                 clock=time.monotonic) -> None:
        self.trace = trace
        self.minter = minter if minter is not None else IdMinter()
        self.clock = clock
        self._open: dict[str, _RequestTree] = {}
        self.completed: deque = deque(maxlen=keep)
        self._span_counter = itertools.count()
        #: Requests sealed since construction (completed deque may evict).
        self.finished = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def begin_request(self, op: str, client, request_id: str | None = None) -> str:
        """Open a request tree; returns the minted correlation ID."""
        rid = request_id if request_id is not None else self.minter.mint()
        root = Span(
            span_id=self._next_span_id(),
            request_id=rid,
            name="request",
            started=self.clock(),
            meta={"op": op, "client": str(client)},
        )
        tree = _RequestTree(request_id=rid, op=op, client=str(client), root=root)
        tree.spans.append(root)
        tree.by_id[root.span_id] = root
        self._open[rid] = tree
        self._emit_start(root, op=op, client=str(client))
        return rid

    def begin(self, request_id: str, name: str, parent_id: str | None = None,
              **meta) -> str | None:
        """Open a child span; returns its span_id (None for unknown requests)."""
        tree = self._open.get(request_id)
        if tree is None:
            return None
        span = Span(
            span_id=self._next_span_id(),
            request_id=request_id,
            name=name,
            parent_id=parent_id if parent_id is not None else tree.root.span_id,
            started=self.clock(),
            meta=dict(meta),
        )
        tree.spans.append(span)
        tree.by_id[span.span_id] = span
        self._emit_start(span, **meta)
        return span.span_id

    def end(self, request_id: str, span_id: str | None, status: str | None = None,
            **meta) -> None:
        """Close one span (idempotent; unknown IDs are ignored)."""
        tree = self._open.get(request_id)
        if tree is None or span_id is None:
            return
        span = tree.by_id.get(span_id)
        if span is None or span.ended is not None:
            return
        span.ended = self.clock()
        span.status = status
        if meta:
            span.meta.update(meta)
        self._emit_end(span, **meta)

    def record(self, request_id: str, name: str, duration_seconds: float,
               **meta) -> str | None:
        """Add an already-measured phase (e.g. verify time from the pool)."""
        tree = self._open.get(request_id)
        if tree is None:
            return None
        now = self.clock()
        span = Span(
            span_id=self._next_span_id(),
            request_id=request_id,
            name=name,
            parent_id=tree.root.span_id,
            started=now - max(duration_seconds, 0.0),
            ended=now,
            meta=dict(meta),
        )
        tree.spans.append(span)
        tree.by_id[span.span_id] = span
        self._emit_start(span, **meta)
        self._emit_end(span, **meta)
        return span.span_id

    def finish_request(self, request_id: str, reply_kind: str | None = None) -> dict | None:
        """Seal the tree: close everything still open, archive, return it."""
        tree = self._open.pop(request_id, None)
        if tree is None:
            return None
        tree.reply_kind = reply_kind
        now = self.clock()
        for span in tree.spans:
            if span is tree.root or span.ended is not None:
                continue
            span.ended = now
            span.status = span.status or "unfinished"
            self._emit_end(span)
        tree.root.ended = now
        tree.root.status = reply_kind
        self._emit_end(tree.root, kind=reply_kind)
        summary = self._tree_dict(tree)
        self.completed.append(summary)
        self.finished += 1
        return summary

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def open_count(self) -> int:
        return len(self._open)

    def open_requests(self, limit: int | None = None) -> list[dict]:
        """Open requests, oldest (slowest) first — the ``top`` view's feed."""
        now = self.clock()
        rows = [
            {
                "request_id": tree.request_id,
                "op": tree.op,
                "client": tree.client,
                "age_seconds": round(now - tree.root.started, 6),
                "open_spans": [
                    span.name for span in tree.spans
                    if span.ended is None and span is not tree.root
                ],
            }
            for tree in self._open.values()
        ]
        rows.sort(key=lambda row: row["age_seconds"], reverse=True)
        return rows[:limit] if limit is not None else rows

    def _tree_dict(self, tree: _RequestTree) -> dict:
        phases: dict[str, float] = {}
        attempts = 0
        for span in tree.spans:
            if span is tree.root or span.duration is None:
                continue
            if span.name.startswith("solve-attempt-"):
                attempts += 1
            phase = phase_of(span.name)
            phases[phase] = round(phases.get(phase, 0.0) + span.duration, 6)
        return {
            "request_id": tree.request_id,
            "op": tree.op,
            "client": tree.client,
            "reply_kind": tree.reply_kind,
            "duration_seconds": round(tree.root.duration or 0.0, 6),
            "attempts": attempts,
            "phases": phases,
            "spans": [span.as_dict() for span in tree.spans],
            "complete": all(span.ended is not None for span in tree.spans),
        }

    # ------------------------------------------------------------------
    # Trace mirroring
    # ------------------------------------------------------------------
    def _next_span_id(self) -> str:
        return f"s{next(self._span_counter):06d}"

    def _emit_start(self, span: Span, **meta) -> None:
        if self.trace is None:
            return
        event = {
            "type": "span_start",
            "request_id": span.request_id,
            "span_id": span.span_id,
            "name": span.name,
            "ts_ms": round(span.started * 1000.0, 3),
        }
        if span.parent_id is not None:
            event["parent_id"] = span.parent_id
        for key in ("op", "client", "attempt", "resumed_from_conflicts"):
            if key in meta and meta[key] is not None:
                event[key] = meta[key]
        self.trace.emit(event)

    def _emit_end(self, span: Span, **meta) -> None:
        if self.trace is None or span.ended is None:
            return
        event = {
            "type": "span_end",
            "request_id": span.request_id,
            "span_id": span.span_id,
            "name": span.name,
            "ts_ms": round(span.ended * 1000.0, 3),
            "duration_ms": round((span.duration or 0.0) * 1000.0, 3),
        }
        if span.status is not None:
            event["status"] = span.status
        merged = {**span.meta, **meta}
        for key in ("conflicts", "attempt", "resumed_from_conflicts", "kind"):
            if key in merged and merged[key] is not None:
                event[key] = merged[key]
        self.trace.emit(event)


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
