"""The structured trace bus: typed search events and pluggable sinks.

BerkMin's claims are claims about *search dynamics over time* — which
decision source fired when (Section 5), how far from the top of the
stack the current top clause sat (the Section 6 "skin effect"), how the
learned-clause database breathes under the Section 8 aging policy.
End-of-run :class:`~repro.solver.stats.SolverStats` totals cannot show
any of that; the trace bus can.  Every instrumented layer — the solver
core, clause-database management, checkpointing, and the supervised
parallel engines — emits plain-dict events onto one
:class:`TraceSink`.

Tracing is **zero-cost when disabled**: the sink lives on
``SolverConfig.trace`` (default ``None``) and every emission site
guards on ``solver.trace is not None``.  The emission sites sit at
per-decision / per-conflict granularity; the BCP hot loops never
consult the sink at all (``tests/observability/test_trace_overhead.py``
enforces both properties).

Event schema
------------

Events are flat dictionaries with a ``"type"`` key.  Every event that
originates inside a solver carries the lifetime ``"conflicts"`` counter
— warm resume restores that counter, so the concatenation of the traces
of a kill/resume chain is monotone in it (the checkpoint-seam
property tested in ``tests/checkpoint/test_resume_equivalence.py``).
The full schema lives in :data:`EVENT_SCHEMA` and is documented in
``docs/OBSERVABILITY.md``; :func:`validate_event` checks an event
against it.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Callable


class TraceFormatError(ValueError):
    """A trace line or event does not conform to :data:`EVENT_SCHEMA`."""


#: Legal values of the ``"source"`` field of decision events.
DECISION_SOURCES = ("top_clause", "global", "vsids", "random")

#: Event schema: type -> (required field names, optional field names).
#: Unknown types, missing required fields, and fields outside the union
#: are all validation errors — "schema-valid" means something.
EVENT_SCHEMA: dict[str, tuple[frozenset, frozenset]] = {
    # One Solver.solve() call starts / ends (every outcome, incl. UNKNOWN).
    "solve_start": (
        frozenset({"type", "conflicts", "decisions", "config", "variables", "clauses"}),
        frozenset(),
    ),
    "solve_end": (
        frozenset({"type", "conflicts", "status"}),
        frozenset({"limit_reason"}),
    ),
    # One metrics row from MetricsCollector (an on_progress hook): the
    # cumulative counters, windowed rates since the previous row, the
    # top-clause decision share, and exact skin-effect percentiles
    # (null until a top-clause decision was made).
    "solve_progress": (
        frozenset(
            {
                "type",
                "monotonic_ms",
                "elapsed_seconds",
                "conflicts",
                "decisions",
                "propagations",
                "restarts",
                "learned_clauses",
                "props_per_sec",
                "conflicts_per_sec",
                "top_clause_fraction",
                "skin_p50",
                "skin_p90",
                "skin_p99",
            }
        ),
        frozenset(),
    ),
    # One branching decision; ``source`` says which heuristic fired and
    # ``skin_distance`` is the Section-6 distance for top-clause
    # decisions (null for every other source).
    "decision": (
        frozenset(
            {"type", "conflicts", "decisions", "level", "literal", "source", "skin_distance"}
        ),
        frozenset(),
    ),
    # One conflict: the learnt clause's length, its LBD (distinct
    # decision levels), and the backjump distance in levels.
    "conflict": (
        frozenset({"type", "conflicts", "level", "learned_len", "lbd", "backjump"}),
        frozenset(),
    ),
    # One restart (emitted before the database reduction it triggers).
    "restart": (
        frozenset({"type", "conflicts", "restarts", "learned"}),
        frozenset({"next_interval"}),
    ),
    # One database reduction, with the Section-8 young/old breakdown
    # (non-BerkMin policies report everything in the young bucket).
    "reduce": (
        frozenset(
            {
                "type",
                "conflicts",
                "learned_before",
                "kept",
                "dropped",
                "young_kept",
                "young_dropped",
                "old_kept",
                "old_dropped",
            }
        ),
        frozenset(),
    ),
    # One arena-engine inprocessing pass (bounded variable elimination
    # between restarts): variables eliminated, arena words reclaimed by
    # the garbage collection it triggered (0 when none ran), wall time.
    "inprocess": (
        frozenset({"type", "conflicts", "eliminated", "freed_words", "wall_ms"}),
        frozenset(),
    ),
    # Checkpoint lifecycle: action is "write" or "resume".
    "checkpoint": (
        frozenset({"type", "action", "conflicts"}),
        frozenset({"path", "resumed_from"}),
    ),
    # Parent-side supervision events from the worker pool, one per
    # transition (lane is the job id).  Each launch is one worker_start
    # (a first attempt) or one worker_retry (a relaunch after a failed
    # attempt), so a trace's retries equal the pool's.  job_end closes
    # every finalized job: ``answered`` when a worker answer passed the
    # parent-side check, and no ``status`` for grouped jobs (their
    # answer is a list).  When the job carries a trace context (the
    # solver service's correlation ID), ``request_id`` attributes the
    # event to its request.
    "worker_start": (
        frozenset({"type", "lane", "attempt"}),
        frozenset({"resumed_from_conflicts", "request_id"}),
    ),
    "worker_fault": (
        frozenset({"type", "lane", "attempt", "reason", "will_retry"}),
        frozenset({"request_id"}),
    ),
    "worker_retry": (
        frozenset({"type", "lane", "attempt"}),
        frozenset({"resumed_from_conflicts", "request_id"}),
    ),
    "job_end": (
        frozenset({"type", "lane", "answered", "attempt"}),
        frozenset({"status", "limit_reason", "request_id"}),
    ),
    # One progress row a worker relayed over the result queue:
    # cumulative counters plus rates over the reporting window.
    "lane_progress": (
        frozenset(
            {
                "type",
                "lane",
                "conflicts",
                "decisions",
                "propagations",
                "restarts",
                "props_per_sec",
                "conflicts_per_sec",
                "shared_exported",
                "shared_imported",
                "shared_per_sec",
            }
        ),
        frozenset({"request_id"}),
    ),
    # A supervised fleet (batch, portfolio race or audit) begins with
    # ``count`` lanes and ends with a one-line summary.
    "fleet_start": (
        frozenset({"type", "count"}),
        frozenset({"labels"}),
    ),
    "fleet_end": (
        frozenset({"type", "summary"}),
        frozenset(),
    ),
    # Cooperative clause sharing between portfolio lanes (parent-side,
    # see repro.parallel.sharing).  share_export: the bus accepted one
    # framed clause from a lane; share_import: the bus forwarded a batch
    # of validated clauses into one lane's import queue; share_reject:
    # one frame failed a validation layer (reason names the layer,
    # severity is "hard" for Byzantine evidence and "benign" for
    # honest-but-unusable clauses); lane_quarantine: a lane crossed the
    # hard-rejection threshold, so its clauses are purged fleet-wide and
    # its attempt is failed through the pool's retry policy.
    "share_export": (
        frozenset({"type", "lane", "attempt", "seq", "size", "lbd"}),
        frozenset(),
    ),
    "share_import": (
        frozenset({"type", "lane", "count"}),
        frozenset({"dropped"}),
    ),
    "share_reject": (
        frozenset({"type", "lane", "reason", "severity"}),
        frozenset({"seq", "importer", "detail"}),
    ),
    "lane_quarantine": (
        frozenset({"type", "lane", "attempt", "rejections", "exported"}),
        frozenset({"reason"}),
    ),
    # One round of `repro-sat audit` (parent-side): its start, and its
    # verdict.
    "audit_round_start": (
        frozenset({"type", "round", "engine", "fault"}),
        frozenset(),
    ),
    "audit_round": (
        frozenset({"type", "round", "engine", "fault", "ok"}),
        frozenset({"retries", "detail"}),
    ),
    # Incremental-session lifecycle (see repro.session).  session_start
    # is emitted once per SolverSession; session_solve once per solve()
    # call with the 0-based call index, the answer, and how it was
    # produced ("search", or the cache-hit kind: "exact" / "core" /
    # "model"); session_retention once per between-call retention pass.
    "session_start": (
        frozenset({"type", "variables", "clauses", "config"}),
        frozenset(),
    ),
    "session_solve": (
        frozenset({"type", "call", "status", "served_by", "assumptions", "conflicts"}),
        frozenset({"core_size"}),
    ),
    "session_retention": (
        frozenset({"type", "call", "kept", "dropped", "max_lbd"}),
        frozenset(),
    ),
    # Solver-service lifecycle (see repro.server).  server_start is
    # emitted once per listener; server_request once per decoded
    # request; server_reply once per reply (kind is the protocol
    # discriminator: result/busy/deadline/error/pong/stats, cached the
    # answer-cache hit kind or null); server_breaker on every counted
    # worker-death for a fingerprint, with the resulting circuit state;
    # server_drain once when a graceful drain begins.
    "server_start": (
        frozenset({"type", "address", "pool_size"}),
        frozenset(),
    ),
    "server_request": (
        frozenset({"type", "client", "op"}),
        frozenset({"request_id"}),
    ),
    "server_reply": (
        frozenset({"type", "kind", "cached"}),
        frozenset({"request_id"}),
    ),
    "server_breaker": (
        frozenset({"type", "fingerprint", "state", "reason"}),
        frozenset(),
    ),
    "server_drain": (
        frozenset({"type", "open_jobs"}),
        frozenset(),
    ),
    # One exception swallowed by the server's pump guard (the tick kept
    # running; the error is recorded, not fatal).
    "server_pump_error": (
        frozenset({"type", "error"}),
        frozenset(),
    ),
    # Request-scoped spans, emitted by the service's ServiceOps (see
    # repro.server.ops): one span_start/span_end pair per phase of one
    # service request, keyed by the correlation ``request_id`` minted at
    # admission.  ``ts_ms`` is monotonic milliseconds; span_end repeats
    # the name so a pair is self-describing even when its start was lost.
    "span_start": (
        frozenset({"type", "request_id", "span_id", "name", "ts_ms"}),
        frozenset({"parent_id", "op", "client", "attempt", "resumed_from_conflicts"}),
    ),
    "span_end": (
        frozenset({"type", "request_id", "span_id", "name", "ts_ms", "duration_ms"}),
        frozenset({"status", "conflicts", "attempt", "resumed_from_conflicts", "kind"}),
    ),
}

EVENT_TYPES = tuple(sorted(EVENT_SCHEMA))


def validate_event(event) -> str | None:
    """Check one event against :data:`EVENT_SCHEMA`.

    Returns ``None`` for a valid event, else a one-line defect
    description (:func:`require_valid_event` raises it instead).
    """
    if not isinstance(event, dict):
        return f"event is not a dict: {type(event).__name__}"
    kind = event.get("type")
    if kind not in EVENT_SCHEMA:
        return f"unknown event type {kind!r}"
    required, optional = EVENT_SCHEMA[kind]
    missing = required - event.keys()
    if missing:
        return f"{kind}: missing field(s) {', '.join(sorted(missing))}"
    unknown = event.keys() - required - optional
    if unknown:
        return f"{kind}: unknown field(s) {', '.join(sorted(unknown))}"
    if "conflicts" in event and not isinstance(event["conflicts"], int):
        return f"{kind}: 'conflicts' must be an int"
    if kind == "decision" and event["source"] not in DECISION_SOURCES:
        return (
            f"decision: source {event['source']!r} not in "
            f"{', '.join(DECISION_SOURCES)}"
        )
    if kind == "checkpoint" and event["action"] not in ("write", "resume"):
        return f"checkpoint: action {event['action']!r} not in write, resume"
    return None


def require_valid_event(event) -> dict:
    """Return ``event`` unchanged, or raise :class:`TraceFormatError`."""
    defect = validate_event(event)
    if defect is not None:
        raise TraceFormatError(defect)
    return event


class TraceSink:
    """Receiver of trace events — the protocol every sink implements.

    ``emit`` takes one event dict and must not mutate or retain it
    beyond the call unless it copies (the solver reuses no event dicts,
    but other producers may).  ``close`` flushes and releases any
    resources; it is idempotent.  The base class is a no-op sink, usable
    directly to swallow events.
    """

    def emit(self, event: dict) -> None:  # pragma: no cover - trivial
        pass

    def close(self) -> None:  # pragma: no cover - trivial
        pass

    def __enter__(self) -> "TraceSink":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class JsonlTraceSink(TraceSink):
    """Append events to a JSONL file, one compact JSON object per line.

    The file is opened lazily on the first event, so a sink can ride
    inside a :class:`~repro.solver.config.SolverConfig` across a process
    boundary (pickling drops the open handle; each process appends to
    its own lazily-opened handle — though the parallel engines strip
    sinks from worker configs and relay telemetry over the result queue
    instead, see :mod:`repro.parallel`).
    """

    def __init__(self, path, *, append: bool = False) -> None:
        self.path = str(path)
        self._append = append
        self._handle = None
        self.events_written = 0

    def emit(self, event: dict) -> None:
        if self._handle is None:
            mode = "a" if self._append else "w"
            self._handle = open(self.path, mode, encoding="utf-8")
        self._handle.write(json.dumps(event, separators=(",", ":"), default=str))
        self._handle.write("\n")
        self.events_written += 1

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_handle"] = None  # file handles do not cross process boundaries
        state["_append"] = True  # an unpickled copy must not clobber the file
        return state


class RingBufferSink(TraceSink):
    """Keep the last ``capacity`` events in memory (a flight recorder)."""

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._events: deque = deque(maxlen=capacity)

    def emit(self, event: dict) -> None:
        self._events.append(event)

    @property
    def events(self) -> list[dict]:
        """The buffered events, oldest first."""
        return list(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def clear(self) -> None:
        self._events.clear()


class CallbackSink(TraceSink):
    """Forward every event to a callable (``fn(event)``)."""

    def __init__(self, fn: Callable[[dict], None]) -> None:
        self.fn = fn

    def emit(self, event: dict) -> None:
        self.fn(event)


class MultiSink(TraceSink):
    """Fan one event stream out to several sinks."""

    def __init__(self, *sinks: TraceSink) -> None:
        self.sinks = tuple(sinks)

    def emit(self, event: dict) -> None:
        for sink in self.sinks:
            sink.emit(event)

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()


def read_trace(path):
    """Yield validated events from a JSONL trace file.

    Raises :class:`TraceFormatError` (with the 1-based line number) on
    the first malformed line or schema-invalid event.
    """
    with open(path, encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError as error:
                raise TraceFormatError(f"{path}:{number}: not JSON ({error})") from None
            defect = validate_event(event)
            if defect is not None:
                raise TraceFormatError(f"{path}:{number}: {defect}")
            yield event
