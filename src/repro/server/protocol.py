"""The wire protocol: line-delimited JSON requests and replies.

One request per line, one reply line per request, matched by the
client-chosen ``id`` (any JSON scalar).  Replies are **not** ordered —
a slow solve and a fast cache hit issued on the same connection come
back in completion order — so every client must dispatch on ``id``.

Requests::

    {"op": "solve", "id": 1, "clauses": [[1, 2], [-1, 2]],
     "assumptions": [2], "timeout": 5.0, "max_conflicts": 100000,
     "config": "berkmin"}
    {"op": "ping", "id": 2}
    {"op": "stats", "id": 3}
    {"op": "metrics", "id": 4}

Replies (``kind`` discriminates)::

    {"id": 1, "kind": "result", "status": "SAT", "model": [1, 2],
     "verified": "model", "cached": null, "attempts": 1, ...}
    {"id": 1, "kind": "busy", "reason": "queue full"}        # load shed
    {"id": 1, "kind": "deadline", "reason": "time budget"}   # budget up
    {"id": 1, "kind": "error", "error": "clauses: ..."}      # bad request
    {"id": 2, "kind": "pong"}
    {"id": 3, "kind": "stats", "stats": {...}}
    {"id": 4, "kind": "metrics", "metrics": "# HELP reprosat_... \n..."}

The ``metrics`` reply carries one Prometheus text-exposition scrape
body as a JSON string — point a scrape sidecar at it, or eyeball it
with ``repro-sat top``.

``busy`` and ``deadline`` are *explicit refusals*, not errors: the
request was well-formed but the service chose (admission control,
circuit breaker, drain) or was forced (expired deadline) not to answer
it.  Models travel as a sorted list of DIMACS literals (positive =
true); cores as the failed-assumption literal list.

Everything here is pure data transformation — no sockets, no asyncio —
so the same functions serve the server, both clients, and the tests.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.cnf.literals import MAX_VARIABLES
from repro.solver.result import SolveResult

#: Upper bound on one request/reply line, shared by server and clients.
#: Big enough for ~million-literal formulas, small enough to stop an
#: unframed garbage stream from ballooning server memory.
MAX_LINE_BYTES = 32 * 1024 * 1024

#: Request operations.
OPS = ("solve", "ping", "stats", "metrics")

#: Reply discriminators.
REPLY_KINDS = ("result", "busy", "deadline", "error", "pong", "stats", "metrics")


class ProtocolError(ValueError):
    """A request line that cannot be parsed into a valid request."""


@dataclass
class Request:
    """One decoded client request."""

    op: str
    request_id: object = None
    clauses: list[list[int]] = field(default_factory=list)
    assumptions: tuple[int, ...] = ()
    timeout: float | None = None
    max_conflicts: int | None = None
    max_decisions: int | None = None
    config: str | None = None


def _require_literals(value, label: str) -> list[int]:
    if not isinstance(value, list):
        raise ProtocolError(f"{label}: expected a list of DIMACS literals")
    literals = []
    for item in value:
        if isinstance(item, bool) or not isinstance(item, int) or item == 0:
            raise ProtocolError(f"{label}: literals must be nonzero integers")
        if abs(item) > MAX_VARIABLES:
            raise ProtocolError(
                f"{label}: literals must name variables up to {MAX_VARIABLES}"
            )
        literals.append(item)
    return literals


def parse_request(line: str | bytes) -> Request:
    """Decode one request line; raises :class:`ProtocolError` on defects.

    Defect messages are complete sentences safe to echo back to the
    client in an ``error`` reply — they never include raw payload.
    """
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError:
            raise ProtocolError("request line is not valid UTF-8") from None
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError(f"request line exceeds {MAX_LINE_BYTES} bytes")
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as error:
        raise ProtocolError(f"request is not valid JSON ({error.msg})") from None
    if not isinstance(payload, dict):
        raise ProtocolError("request must be a JSON object")
    op = payload.get("op")
    if op not in OPS:
        raise ProtocolError(f"unknown op {op!r}; expected one of {', '.join(OPS)}")
    request = Request(op=op, request_id=payload.get("id"))
    if not isinstance(request.request_id, (str, int, float, type(None))):
        raise ProtocolError("id must be a JSON scalar")
    known = {"op", "id", "clauses", "assumptions", "timeout",
             "max_conflicts", "max_decisions", "config"}
    unknown = payload.keys() - known
    if unknown:
        raise ProtocolError(f"unknown field(s): {', '.join(sorted(unknown))}")
    if op != "solve":
        return request

    clauses = payload.get("clauses")
    if not isinstance(clauses, list):
        raise ProtocolError("solve: 'clauses' must be a list of clauses")
    request.clauses = [
        _require_literals(clause, f"clauses[{index}]")
        for index, clause in enumerate(clauses)
    ]
    request.assumptions = tuple(
        _require_literals(payload.get("assumptions", []), "assumptions")
    )
    timeout = payload.get("timeout")
    if timeout is not None:
        if isinstance(timeout, bool) or not isinstance(timeout, (int, float)) or timeout <= 0:
            raise ProtocolError("timeout must be a positive number of seconds")
        request.timeout = float(timeout)
    for name in ("max_conflicts", "max_decisions"):
        value = payload.get(name)
        if value is not None:
            if isinstance(value, bool) or not isinstance(value, int) or value <= 0:
                raise ProtocolError(f"{name} must be a positive integer")
            setattr(request, name, value)
    config = payload.get("config")
    if config is not None and not isinstance(config, str):
        raise ProtocolError("config must be a configuration name string")
    request.config = config
    return request


# ----------------------------------------------------------------------
# Reply construction
# ----------------------------------------------------------------------
def encode_reply(reply: dict) -> bytes:
    """Serialize one reply dict to a newline-terminated JSON line."""
    return json.dumps(reply, separators=(",", ":"), default=str).encode("utf-8") + b"\n"


def result_reply(
    request_id, result: SolveResult, *, cached: str | None = None
) -> dict:
    """Build a ``result`` reply from a :class:`SolveResult`."""
    reply: dict = {
        "id": request_id,
        "kind": "result",
        "status": result.status.value,
        "verified": result.verified,
        "cached": cached,
        "attempts": len(result.attempts) if result.attempts else 1,
        "wall_seconds": round(result.wall_seconds, 6),
    }
    if result.model is not None:
        reply["model"] = sorted(
            (var if value else -var) for var, value in result.model.items()
        )
    if result.core is not None:
        reply["core"] = list(result.core)
    if result.under_assumptions:
        reply["under_assumptions"] = True
    if result.is_unknown:
        reply["limit_reason"] = result.limit_reason
        if result.degraded:
            reply["degraded"] = result.degradation
    return reply


def refusal_reply(request_id, kind: str, reason: str) -> dict:
    """Build a ``busy`` or ``deadline`` explicit-refusal reply."""
    if kind not in ("busy", "deadline"):
        raise ValueError(f"refusal kind must be busy or deadline, not {kind!r}")
    return {"id": request_id, "kind": kind, "reason": reason}


def error_reply(request_id, message: str) -> dict:
    """Build an ``error`` reply for a malformed or unservable request."""
    return {"id": request_id, "kind": "error", "error": message}
