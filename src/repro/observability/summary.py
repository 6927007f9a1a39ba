"""Aggregate a JSONL trace into a Table-3-shaped search report.

``repro-sat trace-summary FILE`` lands here.  The summary reproduces
the evidence shape of the paper's Table 3: the decision-source mix
(what fraction of branching decisions the top clause drove), the
skin-effect depth distribution (Section 6), plus LBD / learned-length /
backjump statistics, restart cadence, database-reduction totals, and a
reliability section when the trace covers supervised engines.
"""

from __future__ import annotations

import json

from .spans import phase_of
from .trace import DECISION_SOURCES, TraceFormatError, validate_event


def _iter_trace_lenient(path, unknown_types: dict):
    """Yield validated events, skipping (and counting) unknown types.

    Forward compatibility: a trace written by a newer schema may carry
    event types this build does not know.  Crashing the whole summary
    over them would make old tooling useless against new traces, so
    unknown *types* are skipped and tallied into ``unknown_types`` (the
    report prints them as a warning).  Every other defect — broken
    JSON, missing/unknown fields on a known type — still raises
    :class:`TraceFormatError`: those mean corruption, not the future.
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
            if defect is None:
                yield event
                continue
            if defect.startswith("unknown event type"):
                kind = str(event.get("type"))
                unknown_types[kind] = unknown_types.get(kind, 0) + 1
                continue
            raise TraceFormatError(f"{path}:{number}: {defect}")


def _distribution(values: list) -> dict:
    """count/min/max/mean/p50/p90/p99 of a list of numbers."""
    if not values:
        return {"count": 0}
    ordered = sorted(values)
    count = len(ordered)

    def pick(q: float):
        return ordered[min(count - 1, int(q * count))]

    return {
        "count": count,
        "min": ordered[0],
        "max": ordered[-1],
        "mean": round(sum(ordered) / count, 2),
        "p50": pick(0.50),
        "p90": pick(0.90),
        "p99": pick(0.99),
    }


def summarize_trace(path) -> dict:
    """Read a trace file and fold it into one summary dict.

    Raises :class:`~repro.observability.trace.TraceFormatError` on the
    first malformed line — a summary over a corrupt trace would be
    silently wrong, which is worse than no summary.  The one leniency
    is *unknown event types* (traces from a newer schema): those are
    skipped and surfaced as a counted warning instead of a crash.
    """
    events = 0
    by_type: dict[str, int] = {}
    source_counts: dict[str, int] = {source: 0 for source in DECISION_SOURCES}
    skin_distances: list[int] = []
    lbds: list[int] = []
    learned_lens: list[int] = []
    backjumps: list[int] = []
    restart_conflicts: list[int] = []
    reduce_totals = {
        "reductions": 0,
        "kept": 0,
        "dropped": 0,
        "young_kept": 0,
        "young_dropped": 0,
        "old_kept": 0,
        "old_dropped": 0,
    }
    inprocess_totals = {
        "passes": 0,
        "eliminated": 0,
        "freed_words": 0,
        "wall_ms": 0.0,
    }
    solves: list[dict] = []
    checkpoint = {"writes": 0, "resumes": 0}
    fleet = {"faults": 0, "retries": 0, "audit_rounds": 0, "audit_failures": 0}
    sharing = {
        "exports": 0,
        "import_batches": 0,
        "imported": 0,
        "rejects": 0,
        "quarantines": 0,
    }
    reject_reasons: dict[str, int] = {}
    unknown_types: dict[str, int] = {}
    max_conflicts = 0

    for event in _iter_trace_lenient(path, unknown_types):
        events += 1
        kind = event["type"]
        by_type[kind] = by_type.get(kind, 0) + 1
        if isinstance(event.get("conflicts"), int):
            max_conflicts = max(max_conflicts, event["conflicts"])
        if kind == "decision":
            source_counts[event["source"]] += 1
            if event["skin_distance"] is not None:
                skin_distances.append(event["skin_distance"])
        elif kind == "conflict":
            lbds.append(event["lbd"])
            learned_lens.append(event["learned_len"])
            backjumps.append(event["backjump"])
        elif kind == "restart":
            restart_conflicts.append(event["conflicts"])
        elif kind == "reduce":
            reduce_totals["reductions"] += 1
            for key in ("kept", "dropped", "young_kept", "young_dropped", "old_kept", "old_dropped"):
                reduce_totals[key] += event[key]
        elif kind == "inprocess":
            inprocess_totals["passes"] += 1
            inprocess_totals["eliminated"] += event["eliminated"]
            inprocess_totals["freed_words"] += event["freed_words"]
            inprocess_totals["wall_ms"] = round(
                inprocess_totals["wall_ms"] + event["wall_ms"], 3
            )
        elif kind == "solve_end":
            solves.append(
                {
                    "status": event["status"],
                    "conflicts": event["conflicts"],
                    "limit_reason": event.get("limit_reason"),
                }
            )
        elif kind == "checkpoint":
            key = "writes" if event["action"] == "write" else "resumes"
            checkpoint[key] += 1
        elif kind == "worker_fault":
            fleet["faults"] += 1
        elif kind == "worker_retry":
            fleet["retries"] += 1
        elif kind == "audit_round":
            fleet["audit_rounds"] += 1
            if not event["ok"]:
                fleet["audit_failures"] += 1
        elif kind == "share_export":
            sharing["exports"] += 1
        elif kind == "share_import":
            sharing["import_batches"] += 1
            sharing["imported"] += event["count"]
        elif kind == "share_reject":
            sharing["rejects"] += 1
            reason = event["reason"]
            reject_reasons[reason] = reject_reasons.get(reason, 0) + 1
        elif kind == "lane_quarantine":
            sharing["quarantines"] += 1

    decisions = sum(source_counts.values())
    intervals = [
        later - earlier
        for earlier, later in zip(restart_conflicts, restart_conflicts[1:])
    ]
    return {
        "path": str(path),
        "events": events,
        "by_type": dict(sorted(by_type.items())),
        "decisions": decisions,
        "decision_source_mix": {
            source: (round(count / decisions, 4) if decisions else 0.0)
            for source, count in source_counts.items()
        },
        "skin_distance": _distribution(skin_distances),
        "lbd": _distribution(lbds),
        "learned_len": _distribution(learned_lens),
        "backjump": _distribution(backjumps),
        "restarts": {
            "count": len(restart_conflicts),
            "interval_conflicts": _distribution(intervals),
        },
        "reductions": reduce_totals,
        "inprocess": inprocess_totals,
        "solves": solves,
        "checkpoint": checkpoint,
        "fleet": fleet,
        "sharing": {
            **sharing,
            "reject_reasons": dict(sorted(reject_reasons.items())),
        },
        "unknown_events": {
            "count": sum(unknown_types.values()),
            "types": dict(sorted(unknown_types.items())),
        },
        "max_conflicts": max_conflicts,
    }


def _format_distribution(label: str, dist: dict) -> str:
    if dist["count"] == 0:
        return f"  {label:<14} (no samples)"
    return (
        f"  {label:<14} n={dist['count']:<8} mean={dist['mean']:<8} "
        f"p50={dist['p50']:<6} p90={dist['p90']:<6} p99={dist['p99']:<6} "
        f"max={dist['max']}"
    )


def format_summary(summary: dict) -> str:
    """Render :func:`summarize_trace` output as a human-readable report."""
    lines = [
        f"trace summary: {summary['path']}",
        f"  events: {summary['events']} "
        + "("
        + ", ".join(f"{kind}={count}" for kind, count in summary["by_type"].items())
        + ")",
        "",
        f"decision-source mix ({summary['decisions']} decisions):",
    ]
    for source, fraction in summary["decision_source_mix"].items():
        lines.append(f"  {source:<14} {fraction:>7.1%}")
    lines += [
        "",
        "search dynamics:",
        _format_distribution("skin distance", summary["skin_distance"]),
        _format_distribution("lbd", summary["lbd"]),
        _format_distribution("learned len", summary["learned_len"]),
        _format_distribution("backjump", summary["backjump"]),
    ]
    restarts = summary["restarts"]
    lines += ["", f"restarts: {restarts['count']}"]
    if restarts["interval_conflicts"]["count"]:
        lines.append(_format_distribution("interval", restarts["interval_conflicts"]))
    reductions = summary["reductions"]
    if reductions["reductions"]:
        lines += [
            "",
            f"db reductions: {reductions['reductions']} "
            f"(kept {reductions['kept']}, dropped {reductions['dropped']}; "
            f"young {reductions['young_kept']}/{reductions['young_kept'] + reductions['young_dropped']} kept, "
            f"old {reductions['old_kept']}/{reductions['old_kept'] + reductions['old_dropped']} kept)",
        ]
    inprocess = summary["inprocess"]
    if inprocess["passes"]:
        lines += [
            "",
            f"inprocessing: {inprocess['passes']} passes "
            f"({inprocess['eliminated']} variables eliminated, "
            f"{inprocess['freed_words']} arena words freed, "
            f"{inprocess['wall_ms']:.1f}ms total)",
        ]
    if summary["checkpoint"]["writes"] or summary["checkpoint"]["resumes"]:
        lines += [
            "",
            f"checkpoints: {summary['checkpoint']['writes']} written, "
            f"{summary['checkpoint']['resumes']} resumed",
        ]
    fleet = summary["fleet"]
    if any(fleet.values()):
        lines += [
            "",
            f"fleet: {fleet['faults']} faults, {fleet['retries']} retries, "
            f"{fleet['audit_rounds']} audit rounds "
            f"({fleet['audit_failures']} failed)",
        ]
    sharing = summary.get("sharing", {})
    if any(
        sharing.get(key) for key in ("exports", "imported", "rejects", "quarantines")
    ):
        reasons = sharing.get("reject_reasons", {})
        reason_text = (
            " (" + ", ".join(f"{k}={v}" for k, v in reasons.items()) + ")"
            if reasons
            else ""
        )
        lines += [
            "",
            f"clause sharing: {sharing['exports']} exports, "
            f"{sharing['imported']} clauses imported in "
            f"{sharing['import_batches']} batches, "
            f"{sharing['rejects']} rejected{reason_text}",
        ]
        if sharing.get("quarantines"):
            lines.append(f"  lanes: {sharing['quarantines']} quarantined")
    unknown = summary.get("unknown_events", {})
    if unknown.get("count"):
        kinds = ", ".join(f"{k}={v}" for k, v in unknown["types"].items())
        lines += [
            "",
            f"warning: skipped {unknown['count']} event(s) of unknown type "
            f"({kinds}) — trace written by a newer schema?",
        ]
    if summary["solves"]:
        lines.append("")
        lines.append("solves:")
        for solve in summary["solves"]:
            reason = f" ({solve['limit_reason']})" if solve.get("limit_reason") else ""
            lines.append(
                f"  {solve['status']}{reason} after {solve['conflicts']} conflicts"
            )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Service-shaped summary (request spans instead of search dynamics)
# ----------------------------------------------------------------------
def summarize_service_trace(path) -> dict:
    """Fold a *service* trace into a request-centric report.

    Where :func:`summarize_trace` reads a trace as evidence about the
    *search* (Table 3), this reads the same JSONL as evidence about the
    *service*: requests by op, replies by kind, per-phase latency
    distributions assembled from ``span_end`` events, span-tree
    completeness (every request should close every span it opened), and
    fault attribution (which faults/retries carried a ``request_id``).
    Same strictness contract: defects on known event types raise,
    unknown types are counted and skipped.
    """
    requests_by_op: dict[str, int] = {}
    replies_by_kind: dict[str, int] = {}
    phase_ms: dict[str, list] = {}
    open_spans: dict[tuple, str] = {}
    request_kinds: dict[str, str | None] = {}
    incomplete: set = set()
    faults = {"worker_faults": 0, "worker_retries": 0, "with_request_id": 0}
    breaker_events = 0
    pump_errors = 0
    unknown_types: dict[str, int] = {}
    events = 0

    for event in _iter_trace_lenient(path, unknown_types):
        events += 1
        kind = event["type"]
        if kind == "server_request":
            requests_by_op[event["op"]] = requests_by_op.get(event["op"], 0) + 1
        elif kind == "server_reply":
            replies_by_kind[event["kind"]] = replies_by_kind.get(event["kind"], 0) + 1
        elif kind == "span_start":
            open_spans[(event["request_id"], event["span_id"])] = event["name"]
            request_kinds.setdefault(event["request_id"], None)
        elif kind == "span_end":
            open_spans.pop((event["request_id"], event["span_id"]), None)
            if event["name"] == "request":
                request_kinds[event["request_id"]] = event.get("kind")
            phase = phase_of(event["name"])
            phase_ms.setdefault(phase, []).append(event["duration_ms"])
        elif kind in ("worker_fault", "worker_retry"):
            key = "worker_faults" if kind == "worker_fault" else "worker_retries"
            faults[key] += 1
            if event.get("request_id") is not None:
                faults["with_request_id"] += 1
        elif kind == "server_breaker":
            breaker_events += 1
        elif kind == "server_pump_error":
            pump_errors += 1

    for request_id, _span_id in open_spans:
        incomplete.add(request_id)
    complete = sum(
        1
        for request_id in request_kinds
        if request_id not in incomplete
    )
    return {
        "path": str(path),
        "events": events,
        "requests_by_op": dict(sorted(requests_by_op.items())),
        "replies_by_kind": dict(sorted(replies_by_kind.items())),
        "phase_latency_ms": {
            phase: _distribution(values)
            for phase, values in sorted(phase_ms.items())
        },
        "requests_traced": len(request_kinds),
        "requests_complete": complete,
        "requests_incomplete": sorted(incomplete),
        "faults": faults,
        "breaker_events": breaker_events,
        "pump_errors": pump_errors,
        "unknown_events": {
            "count": sum(unknown_types.values()),
            "types": dict(sorted(unknown_types.items())),
        },
    }


def format_service_summary(summary: dict) -> str:
    """Render :func:`summarize_service_trace` output for terminals."""
    lines = [
        f"service trace summary: {summary['path']}",
        f"  events: {summary['events']}",
        "",
        "requests by op:",
    ]
    if summary["requests_by_op"]:
        for op, count in summary["requests_by_op"].items():
            lines.append(f"  {op:<10} {count}")
    else:
        lines.append("  (none)")
    lines += ["", "replies by kind:"]
    if summary["replies_by_kind"]:
        for kind, count in summary["replies_by_kind"].items():
            lines.append(f"  {kind:<10} {count}")
    else:
        lines.append("  (none)")
    lines += ["", "phase latency (ms):"]
    if summary["phase_latency_ms"]:
        for phase, dist in summary["phase_latency_ms"].items():
            lines.append(_format_distribution(phase, dist))
    else:
        lines.append("  (no spans in trace)")
    traced = summary["requests_traced"]
    lines += [
        "",
        f"span trees: {traced} traced, {summary['requests_complete']} complete",
    ]
    if summary["requests_incomplete"]:
        sample = ", ".join(summary["requests_incomplete"][:5])
        lines.append(
            f"  warning: {len(summary['requests_incomplete'])} request(s) "
            f"left spans open ({sample})"
        )
    faults = summary["faults"]
    if faults["worker_faults"] or faults["worker_retries"]:
        lines += [
            "",
            f"faults: {faults['worker_faults']} worker faults, "
            f"{faults['worker_retries']} retries "
            f"({faults['with_request_id']} attributed to a request)",
        ]
    if summary["breaker_events"]:
        lines.append(f"breaker transitions: {summary['breaker_events']}")
    if summary["pump_errors"]:
        lines.append(f"pump errors: {summary['pump_errors']}")
    unknown = summary.get("unknown_events", {})
    if unknown.get("count"):
        kinds = ", ".join(f"{k}={v}" for k, v in unknown["types"].items())
        lines += [
            "",
            f"warning: skipped {unknown['count']} event(s) of unknown type "
            f"({kinds}) — trace written by a newer schema?",
        ]
    return "\n".join(lines)
