"""Live fleet dashboard for the supervised parallel engines.

The engines (:func:`repro.parallel.solve_batch`,
:class:`repro.parallel.PortfolioSolver`, and
:func:`repro.reliability.audit.run_audit`) report their fleets on one
:class:`~repro.observability.trace.TraceSink`: ``fleet_start``, one
event per lane transition, ``lane_progress`` rows relayed from workers,
and ``fleet_end``.  :class:`FleetDashboard` is a sink that folds those
events into per-lane life-cycle states (``running`` → ``retrying`` →
``resumed`` → ``done`` / ``degraded``).  On a TTY it redraws an ANSI
multi-line panel in place (lane glyphs, aggregate rates, fleet ETA);
on a plain pipe it degrades to one line per state *transition*, which
is also the deterministic surface the tests drive.
"""

from __future__ import annotations

import sys
import time

from .trace import TraceSink

#: Lane life-cycle states, with the glyph/order used by the dashboard.
#: ``quarantined`` marks a lane muted by the clause bus for Byzantine
#: sharing evidence (see repro.parallel.sharing).
LANE_STATES = (
    "pending",
    "running",
    "retrying",
    "resumed",
    "quarantined",
    "degraded",
    "done",
)

_GLYPHS = {
    "pending": ".",
    "running": "▶",
    "retrying": "↻",
    "resumed": "⤴",
    "quarantined": "☣",
    "degraded": "✗",
    "done": "✓",
}


def _lane_transition(event: dict) -> tuple | None:
    """``(lane, state, detail, attempt)`` an event moves a lane to, or None.

    The fold behind the dashboard's lane states.  Audit rounds are
    lanes too, keyed by their round number.
    """
    kind = event["type"]
    if kind in ("worker_start", "worker_retry"):
        attempt = event["attempt"]
        resumed = attempt and event.get("resumed_from_conflicts") is not None
        return event["lane"], "resumed" if resumed else "running", None, attempt
    if kind == "worker_fault":
        if not event["will_retry"]:
            return None  # the job_end that follows degrades the lane
        return event["lane"], "retrying", event["reason"], event["attempt"]
    if kind == "job_end":
        if event["answered"]:
            return event["lane"], "done", event.get("status"), event["attempt"]
        return event["lane"], "degraded", event.get("limit_reason"), event["attempt"]
    if kind == "lane_quarantine":
        detail = f"{event['rejections']} hard share rejections"
        return event["lane"], "quarantined", detail, event["attempt"]
    if kind == "audit_round_start":
        return event["round"], "running", f"{event['engine']}/{event['fault']}", 0
    if kind == "audit_round":
        if event["ok"]:
            return event["round"], "done", f"{event['engine']}/{event['fault']}", 0
        return event["round"], "degraded", event.get("detail"), 0
    return None


class FleetDashboard(TraceSink):
    """Terminal fleet view: lane panel on a TTY, transition log elsewhere.

    A trace sink: ``fleet_start`` sizes the panel, supervision events
    (launches, faults, job ends, quarantines, audit rounds) set lane
    states, ``lane_progress`` rows feed the rates, and ``fleet_end``
    prints the summary; every other event is ignored.  On a TTY the
    panel redraws in place (cursor-up + erase-line ANSI sequences) at
    most every ``refresh_seconds``; state *transitions* always force a
    redraw so a fast crash/retry is never skipped.  On a non-TTY stream each transition prints exactly one
    ``lane 3: retrying (...) [attempt 1]`` line — stable output for
    piping and for the tests.
    """

    def __init__(self, out=None, *, refresh_seconds: float = 0.25, width: int = 78) -> None:
        self.out = out if out is not None else sys.stderr
        self.refresh_seconds = refresh_seconds
        self.width = width
        self.is_tty = bool(getattr(self.out, "isatty", lambda: False)())
        self.count = 0
        self.labels: list[str] = []
        self.states: list[str] = []
        self.details: list = []
        self.attempts: list[int] = []
        self.latest: dict[int, dict] = {}
        self._started = None
        self._last_draw = 0.0
        self._panel_lines = 0
        self._finished = False

    def emit(self, event: dict) -> None:
        kind = event["type"]
        if kind == "fleet_start":
            self._fleet_started(event["count"], event.get("labels"))
        elif kind == "fleet_end":
            self._fleet_finished(event["summary"])
        elif kind == "lane_progress":
            if 0 <= event["lane"] < self.count:
                self.latest[event["lane"]] = event
                if self.is_tty:
                    self._draw()
        else:
            transition = _lane_transition(event)
            if transition is not None:
                self._lane_state(*transition)

    def _fleet_started(self, count: int, labels) -> None:
        self.count = count
        self.labels = list(labels) if labels else [f"lane {i}" for i in range(count)]
        self.states = ["pending"] * count
        self.details = [None] * count
        self.attempts = [0] * count
        self.latest = {}
        self._started = time.monotonic()
        self._finished = False
        if self.is_tty:
            self._draw(force=True)
        else:
            self._line(f"fleet: {count} lanes")

    def _lane_state(self, lane: int, state: str, detail, attempt: int) -> None:
        if not 0 <= lane < self.count:
            return
        self.states[lane] = state
        self.details[lane] = detail
        self.attempts[lane] = attempt
        if self.is_tty:
            self._draw(force=True)
        else:
            suffix = f" ({detail})" if detail else ""
            tail = f" [attempt {attempt}]" if attempt else ""
            self._line(f"lane {lane}: {state}{suffix}{tail}")

    def _fleet_finished(self, summary: str) -> None:
        self._finished = True
        if self.is_tty:
            self._draw(force=True)
        self._line(f"fleet finished: {summary}")

    def close(self) -> None:
        if self.is_tty and self._panel_lines and not self._finished:
            # Leave the last panel on screen but move past it cleanly.
            self._panel_lines = 0
            self._write("\n")
            self._flush()

    # ------------------------------------------------------------- rendering
    def _write(self, text: str) -> None:
        try:
            self.out.write(text)
        except ValueError:  # closed stream (e.g. teardown order) — drop output
            pass

    def _flush(self) -> None:
        flush = getattr(self.out, "flush", None)
        if flush is not None:
            try:
                flush()
            except ValueError:
                pass

    def _line(self, text: str) -> None:
        self._write(text + "\n")
        self._flush()

    def _aggregate(self) -> tuple[float, float, float, float | None]:
        """(props/sec, conflicts/sec, shares/sec, eta) across live lanes."""
        props = sum(row.get("props_per_sec") or 0.0 for row in self.latest.values())
        conflicts = sum(
            row.get("conflicts_per_sec") or 0.0 for row in self.latest.values()
        )
        shared = sum(row.get("shared_per_sec") or 0.0 for row in self.latest.values())
        finished = sum(1 for state in self.states if state in ("done", "degraded"))
        eta = None
        if self._started is not None and 0 < finished < self.count:
            elapsed = time.monotonic() - self._started
            eta = elapsed / finished * (self.count - finished)
        return props, conflicts, shared, eta

    def _panel(self) -> list[str]:
        finished = sum(1 for state in self.states if state in ("done", "degraded"))
        glyphs = "".join(_GLYPHS.get(state, "?") for state in self.states)
        props, conflicts, shared, eta = self._aggregate()
        header = (
            f"fleet {finished}/{self.count}  "
            f"{props:,.0f} props/s  {conflicts:,.0f} conflicts/s"
        )
        if shared:
            header += f"  {shared:,.1f} shares/s"
        if eta is not None:
            header += f"  eta ~{eta:.0f}s"
        lines = [header[: self.width], f"[{glyphs}]"[: self.width]]
        for lane in range(self.count):
            state = self.states[lane]
            if state == "pending":
                continue
            detail = self.details[lane]
            row = self.latest.get(lane, {})
            text = f"  {_GLYPHS[state]} {self.labels[lane]:<16} {state:<9}"
            if self.attempts[lane]:
                text += f" attempt {self.attempts[lane]}"
            if row.get("conflicts") is not None:
                text += f" {row['conflicts']} conflicts"
            if detail:
                text += f" — {detail}"
            lines.append(text[: self.width])
        return lines

    def _draw(self, force: bool = False) -> None:
        now = time.monotonic()
        if not force and now - self._last_draw < self.refresh_seconds:
            return
        self._last_draw = now
        if self._panel_lines:
            self._write(f"\x1b[{self._panel_lines}F\x1b[J")  # up + erase to end
        lines = self._panel()
        self._write("\n".join(lines) + "\n")
        self._panel_lines = len(lines)
        self._flush()


class OpsTop(FleetDashboard):
    """``repro-sat top``: a live ops panel fed by the ``stats`` op.

    Reuses the :class:`FleetDashboard` terminal machinery (in-place ANSI
    panel on a TTY, one deterministic line per update elsewhere) but
    renders a *service* snapshot instead of lane states: request rate,
    in-flight and queued work, reply mix, per-phase latency percentiles,
    SLO burn, and the slowest currently-open requests.
    """

    def __init__(self, out=None, *, refresh_seconds: float = 0.25, width: int = 78) -> None:
        super().__init__(out, refresh_seconds=refresh_seconds, width=width)
        self.stats: dict = {}
        self.updates = 0
        self._previous: tuple[float, int] | None = None
        self._rps = 0.0

    def update(self, stats: dict) -> None:
        """Feed one ``stats()`` snapshot; redraws (TTY) or prints one line."""
        now = time.monotonic()
        requests = int(stats.get("requests", 0))
        if self._previous is not None:
            window = now - self._previous[0]
            if window > 1e-9:
                self._rps = max(0.0, (requests - self._previous[1]) / window)
        self._previous = (now, requests)
        self.stats = stats
        self.updates += 1
        if self.is_tty:
            self._draw(force=True)
        else:
            self._line(self._one_line())

    def _one_line(self) -> str:
        stats = self.stats
        pool = stats.get("pool", {})
        spans = stats.get("spans", {})
        latency = stats.get("latency", {})
        request = latency.get("request", {})
        p50 = request.get("p50")
        p50_text = f"{p50 * 1000:.1f}ms" if p50 is not None else "-"
        return (
            f"top: {stats.get('requests', 0)} requests, {self._rps:.1f} rps, "
            f"in-flight {spans.get('open', 0)}, "
            f"active {pool.get('active', 0)}/{pool.get('size', 0)}, "
            f"queued {pool.get('queued', 0)}, p50 {p50_text}"
        )

    def _panel(self) -> list[str]:
        stats = self.stats
        pool = stats.get("pool", {})
        spans = stats.get("spans", {})
        slo = stats.get("slo", {})
        admission = stats.get("admission", {})
        header = (
            f"solver service  up {stats.get('uptime_seconds', 0):,.0f}s  "
            f"{self._rps:.1f} rps  {stats.get('requests', 0)} requests"
        )
        if stats.get("draining"):
            header += "  DRAINING"
        lines = [header[: self.width]]
        lines.append(
            (
                f"  pool {pool.get('active', 0)}/{pool.get('size', 0)} active, "
                f"{pool.get('queued', 0)} queued, "
                f"{pool.get('retries', 0)} retries; "
                f"in-flight {admission.get('in_flight', 0)}, "
                f"open {spans.get('open', 0)}"
            )[: self.width]
        )
        replies = stats.get("replies", {})
        if replies:
            mix = ", ".join(
                f"{kind}={count}" for kind, count in sorted(replies.items())
            )
            lines.append(f"  replies: {mix}"[: self.width])
        if slo:
            lines.append(
                (
                    f"  slo: {slo.get('within_objective', 0)}/"
                    f"{slo.get('requests', 0)} within "
                    f"{slo.get('objective_seconds', 0)}s "
                    f"(burn {slo.get('burn_ratio', 0.0):.1%})"
                )[: self.width]
            )
        latency = stats.get("latency", {})
        for phase, dist in latency.items():
            p50, p90, p99 = dist.get("p50"), dist.get("p90"), dist.get("p99")
            if p50 is None:
                continue
            lines.append(
                (
                    f"  {phase:<10} p50={p50 * 1000:>8.1f}ms "
                    f"p90={(p90 or 0) * 1000:>8.1f}ms "
                    f"p99={(p99 or 0) * 1000:>8.1f}ms "
                    f"n={dist.get('count', 0)}"
                )[: self.width]
            )
        slowest = spans.get("slowest_open") or []
        if slowest:
            lines.append("  slowest open:")
            for row in slowest:
                open_spans = ",".join(row.get("open_spans") or []) or "-"
                lines.append(
                    (
                        f"    {row.get('request_id', '?'):<20} "
                        f"{row.get('age_seconds', 0):>7.2f}s  {open_spans}"
                    )[: self.width]
                )
        return lines
