"""The service supervisor: requests in, exactly-one-reply-out.

:class:`SolverService` is the transport-free core of the solver
service.  The asyncio front end (:mod:`repro.server.server`) feeds it
decoded :class:`~repro.server.protocol.Request` objects plus a
``send(reply_dict)`` callback per request; the service routes each
through its defense layers and guarantees **exactly one reply per
request**, always:

1. **validation** — unknown config names and oversized formulas are
   ``error`` replies, before any resource is spent;
2. **admission control** — :class:`~repro.server.admission.AdmissionController`
   sheds load with ``busy`` replies (queue full, per-client cap, rate);
3. **answer cache** — a shared, bounded
   :class:`~repro.session.AnswerCache`; exact/core/model hits answer
   without search, without occupying a pool slot, and without touching
   the circuit breaker (a hit must not consume a half-open trial);
4. **circuit breaker** — :class:`~repro.server.breaker.CircuitBreaker`
   refuses fingerprints that keep killing workers (``busy`` with a
   quarantine reason);
5. **the self-healing pool** — everything else becomes a
   :class:`~repro.parallel.pool.Job` with an absolute deadline; the
   pool supervises attempts, heartbeats, retries, and warm resume, and
   the job's completion callback builds the reply.

Deadline semantics: a request's ``timeout`` starts at *admission* (time
spent queued counts — the client is waiting either way), is clamped to
``max_timeout``, becomes the job's hard deadline, and shrinks across
retry attempts.  An expired job is cancelled (or never launched) and
answered with an explicit ``deadline`` reply, not silence.

The service is synchronous and single-threaded by design: the front
end calls :meth:`handle` and :meth:`tick` from one event loop (or a
test calls them directly), so no layer needs locking.
"""

from __future__ import annotations

import os
import time

from repro.checkpoint.snapshot import canonical_fingerprint
from repro.cnf.formula import CnfFormula
from repro.observability.trace import CallbackSink, MultiSink
from repro.parallel.pool import DEADLINE_EXPIRED, Job, JobPool
from repro.parallel.worker import strip_for_worker
from repro.reliability.faults import FaultPlan
from repro.reliability.retry import RetryPolicy
from repro.server.admission import AdmissionController
from repro.server.breaker import REASON_QUARANTINED, CircuitBreaker
from repro.server.ops import DEFAULT_LATENCY_OBJECTIVE, ServiceOps, prometheus_text
from repro.server.protocol import (
    Request,
    error_reply,
    refusal_reply,
    result_reply,
    stored_to_result,
)
from repro.session.cache import AnswerCache
from repro.solver.config import (
    VERIFICATION_LEVELS,
    SolverConfig,
    berkmin_config,
    config_by_name,
)

#: Reason carried by refusals issued while the service drains.
REASON_DRAINING = "server draining"

#: Failure reasons that count as *infrastructure* faults for the
#: breaker (honest budget exhaustion never trips it).
_BREAKER_REASONS = ("worker crashed", "stalled (no heartbeat)", "corrupted result")


class SolverService:
    """Multiplex solve requests onto one supervised worker pool.

    Args:
        pool_size: concurrent worker processes.
        config: default solver configuration (name or object); requests
            may pick another registered config by name.
        retry: :class:`RetryPolicy` for crashed/stalled/corrupt attempts.
        verification: trusted-results gate level for pool answers
            (defaults to the config's own level).
        stall_seconds: worker heartbeat watchdog window.
        max_memory_mb: per-worker address-space ceiling.
        default_timeout / max_timeout: per-request wall-clock budget
            when the client sends none / the clamp when it does.
        default_max_conflicts: conflict budget applied when the client
            sends neither ``timeout`` nor ``max_conflicts`` — the
            backstop that keeps an unbudgeted request from occupying a
            slot forever.
        admission / breaker / cache: injectable policy objects (tests
            and the audit tighten them; None builds defaults).
        fault_plan: deterministic fault injection, keyed by an
            ever-increasing job id — audits use
            :data:`~repro.reliability.faults.FaultSpec.worker` = ``None``
            wildcards instead of exact ids.
        checkpoint_dir: directory for per-job checkpoints enabling warm
            resume across worker deaths (``job-<id>.ckpt``, unlinked on
            a definite answer).
        trace: optional sink for ``server_*`` events, request spans and
            the pool's supervision events (lane = job id).
        ops: injectable :class:`~repro.server.ops.ServiceOps`; None
            builds a default one emitting its spans to ``trace`` (spans
            and ops metrics are always on — they live in the
            supervisor, never in solver hot loops).
        latency_objective: latency SLO in seconds fed to the default
            ``ops`` (ignored when ``ops`` is injected).
    """

    def __init__(
        self,
        *,
        pool_size: int = 4,
        config: SolverConfig | str | None = None,
        retry: RetryPolicy | int | None = 2,
        verification: str | None = None,
        stall_seconds: float | None = 5.0,
        max_memory_mb: int | None = None,
        default_timeout: float = 30.0,
        max_timeout: float = 300.0,
        default_max_conflicts: int = 1_000_000,
        admission: AdmissionController | None = None,
        breaker: CircuitBreaker | None = None,
        cache: AnswerCache | None = None,
        fault_plan: FaultPlan | None = None,
        checkpoint_dir: str | None = None,
        checkpoint_interval: int = 1000,
        trace=None,
        ops: ServiceOps | None = None,
        latency_objective: float = DEFAULT_LATENCY_OBJECTIVE,
    ) -> None:
        if config is None:
            config = berkmin_config()
        elif isinstance(config, str):
            config = config_by_name(config)
        if verification is None:
            verification = config.verification
        if verification not in VERIFICATION_LEVELS:
            raise ValueError(
                f"unknown verification level {verification!r}; "
                f"expected one of {', '.join(VERIFICATION_LEVELS)}"
            )
        self.config = config
        self.verification = verification
        self.default_timeout = default_timeout
        self.max_timeout = max_timeout
        self.default_max_conflicts = default_max_conflicts
        self.admission = admission if admission is not None else AdmissionController()
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self.cache = cache if cache is not None else AnswerCache()
        self.checkpoint_dir = checkpoint_dir
        self.trace = trace
        self.ops = ops if ops is not None else ServiceOps(
            trace, latency_objective=latency_objective
        )
        # The pool's one sink: the operator's first, then the service's
        # own fold into attempt spans and the circuit breaker.
        handler = CallbackSink(self._on_pool_event)
        self.pool = JobPool(
            pool_size,
            retry=retry,
            verification=verification,
            stall_seconds=stall_seconds,
            max_memory_mb=max_memory_mb,
            fault_plan=fault_plan,
            checkpoint_interval=checkpoint_interval,
            trace=handler if trace is None else MultiSink(trace, handler),
        )
        self.draining = False
        self._next_job_id = 0
        self._worker_configs: dict[str, SolverConfig] = {}
        self.started_at = time.monotonic()

    # ------------------------------------------------------------------
    # Request handling
    # ------------------------------------------------------------------
    def handle(self, request: Request, client_id, send) -> None:
        """Route one decoded request; ``send(reply_dict)`` fires exactly once.

        For ``ping``/``stats`` and every refusal the reply is sent
        before this method returns; for pool-bound solves it is sent
        from a later :meth:`tick` when the job completes.
        """
        rid = self.ops.begin_request(request.op, client_id)
        if self.trace is not None:
            self.trace.emit(
                {
                    "type": "server_request",
                    "client": str(client_id),
                    "op": request.op,
                    "request_id": rid,
                }
            )
        if request.op == "ping":
            self._send(send, {"id": request.request_id, "kind": "pong"}, rid)
            return
        if request.op == "stats":
            self._send(
                send,
                {"id": request.request_id, "kind": "stats", "stats": self.stats()},
                rid,
            )
            return
        if request.op == "metrics":
            self._send(
                send,
                {
                    "id": request.request_id,
                    "kind": "metrics",
                    "metrics": prometheus_text(self),
                },
                rid,
            )
            return
        self._handle_solve(request, client_id, send, rid)

    def _handle_solve(self, request: Request, client_id, send, rid: str) -> None:
        request_id = request.request_id
        ops = self.ops
        span = ops.begin(rid, "validate")
        if self.draining:
            ops.end(rid, span, status="draining")
            self._send(send, refusal_reply(request_id, "busy", REASON_DRAINING), rid)
            return
        try:
            worker_config = self._worker_config(request.config)
        except ValueError:
            ops.end(rid, span, status="error")
            self._send(
                send,
                error_reply(request_id, f"unknown config {request.config!r}"),
                rid,
            )
            return
        try:
            formula = CnfFormula(request.clauses)
        except ValueError as error:
            ops.end(rid, span, status="error")
            self._send(send, error_reply(request_id, f"bad clauses: {error}"), rid)
            return
        ops.end(rid, span, status="ok")

        span = ops.begin(rid, "admit")
        refusal = self.admission.try_admit(client_id)
        if refusal is not None:
            ops.end(rid, span, status="refused")
            self._send(send, refusal_reply(request_id, "busy", refusal), rid)
            return

        fingerprint = canonical_fingerprint(formula.clauses)
        # Cache before breaker: a hit answers without touching the pool,
        # so it must not consume the breaker's single half-open trial
        # (allows() marks the trial in flight, and a cache-hit return
        # would never resolve it — quarantining the fingerprint forever).
        hit = self.cache.lookup(fingerprint, request.assumptions)
        if hit is not None:
            kind, stored = hit
            self.admission.release(client_id)
            ops.end(rid, span, status="cache-hit")
            self._send(
                send,
                result_reply(request_id, stored_to_result(kind, stored), cached=kind),
                rid,
            )
            return

        if not self.breaker.allows(fingerprint):
            self.admission.release(client_id)
            ops.end(rid, span, status="quarantined")
            self._send(
                send, refusal_reply(request_id, "busy", REASON_QUARANTINED), rid
            )
            return
        ops.end(rid, span, status="ok")

        timeout = request.timeout if request.timeout is not None else self.default_timeout
        timeout = min(timeout, self.max_timeout)
        now = time.monotonic()
        limits: dict = {
            "max_conflicts": request.max_conflicts,
            "max_decisions": request.max_decisions,
            # The cooperative budget the pool shrinks across attempts.
            "max_seconds": timeout,
        }
        if request.max_conflicts is None and request.timeout is None:
            limits["max_conflicts"] = self.default_max_conflicts
        if request.assumptions:
            limits["assumptions"] = request.assumptions
        job_id = self._next_job_id
        self._next_job_id += 1
        checkpoint_path = None
        if self.checkpoint_dir is not None:
            checkpoint_path = os.path.join(
                self.checkpoint_dir, f"job-{job_id:06d}.ckpt"
            )
        job = Job(
            job_id=job_id,
            formula=formula,
            config=worker_config,
            limits=limits,
            # Queue wait counts against the client's deadline; the pool
            # grants terminate-grace on top of the cooperative budget.
            deadline=now + timeout + 1.0,
            fingerprint=fingerprint,
            checkpoint_path=checkpoint_path,
            on_done=self._job_done,
            meta={
                "send": send,
                "client": client_id,
                "request_id": request_id,
                "assumptions": request.assumptions,
                "rid": rid,
            },
            trace_context={"request_id": rid},
        )
        job.meta["queue_span"] = ops.begin(rid, "queue")
        self.pool.submit(job)

    def _worker_config(self, name: str | None) -> SolverConfig:
        key = name if name is not None else self.config.name
        cached = self._worker_configs.get(key)
        if cached is None:
            base = self.config if name is None else config_by_name(name)
            cached = strip_for_worker(base, self.verification)
            self._worker_configs[key] = cached
        return cached

    # ------------------------------------------------------------------
    # Pool completion and supervision events
    # ------------------------------------------------------------------
    def _job_done(self, job: Job) -> None:
        self.admission.release(job.meta["client"])
        result = job.result
        request_id = job.meta["request_id"]
        rid = job.meta.get("rid")
        send = job.meta["send"]
        ops = self.ops
        if rid is not None:
            # A queue span still open means the job never launched
            # (deadline expired in queue, or cancelled by drain).
            queue_span = job.meta.pop("queue_span", None)
            if queue_span is not None:
                ops.end(rid, queue_span, status=result.limit_reason or "cancelled")
            attempt_span = job.meta.pop("attempt_span", None)
            if attempt_span is not None:
                status = (
                    "ok"
                    if not result.is_unknown
                    else (result.limit_reason or "unknown")
                )
                ops.end(
                    rid,
                    attempt_span,
                    status=status,
                    conflicts=int(result.stats.conflicts),
                )
            if job.verify_seconds is not None:
                ops.record(rid, "verify", job.verify_seconds)
        # Every non-fault completion resolves the breaker (in particular
        # a half-open trial must never be left dangling); fault endings
        # were already counted at their worker_fault event.
        faulted = result.degraded and any(
            (result.limit_reason or "").startswith(prefix)
            for prefix in _BREAKER_REASONS
        )
        if not faulted:
            self.breaker.record_success(job.fingerprint)
        if not result.is_unknown:
            self.cache.store(job.fingerprint, job.meta["assumptions"], result)
            self._send(send, result_reply(request_id, result), rid)
            return
        if result.limit_reason in ("time budget", DEADLINE_EXPIRED):
            self._send(
                send, refusal_reply(request_id, "deadline", result.limit_reason), rid
            )
            return
        self._send(send, result_reply(request_id, result), rid)

    def _on_pool_event(self, event: dict) -> None:
        """The service's fold of its pool's supervision events."""
        kind = event["type"]
        if kind in ("worker_start", "worker_retry"):
            self._on_launch(
                self.pool.jobs[event["lane"]],
                event["attempt"],
                event.get("resumed_from_conflicts"),
            )
        elif kind == "worker_fault":
            self._on_fault(self.pool.jobs[event["lane"]], event["reason"])

    def _on_launch(self, job: Job, attempt: int, resumed_from: int | None) -> None:
        """Close the request's queue span and open its attempt span."""
        rid = job.meta["rid"]
        ops = self.ops
        queue_span = job.meta.pop("queue_span", None)
        if queue_span is not None:
            ops.end(rid, queue_span, status="ok")
        job.meta["attempt_span"] = ops.begin(
            rid,
            f"solve-attempt-{attempt}",
            attempt=attempt,
            resumed_from_conflicts=resumed_from or None,
        )

    def _on_fault(self, job: Job, reason: str) -> None:
        """Close the attempt span; count infrastructure faults on the breaker."""
        attempt_span = job.meta.pop("attempt_span", None)
        if attempt_span is not None:
            self.ops.end(job.meta["rid"], attempt_span, status=reason)
        if not any(reason.startswith(prefix) for prefix in _BREAKER_REASONS):
            return
        state = self.breaker.record_failure(job.fingerprint)
        if self.trace is not None:
            self.trace.emit(
                {
                    "type": "server_breaker",
                    "fingerprint": job.fingerprint,
                    "state": state,
                    "reason": reason,
                }
            )

    def _send(self, send, reply: dict, rid: str | None = None) -> None:
        kind = reply.get("kind", "?")
        if self.trace is not None:
            event = {
                "type": "server_reply",
                "kind": kind,
                "cached": reply.get("cached"),
            }
            if rid is not None:
                event["request_id"] = rid
            self.trace.emit(event)
        started = time.perf_counter()
        send(reply)
        self.ops.finish_request(rid, kind, time.perf_counter() - started)

    # ------------------------------------------------------------------
    # Supervision and lifecycle
    # ------------------------------------------------------------------
    def tick(self) -> int:
        """One pool supervision pass; returns jobs completed (replies sent)."""
        return len(self.pool.poll(timeout=0.0))

    def drain(self, grace_seconds: float = 10.0) -> None:
        """Stop admitting, finish or checkpoint in-flight work, flush replies.

        Every job still open after ``grace_seconds`` of normal
        supervision is cancelled cooperatively (final checkpoint
        written) and answered with an honest ``UNKNOWN``/``deadline``
        reply; nothing is left unanswered or running.
        """
        self.draining = True
        pending = self.pool.load
        if self.trace is not None:
            self.trace.emit({"type": "server_drain", "open_jobs": pending})
        self.pool.drain(grace_seconds, reason=REASON_DRAINING)

    def close(self) -> None:
        """Release pool resources (idempotent; implies nothing graceful)."""
        self.pool.close()

    def stats(self) -> dict:
        """The service's health snapshot (the ``stats`` op's payload)."""
        return {
            "uptime_seconds": round(time.monotonic() - self.started_at, 3),
            "pool": {
                "size": self.pool.size,
                "active": len(self.pool.active),
                "queued": len(self.pool.pending),
                "retries": self.pool.retries,
            },
            "requests": sum(self.ops.counts("requests_").values()),
            "replies": self.ops.counts("replies_"),
            "admission": self.admission.summary(),
            "breaker": self.breaker.summary(),
            "cache": self.cache.summary(),
            "draining": self.draining,
            **self.ops.stats_section(),
        }
