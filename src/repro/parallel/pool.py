"""The supervised worker pool: the one supervision loop of the package.

:class:`JobPool` is the only code that starts, watches, retries and
verifies worker processes.  :func:`~repro.parallel.batch.solve_batch`
submits one job per instance, :class:`~repro.parallel.PortfolioSolver`
one job per lane, :func:`~repro.parallel.solve_grouped` one job per
group, and the solver service one job per request.  A job can be
submitted at any time; the pool launches each job's attempts into one
of ``size`` slots as a fresh worker process, watches heartbeats and
deadlines, relaunches failed attempts under a
:class:`~repro.reliability.RetryPolicy` (warm-resuming from checkpoints
when a checkpoint path is attached), checks answers in the parent, and
finalizes every job with exactly one result — never an exception,
never a hang.

A job's *kind* is its worker entry and its parent-side check.  The
default kind solves ``job.formula`` with
:func:`~repro.parallel.worker.solve_in_worker` and passes the answer
through the trusted-results gate; a kind may bring its own entry and
check (a grouped session posts one result per step and is checked step
by step).

Worker recycling is by construction: every attempt runs in a fresh
process, so a crashed, wedged, or memory-leaking worker dies with its
attempt and can never poison the next job.  The health checks:

* **liveness** — a dead process with an empty pipe is a crash
  (``crash_reason`` decodes the exitcode);
* **heartbeat** — a live process silent for ``stall_seconds`` is
  wedged and is terminated;
* **deadline** — a job past its wall-clock budget is terminated and
  finalized as an honest ``UNKNOWN ("time budget")``, and so is an
  answer whose parent-side proof check runs past it; budgets shrink
  across retries, and a job whose deadline expires while still queued
  is finalized without ever launching (work is cancelled, not
  orphaned).

Two controls act on one running job from outside: :meth:`JobPool.preempt`
asks it to stop and relaunches it without spending retry budget (the
portfolio's adaptive relaunch), and :meth:`JobPool.fail` terminates it
as a retryable fault (the portfolio's quarantine).  With a
:class:`~repro.parallel.sharing.ClauseBus` attached, the pool also
routes shared clauses between its jobs.

The pool is synchronous and poll-driven: call :meth:`poll` from any
loop (the engines' while-loops, the asyncio server's pump task) and
completion callbacks run inside that call, in the caller's thread.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass, field

from repro.checkpoint.snapshot import checkpoint_conflicts
from repro.cnf.formula import CnfFormula
from repro.parallel.sharing import IMPORT_QUEUE_CAPACITY, route_shares
from repro.parallel.worker import drain_results, route_telemetry, solve_in_worker
from repro.proof import ProofCheckTimeout
from repro.reliability.faults import FaultPlan
from repro.reliability.guards import StallClock, crash_reason
from repro.reliability.retry import RetryPolicy, as_retry_policy
from repro.reliability.verify import (
    VerificationError,
    check_result_shape,
    verify_result,
)
from repro.solver.config import VERIFY_OFF, SolverConfig
from repro.solver.result import AttemptRecord, SolveResult, SolveStatus

#: Blocking window of one poll() tick, seconds.
POLL_SECONDS = 0.02
#: Minimum remaining budget (seconds) worth launching a retry into.
MIN_RETRY_BUDGET = 0.05
#: Reason string used for jobs whose deadline expired before launch; the
#: service layer maps it (and "time budget") to explicit DEADLINE replies.
DEADLINE_EXPIRED = "deadline expired"
#: Window granted to cooperatively-cancelled workers during a drain to
#: post their final (checkpointed) UNKNOWN before being terminated.
DRAIN_CANCEL_SECONDS = 1.5


@dataclass
class Job:
    """One unit of pool work across all its supervised attempts."""

    job_id: int
    #: The worker's input: the formula to solve for the default kind; a
    #: kind with its own ``worker`` receives it verbatim (a group's steps).
    formula: CnfFormula
    #: Worker-ready configuration for attempt 0 (already stripped via
    #: :func:`~repro.parallel.worker.strip_for_worker`); retries reseed
    #: it through the pool's :class:`RetryPolicy`.
    config: SolverConfig
    #: Keyword limits forwarded to :meth:`Solver.solve` (max_conflicts,
    #: max_seconds, assumptions, ...).
    limits: dict = field(default_factory=dict)
    #: Wall-clock budget (seconds) spanning all attempts, anchored at
    #: the *first launch* — the batch engine's ``timeout`` semantics.
    budget: float | None = None
    #: Absolute ``time.monotonic()`` deadline anchored at *submission* —
    #: the server's semantics, where queueing time counts against the
    #: client's deadline.  When both are set the earlier one wins.
    deadline: float | None = None
    #: Completion callback ``fn(job)`` invoked (inside :meth:`poll`)
    #: exactly once, after ``job.result`` is set.
    on_done: object | None = None
    #: Key used for fault-plan lookups (defaults to ``job_id``).
    fault_key: int | None = None
    #: Opaque formula identity for the caller (e.g. the service's
    #: canonical fingerprint feeding its circuit breaker).
    fingerprint: str | None = None
    checkpoint_path: str | None = None
    #: Caller-owned annotations carried through untouched.
    meta: dict = field(default_factory=dict)
    #: Correlation context (e.g. ``{"request_id": ...}``) stamped onto
    #: supervision events and shipped to workers, which echo it in
    #: telemetry rows — the span layer's cross-process thread.
    trace_context: dict | None = None
    #: Process entry of this job's kind, called with the positional
    #: arguments of :func:`~repro.parallel.worker.solve_in_worker`
    #: (None = that function).
    worker: object | None = None
    #: Parent-side check of a custom kind's payload, replacing the
    #: trusted-results gate: ``fn(payload)`` returns a failure reason,
    #: or None when the payload is sound.
    check: object | None = None
    #: Event handed to every attempt as its stop signal; the pool sets it
    #: in :meth:`JobPool.preempt`.  None: a preempted attempt can only be
    #: terminated.
    stop: object | None = None

    # -- supervision bookkeeping (pool-owned) --------------------------
    attempts: int = 0
    history: list[AttemptRecord] = field(default_factory=list)
    first_launch: float | None = None
    kill_at: float | None = None  # materialized hard deadline
    not_before: float = 0.0  # backoff gate for the next launch
    #: Preempted launches, which do not count against the retry budget.
    free_attempts: int = 0
    #: The final answer: a SolveResult, or a custom kind's checked payload.
    result: SolveResult | None = None
    #: Parent-side verification wall time of the final answer (pool-owned;
    #: the service records it as the request's ``verify`` span).
    verify_seconds: float | None = None

    @property
    def done(self) -> bool:
        return self.result is not None


@dataclass
class _Active:
    """One running worker process and its watchdog state."""

    process: multiprocessing.Process
    clock: StallClock
    attempt: int
    config: SolverConfig
    resumed_from: int | None = None
    #: Why :meth:`JobPool.preempt` is reclaiming this attempt.
    preempted: str | None = None
    #: When a preempted worker that has not yielded is terminated.
    terminate_at: float | None = None


class JobPool:
    """A bounded, self-healing pool of single-attempt worker processes.

    Args:
        size: attempts running concurrently (slots, not OS threads).
        retry: :class:`RetryPolicy` / int / None — relaunch discipline
            for crashed, stalled, and corrupted attempts.
        verification: trusted-results gate level applied to every
            worker answer in the parent (``"off"``/``"sat"``/``"full"``).
        stall_seconds: heartbeat watchdog window (None disables).
        max_memory_mb: per-worker ``RLIMIT_AS`` ceiling.
        fault_plan: deterministic fault injection (lookups keyed by
            ``job.fault_key``).
        checkpoint_interval: conflicts between periodic checkpoint
            writes for jobs that carry a ``checkpoint_path``.
        monitor: optional :class:`~repro.observability.FleetMonitor`
            receiving per-job lane states and relayed telemetry.
        trace: optional :class:`~repro.observability.TraceSink` for
            ``worker_fault`` / ``worker_retry`` supervision events.
        telemetry_seconds: worker telemetry period (None disables).
        on_fault: optional ``fn(job, reason, will_retry)`` observer of
            every failed attempt — the service's circuit breaker feed.
        on_launch: optional ``fn(job, attempt, resumed_from)`` observer
            of every attempt launch — the service's span layer uses it
            to close the queue span and open the attempt span.
        bus: optional :class:`~repro.parallel.sharing.ClauseBus` whose
            lanes are the job ids: workers export glue clauses to it and
            import the validated ones through a per-job queue.
    """

    def __init__(
        self,
        size: int,
        *,
        retry: RetryPolicy | int | None = None,
        verification: str = VERIFY_OFF,
        stall_seconds: float | None = None,
        max_memory_mb: int | None = None,
        fault_plan: FaultPlan | None = None,
        checkpoint_interval: int = 1000,
        monitor=None,
        trace=None,
        telemetry_seconds: float | None = None,
        on_fault=None,
        on_launch=None,
        bus=None,
    ) -> None:
        if size < 1:
            raise ValueError("pool size must be >= 1")
        self.size = size
        self.policy = as_retry_policy(retry)
        self.verification = verification
        self.stall_seconds = stall_seconds
        self.max_memory_mb = max_memory_mb
        self.fault_plan = fault_plan
        self.checkpoint_interval = checkpoint_interval
        self.monitor = monitor
        self.trace = trace
        self.telemetry_seconds = telemetry_seconds
        self.on_fault = on_fault
        self.on_launch = on_launch
        self.bus = bus
        self.context = multiprocessing.get_context()
        self.results_queue = self.context.Queue()
        #: Shared cooperative-cancel flag: set during a drain, every
        #: live (and later-launched) worker interrupts at its next
        #: progress tick and posts a final checkpointed UNKNOWN.
        self.cancel_event = self.context.Event()
        self.pending: list[Job] = []
        self.active: dict[int, _Active] = {}
        self.jobs: dict[int, Job] = {}
        self._collected: dict = {}
        self._import_queues: dict[int, object] = {}  # per job, with a bus
        self.retries = 0
        self.draining = False
        self._closed = False

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, job: Job) -> Job:
        """Queue one job; raises once the pool is draining or closed."""
        if self._closed:
            raise RuntimeError("this JobPool has been closed")
        if self.draining:
            raise RuntimeError("this JobPool is draining; no new jobs")
        if job.job_id in self.jobs:
            raise ValueError(f"duplicate job_id {job.job_id}")
        if job.fault_key is None:
            job.fault_key = job.job_id
        self.jobs[job.job_id] = job
        self.pending.append(job)
        return job

    @property
    def idle(self) -> bool:
        """True when no work is queued or running."""
        return not self.pending and not self.active

    @property
    def load(self) -> int:
        """Jobs currently queued plus running (the admission signal)."""
        return len(self.pending) + len(self.active)

    # ------------------------------------------------------------------
    # The supervision tick
    # ------------------------------------------------------------------
    def poll(self, timeout: float = POLL_SECONDS) -> list[Job]:
        """One supervision tick; returns the jobs finalized during it.

        Launches pending work into free slots, waits up to ``timeout``
        for the first queued worker message, then sweeps results,
        liveness, heartbeats, and deadlines.  Completion callbacks run
        here, in the caller's thread.
        """
        finished: list[Job] = []
        now = time.monotonic()
        for job in list(self.pending):
            # Expired while queued: cancel without ever launching.  This
            # sweep runs even when every slot is busy — a saturated pool
            # must not delay the promised prompt "deadline" reply.  (A
            # budget only materializes as kill_at at first launch.)
            deadline = job.kill_at if job.kill_at is not None else job.deadline
            if deadline is not None and now >= deadline:
                self.pending.remove(job)
                self._finalize(
                    job,
                    SolveResult(
                        status=SolveStatus.UNKNOWN,
                        limit_reason=DEADLINE_EXPIRED,
                        config_name=job.config.name,
                        attempts=list(job.history),
                    ),
                    finished,
                )
        for job in list(self.pending):
            if len(self.active) >= self.size:
                break
            if job.not_before <= now:
                self.pending.remove(job)
                self._launch(job)
        drain_results(self.results_queue, self._collected, timeout=timeout)
        route_telemetry(self._collected, self.monitor)
        # Without a bus, share-tagged frames are popped and dropped, so
        # the long-running server cannot accumulate tags nothing claims.
        route_shares(self._collected, self.bus)
        if self.bus is not None:
            self.bus.pump()
        now = time.monotonic()
        for job_id, entry in list(self.active.items()):
            job = self.jobs[job_id]
            tag = (job_id, entry.attempt)
            if tag in self._collected:
                entry.process.join()
                del self.active[job_id]
                self._finish(job, entry, self._collected.pop(tag), now, finished)
            elif not entry.process.is_alive():
                # Dead without a visible result: the payload may still
                # be in the pipe; drain once before declaring a crash.
                entry.process.join()
                drain_results(self.results_queue, self._collected, timeout=0.2)
                del self.active[job_id]
                if tag in self._collected:
                    self._finish(job, entry, self._collected.pop(tag), now, finished)
                else:
                    self._fail(
                        job, entry, crash_reason(entry.process.exitcode), now,
                        retryable=True, finished=finished,
                    )
            elif job.kill_at is not None and now > job.kill_at:
                entry.process.terminate()
                entry.process.join(timeout=1.0)
                del self.active[job_id]
                self._fail(
                    job, entry, "time budget", now,
                    retryable=False, finished=finished,
                )
            elif entry.clock.stalled_for(now, self.stall_seconds):
                entry.process.terminate()
                entry.process.join(timeout=1.0)
                del self.active[job_id]
                self._fail(
                    job, entry, "stalled (no heartbeat)", now,
                    retryable=True, finished=finished,
                )
            elif entry.terminate_at is not None and now > entry.terminate_at:
                # The preempted worker ignored its stop event past the
                # grace window: terminate is the backstop, and the
                # relaunch still rides free.
                entry.process.terminate()
                entry.process.join(timeout=1.0)
                del self.active[job_id]
                self._requeue_preempted(job, entry, now)
        # Purge stale result payloads: a terminated (budget/stall) or
        # already-finalized attempt may still post to the queue, and
        # nothing will ever consume its tag.  Only the current attempt
        # of a still-active job can be claimed above; everything else
        # is garbage the long-running server must not accumulate.
        for tag in [
            key
            for key in self._collected
            if isinstance(key, tuple)
            and len(key) == 2
            and (
                key[0] not in self.active
                or self.active[key[0]].attempt != key[1]
            )
        ]:
            del self._collected[tag]
        return finished

    # ------------------------------------------------------------------
    # Drain / shutdown
    # ------------------------------------------------------------------
    def drain(
        self,
        grace_seconds: float = 10.0,
        *,
        reason: str = "pool draining",
        cancel_seconds: float = DRAIN_CANCEL_SECONDS,
    ) -> list[Job]:
        """Graceful stop: finish or checkpoint everything, then shed.

        Three phases: (1) supervise normally for up to ``grace_seconds``
        so in-flight and queued work can finish honestly; (2) set the
        shared cancel event so surviving workers interrupt at the next
        progress tick, write their final checkpoint, and post an
        ``UNKNOWN ("interrupted")``; (3) terminate whatever is left and
        finalize it as ``UNKNOWN (reason)``.  Every job ends with a
        result; returns the jobs finalized during the drain.
        """
        self.draining = True
        finished: list[Job] = []
        stop = time.monotonic() + max(grace_seconds, 0.0)
        while not self.idle and time.monotonic() < stop:
            finished.extend(self.poll())
        if not self.idle:
            self.cancel_event.set()
            stop = time.monotonic() + max(cancel_seconds, 0.0)
            while self.active and time.monotonic() < stop:
                finished.extend(self.poll())
        finished.extend(self.shed(reason))
        return finished

    def shed(self, reason: str) -> list[Job]:
        """Terminate running attempts and finalize all open jobs now.

        Every queued or running job gets an ``UNKNOWN`` carrying
        ``reason`` — load shedding keeps the answer-or-explicit-refusal
        contract even when the pool has to stop immediately.
        """
        finished: list[Job] = []
        now = time.monotonic()
        for job_id, entry in list(self.active.items()):
            entry.process.terminate()
            entry.process.join(timeout=1.0)
            job = self.jobs[job_id]
            self._record(job, entry, reason, now)
            del self.active[job_id]
        shed_jobs = [job for job in self.jobs.values() if not job.done]
        self.pending.clear()
        for job in shed_jobs:
            self._finalize(
                job,
                SolveResult(
                    status=SolveStatus.UNKNOWN,
                    limit_reason=reason,
                    config_name=job.config.name,
                    wall_seconds=(
                        now - job.first_launch if job.first_launch else 0.0
                    ),
                    attempts=list(job.history),
                ),
                finished,
            )
        return finished

    def close(self, grace_seconds: float = 0.0) -> None:
        """Release the queues and stop any stragglers (idempotent).

        With ``grace_seconds``, running workers are first cancelled
        cooperatively and given that long to exit (the portfolio's
        losers once a winner is in); whatever is still alive is then
        terminated.
        """
        if self._closed:
            return
        self._closed = True
        if grace_seconds > 0 and self.active:
            self.cancel_event.set()
            stop = time.monotonic() + grace_seconds
            while time.monotonic() < stop and any(
                entry.process.is_alive() for entry in self.active.values()
            ):
                # Keep reading (and dropping) what the workers post: one
                # cannot exit before its queue has flushed into the pipe.
                drain_results(self.results_queue, {}, timeout=POLL_SECONDS)
        for entry in self.active.values():
            if entry.process.is_alive():
                entry.process.terminate()
            entry.process.join(timeout=1.0)
        self.active.clear()
        for queue in (self.results_queue, *self._import_queues.values()):
            queue.close()
            queue.cancel_join_thread()

    # ------------------------------------------------------------------
    # Controls on one running job
    # ------------------------------------------------------------------
    def preempt(self, job_id: int, reason: str, grace_seconds: float) -> int:
        """Stop one running job and relaunch it without spending retry budget.

        Sets the job's ``stop`` event, so the worker interrupts at its
        next progress tick and posts an UNKNOWN; a worker still running
        ``grace_seconds`` later is terminated.  Either way the attempt
        is recorded with ``reason`` and the job is queued again at once
        (with whatever ``job.config`` says by then).  A definite answer
        posted meanwhile still finishes the job.  Returns the preempted
        attempt's index.
        """
        entry = self.active[job_id]
        entry.preempted = reason
        entry.terminate_at = time.monotonic() + grace_seconds
        stop = self.jobs[job_id].stop
        if stop is not None:
            stop.set()
        return entry.attempt

    def fail(self, job_id: int, reason: str, detail: str | None = None) -> None:
        """Terminate one running job's attempt as a retryable fault.

        The attempt is recorded with ``reason`` and the retry policy
        decides whether the job gets another launch or is finalized as
        degraded (the portfolio's quarantine of a Byzantine lane).
        """
        entry = self.active.pop(job_id)
        entry.process.terminate()
        entry.process.join(timeout=1.0)
        self._fail(
            self.jobs[job_id], entry, reason, time.monotonic(),
            retryable=True, finished=[], detail=detail,
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _launch(self, job: Job) -> None:
        now = time.monotonic()
        if job.first_launch is None:
            job.first_launch = now
            candidates = []
            if job.budget is not None:
                candidates.append(now + job.budget)
            if job.deadline is not None:
                candidates.append(job.deadline)
            job.kill_at = min(candidates) if candidates else None
        attempt = job.attempts
        attempt_config = self.policy.config_for_attempt(job.config, attempt)
        limits = dict(job.limits)
        if job.kill_at is not None and limits.get("max_seconds") is not None:
            # Retries solve inside whatever wall-clock budget remains.
            remaining = job.kill_at - now
            limits["max_seconds"] = max(min(limits["max_seconds"], remaining), 0.01)
        heartbeat = self.context.Value("d", now)
        fault = (
            self.fault_plan.lookup(job.fault_key, attempt)
            if self.fault_plan is not None
            else None
        )
        resumed_from = None
        if job.checkpoint_path is not None:
            resumed_from = checkpoint_conflicts(
                job.checkpoint_path, require_proof=attempt_config.proof_logging
            )
        import_queue = None
        if self.bus is not None:
            import_queue = self._import_queues.get(job.job_id)
            if import_queue is None:
                import_queue = self.context.Queue(IMPORT_QUEUE_CAPACITY)
                self._import_queues[job.job_id] = import_queue
            self.bus.attach(job.job_id, attempt, import_queue)
        if job.stop is not None:
            job.stop.clear()
        process = self.context.Process(
            target=job.worker or solve_in_worker,
            args=(
                (job.job_id, attempt),
                job.formula,
                attempt_config,
                limits,
                self.cancel_event,
                self.results_queue,
                heartbeat,
                attempt,
                fault,
                self.max_memory_mb,
                job.checkpoint_path,
                self.checkpoint_interval,
                self.telemetry_seconds,
                self.bus.max_lbd if self.bus is not None else None,
                import_queue,
                job.stop,
                job.trace_context,
            ),
            daemon=True,
        )
        process.start()
        if attempt and self.trace is not None:
            event = {
                "type": "worker_retry",
                "lane": job.job_id,
                "attempt": attempt,
            }
            if resumed_from is not None:
                event["resumed_from_conflicts"] = resumed_from
            if job.trace_context and job.trace_context.get("request_id") is not None:
                event["request_id"] = job.trace_context["request_id"]
            self.trace.emit(event)
        if self.on_launch is not None:
            self.on_launch(job, attempt, resumed_from)
        if self.monitor is not None:
            state = "resumed" if attempt and resumed_from is not None else "running"
            self.monitor.lane_state(job.job_id, state, attempt=attempt)
        self.active[job.job_id] = _Active(
            process,
            StallClock(now, heartbeat),
            attempt,
            attempt_config,
            resumed_from=resumed_from,
        )
        job.attempts += 1

    def _record(self, job: Job, entry: _Active, outcome: str, now, detail=None) -> None:
        job.history.append(
            AttemptRecord(
                attempt=entry.attempt,
                config_name=entry.config.name,
                seed=entry.config.seed,
                outcome=outcome,
                wall_seconds=now - entry.clock.launch,
                detail=detail,
                resumed_from_conflicts=entry.resumed_from,
            )
        )

    def _fail(
        self, job: Job, entry: _Active, reason: str, now,
        *, retryable: bool, finished: list, detail=None,
    ) -> None:
        self._record(job, entry, reason, now, detail)
        time_left = job.kill_at is None or job.kill_at - now > MIN_RETRY_BUDGET
        retrying = (
            retryable
            and time_left
            and not self.draining
            and self.policy.allows(job.attempts - job.free_attempts)
        )
        if self.trace is not None:
            event = {
                "type": "worker_fault",
                "lane": job.job_id,
                "attempt": entry.attempt,
                "reason": reason,
                "will_retry": retrying,
            }
            if job.trace_context and job.trace_context.get("request_id") is not None:
                event["request_id"] = job.trace_context["request_id"]
            self.trace.emit(event)
        if self.on_fault is not None:
            self.on_fault(job, reason, retrying)
        if retrying:
            self.retries += 1
            job.not_before = now + self.policy.delay(job.attempts)
            self.pending.append(job)
            if self.monitor is not None:
                self.monitor.lane_state(
                    job.job_id, "retrying", detail=reason, attempt=entry.attempt
                )
        else:
            if self.monitor is not None:
                self.monitor.lane_state(
                    job.job_id, "degraded", detail=reason, attempt=entry.attempt
                )
            self._finalize(
                job,
                SolveResult(
                    status=SolveStatus.UNKNOWN,
                    limit_reason=reason,
                    config_name=entry.config.name,
                    wall_seconds=now - (job.first_launch or now),
                    attempts=list(job.history),
                ),
                finished,
            )

    def _finish(self, job: Job, entry: _Active, payload, now, finished: list) -> None:
        if payload is None:
            # The worker's solve raised and posted a None payload.
            self._fail(
                job, entry, "worker crashed", now,
                retryable=True, finished=finished,
                detail="worker raised an exception",
            )
            return
        verify_started = time.perf_counter()
        detail = None
        try:
            if job.check is not None:
                reason = job.check(payload)
            else:
                reason = check_result_shape(payload)
                if reason is not None:
                    raise VerificationError(reason)
                deadline = job.kill_at if job.kill_at is not None else job.deadline
                payload.verified = (
                    verify_result(
                        job.formula, payload, self.verification, deadline=deadline
                    )
                    if self.verification != VERIFY_OFF
                    else None
                )
        except VerificationError as error:
            reason, detail = "corrupted result", str(error)
        except ProofCheckTimeout as error:
            # The job's time ran out while its proof was being checked:
            # the answer is unverified, so it cannot leave as definite.
            self._fail(
                job, entry, "time budget", time.monotonic(),
                retryable=False, finished=finished, detail=str(error),
            )
            return
        if reason is not None:
            self._fail(
                job, entry, reason, now,
                retryable=True, finished=finished, detail=detail,
            )
            return
        if self.verification != VERIFY_OFF:
            job.verify_seconds = time.perf_counter() - verify_started
        if entry.preempted is not None and payload.is_unknown:
            # The worker yielded to preempt(); a definite answer would
            # have beaten the reclaim, so only the UNKNOWN lands here.
            self._requeue_preempted(job, entry, now)
            return
        self._record(job, entry, "ok", now)
        status = None
        if isinstance(payload, SolveResult):
            payload.attempts = list(job.history)
            status = payload.status.name
        if self.monitor is not None:
            self.monitor.lane_state(
                job.job_id, "done", detail=status, attempt=entry.attempt
            )
        self._finalize(job, payload, finished)

    def _requeue_preempted(self, job: Job, entry: _Active, now) -> None:
        """Queue a preempted job again at once, outside the retry budget."""
        self._record(job, entry, entry.preempted, now)
        job.free_attempts += 1
        job.not_before = now
        self.pending.append(job)

    def _finalize(self, job: Job, result: SolveResult, finished: list) -> None:
        job.result = result
        finished.append(job)
        if self.bus is not None:
            self.bus.detach(job.job_id)
        # Finalized jobs leave the pool's index immediately: a long-
        # running server submits an unbounded stream, and each Job pins
        # its formula, history, and the caller's reply closure.  Callers
        # keep their own references (submit() returns the job, and it is
        # in `finished` / handed to on_done here).
        self.jobs.pop(job.job_id, None)
        if job.on_done is not None:
            job.on_done(job)
