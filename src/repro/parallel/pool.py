"""The supervised worker pool: the one supervision loop of the package.

:class:`JobPool` is the only code that starts, watches, retries and
verifies worker processes.  :func:`~repro.parallel.batch.solve_batch`
submits one job per instance, :class:`~repro.parallel.PortfolioSolver`
one job per lane, :func:`~repro.parallel.solve_grouped` one job per
group, and the solver service one job per request.  A job can be
submitted at any time; the pool launches each job's attempts into one
of ``size`` slots, each a persistent worker process, watches heartbeats
and deadlines, relaunches failed attempts under a
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

Workers persist across attempts.  A slot is one live worker process
plus everything that process can only inherit: its job pipe, its own
result queue, its heartbeat, its stop event and its clause-bus import
queue.  A slot is spawned at the first launch that finds no idle one,
and a launch is one message on its job pipe
(:class:`~repro.parallel.worker.Launch`).  The process survives an
attempt only when the parent accepted its payload or the attempt ended
in a cooperative UNKNOWN (a budget or an interrupt).  Every other
ending retires it — a crash, a stall or a deadline kill,
:meth:`JobPool.fail`, a rejected or ``None`` payload, a ``"memory
budget"`` answer — and the next launch gets a fresh process, so a job
that leaves its worker in a bad state can never poison the next job.  A process that has posted is retired by
closing its pipe (it exits at EOF), one that has not is killed; either
way its channels go with it, so a process killed while holding a lock
of one of them can only have damaged its own slot.  The health checks:

* **liveness** — a dead process with nothing posted is a crash
  (``crash_reason`` decodes the exitcode);
* **heartbeat** — a live process silent for ``stall_seconds`` is
  wedged and is killed;
* **deadline** — a job past its wall-clock budget is killed and
  finalized as an honest ``UNKNOWN ("time budget")``, and so is an
  answer whose parent-side proof check runs past it; budgets shrink
  across retries, and a job whose deadline expires while still queued
  is finalized without ever launching (work is cancelled, not
  orphaned).

One control acts on one running job from outside: :meth:`JobPool.fail`
retires its worker as a retryable fault (the portfolio's quarantine),
so the retry policy is the only path by which a job is relaunched.
With a :class:`~repro.parallel.sharing.ClauseBus` attached, the pool
also routes shared clauses between its jobs.

The pool is synchronous and poll-driven: call :meth:`poll` from any
loop (the engines' while-loops, the asyncio server's pump task) and
completion callbacks run inside that call, in the caller's thread.
:meth:`poll` sleeps on the running slots' result pipes and process
sentinels, and :meth:`handles` hands the same file descriptors to an
event loop that wants to wait on them itself.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass, field
from multiprocessing.connection import Connection, wait
from multiprocessing.util import register_after_fork

from repro.checkpoint.snapshot import checkpoint_conflicts
from repro.cnf.formula import CnfFormula
from repro.parallel.sharing import IMPORT_QUEUE_CAPACITY, route_shares
from repro.parallel.worker import (
    Launch,
    drain_results,
    route_telemetry,
    run_slot,
    solve_in_worker,
)
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
#: post their final (checkpointed) UNKNOWN before being killed.
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
    #: Entry of this job's kind, run by the slot's worker with the
    #: positional arguments of :func:`~repro.parallel.worker.solve_in_worker`
    #: (None = that function).  It crosses the job pipe, so it must
    #: pickle: a top-level function, or a ``functools.partial`` of one.
    worker: object | None = None
    #: Parent-side check of a custom kind's payload, replacing the
    #: trusted-results gate: ``fn(payload)`` returns a failure reason,
    #: or None when the payload is sound.
    check: object | None = None

    # -- supervision bookkeeping (pool-owned) --------------------------
    attempts: int = 0
    history: list[AttemptRecord] = field(default_factory=list)
    first_launch: float | None = None
    kill_at: float | None = None  # materialized hard deadline
    not_before: float = 0.0  # backoff gate for the next launch
    #: True while the next launch follows a failed attempt (a retry).
    retrying: bool = False
    #: The final answer: a SolveResult, or a custom kind's checked payload.
    result: SolveResult | None = None
    #: Parent-side verification wall time of the final answer (pool-owned;
    #: the service records it as the request's ``verify`` span).
    verify_seconds: float | None = None

    @property
    def done(self) -> bool:
        return self.result is not None


@dataclass
class _Slot:
    """One live worker process, what it inherited, and its attempt."""

    process: multiprocessing.Process
    #: The parent's end of the job pipe: one Launch per attempt.
    jobs: object
    #: The slot's own result queue, and the parent's end of its pipe.
    results: object
    reader: object
    heartbeat: object
    stop: object
    #: Clause-bus import queue (None when the pool has no bus).
    imports: object | None
    # -- the running attempt, set at each launch -----------------------
    clock: StallClock | None = None
    attempt: int = 0
    config: SolverConfig | None = None
    resumed_from: int | None = None


def _memory_exhausted(payload) -> bool:
    """True when an answer reports a ``"memory budget"`` stop."""
    results = payload if isinstance(payload, list) else [payload]
    return any(
        isinstance(result, SolveResult) and result.limit_reason == "memory budget"
        for result in results
    )


class JobPool:
    """A bounded, self-healing pool of persistent worker processes.

    Args:
        size: live worker processes (slots), one attempt each at a time.
        retry: :class:`RetryPolicy` / int / None — relaunch discipline
            for crashed, stalled, and corrupted attempts.
        verification: trusted-results gate level applied to every
            worker answer in the parent (``"off"``/``"sat"``/``"full"``).
        stall_seconds: heartbeat watchdog window (None disables).
        max_memory_mb: per-worker ``RLIMIT_AS`` ceiling.
        fault_plan: deterministic fault injection (lookups keyed by
            ``job.job_id``).
        checkpoint_interval: conflicts between periodic checkpoint
            writes for jobs that carry a ``checkpoint_path``.
        trace: optional :class:`~repro.observability.TraceSink`, the
            one channel of supervision telemetry: exactly one event per
            transition (``worker_start`` / ``worker_retry`` per launch,
            ``worker_fault`` per failed attempt, ``job_end`` per
            finalized job) plus a ``lane_progress`` event per relayed
            worker telemetry row.  The lane of every event is the job id.
        telemetry_seconds: worker telemetry period (None disables).
        bus: optional :class:`~repro.parallel.sharing.ClauseBus` whose
            lanes are the job ids: workers export glue clauses to it and
            import the validated ones through their slot's queue.
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
        trace=None,
        telemetry_seconds: float | None = None,
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
        self.trace = trace
        self.telemetry_seconds = telemetry_seconds
        self.bus = bus
        self.context = multiprocessing.get_context()
        self.pending: list[Job] = []
        #: Running attempts: job id -> the slot running it.
        self.active: dict[int, _Slot] = {}
        self._idle: list[_Slot] = []
        self.jobs: dict[int, Job] = {}
        self._collected: dict = {}
        self.retries = 0
        self.draining = False
        #: Set by a drain's cancel phase and by close(grace): every
        #: running and later-launched attempt interrupts at its next
        #: progress tick and posts a final checkpointed UNKNOWN.
        self._cancelled = False
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

    def handles(self) -> list[int]:
        """File descriptors that turn readable when a running attempt
        posts or its process dies: each active slot's result pipe and
        process sentinel.  :meth:`poll` waits on these; an event loop
        can watch them instead and poll with ``timeout=0``."""
        return [
            handle
            for slot in self.active.values()
            for handle in (slot.reader.fileno(), slot.process.sentinel)
        ]

    # ------------------------------------------------------------------
    # The supervision tick
    # ------------------------------------------------------------------
    def poll(self, timeout: float = POLL_SECONDS) -> list[Job]:
        """One supervision tick; returns the jobs finalized during it.

        Launches pending work into free slots, waits up to ``timeout``
        for a running attempt to post or die, then sweeps results,
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
        if timeout > 0:
            wait(self.handles(), timeout)
        for slot in self.active.values():
            drain_results(slot.results, self._collected)
        route_telemetry(self._collected, self.trace)
        # Without a bus, share-tagged frames are popped and dropped, so
        # the long-running server cannot accumulate tags nothing claims.
        route_shares(self._collected, self.bus)
        if self.bus is not None:
            self.bus.pump()
        now = time.monotonic()
        for job_id, slot in list(self.active.items()):
            job = self.jobs[job_id]
            tag = (job_id, slot.attempt)
            if tag not in self._collected and not slot.process.is_alive():
                # It may have posted and died since the read above: take
                # what its own channel already holds, without waiting.
                drain_results(slot.results, self._collected)
            if tag in self._collected:
                self._end_attempt(job_id)
                payload = self._collected.pop(tag)
                accepted = self._finish(job, slot, payload, now, finished)
                if accepted and slot.process.is_alive():
                    self._idle.append(slot)
                else:
                    self._retire(slot, posted=True)
            elif not slot.process.is_alive():
                self._end_attempt(job_id)
                self._retire(slot, posted=False)
                self._fail(
                    job, slot, crash_reason(slot.process.exitcode), now,
                    retryable=True, finished=finished,
                )
            elif job.kill_at is not None and now > job.kill_at:
                self._end_attempt(job_id)
                self._retire(slot, posted=False)
                self._fail(
                    job, slot, "time budget", now,
                    retryable=False, finished=finished,
                )
            elif slot.clock.stalled_for(now, self.stall_seconds):
                self._end_attempt(job_id)
                self._retire(slot, posted=False)
                self._fail(
                    job, slot, "stalled (no heartbeat)", now,
                    retryable=True, finished=finished,
                )
        # Purge stale result payloads: an attempt that was killed or
        # failed may have posted, and nothing will ever consume its tag.
        # Only the current attempt of a still-active job can be claimed
        # above; everything else is garbage the long-running server must
        # not accumulate.
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
        so in-flight and queued work can finish honestly; (2) cancel
        cooperatively, so surviving workers interrupt at the next
        progress tick, write their final checkpoint, and post an
        ``UNKNOWN ("interrupted")``; (3) kill whatever is left and
        finalize it as ``UNKNOWN (reason)``.  Every job ends with a
        result; returns the jobs finalized during the drain.
        """
        self.draining = True
        finished: list[Job] = []
        stop = time.monotonic() + max(grace_seconds, 0.0)
        while not self.idle and time.monotonic() < stop:
            finished.extend(self.poll())
        if not self.idle:
            self._cancel()
            stop = time.monotonic() + max(cancel_seconds, 0.0)
            while self.active and time.monotonic() < stop:
                finished.extend(self.poll())
        finished.extend(self.shed(reason))
        return finished

    def shed(self, reason: str) -> list[Job]:
        """Stop running attempts and finalize all open jobs now.

        Every queued or running job gets an ``UNKNOWN`` carrying
        ``reason`` — load shedding keeps the answer-or-explicit-refusal
        contract even when the pool has to stop immediately.
        """
        finished: list[Job] = []
        now = time.monotonic()
        for job_id, slot in list(self.active.items()):
            self._record(self.jobs[job_id], slot, reason, now)
            posted = self._posted(job_id, slot)
            self._end_attempt(job_id)
            self._retire(slot, posted)
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
        """Stop every worker and release the channels (idempotent).

        With ``grace_seconds``, running attempts are first cancelled
        cooperatively and given that long to post their final answer
        (the portfolio's losers once a winner is in); the wait ends as
        soon as every one has posted or died.  Idle and posted workers
        then exit at EOF on their job pipe; the rest are killed.
        """
        if self._closed:
            return
        self._closed = True
        if grace_seconds > 0 and self.active:
            self._cancel()
            stop = time.monotonic() + grace_seconds
            while True:
                running = [
                    slot
                    for job_id, slot in self.active.items()
                    if not self._posted(job_id, slot) and slot.process.is_alive()
                ]
                left = stop - time.monotonic()
                if not running or left <= 0:
                    break
                wait(
                    [h for slot in running for h in (slot.reader, slot.process.sentinel)],
                    min(left, POLL_SECONDS),
                )
        slots = [
            (slot, self._posted(job_id, slot)) for job_id, slot in self.active.items()
        ]
        slots += [(slot, True) for slot in self._idle]
        self.active.clear()
        self._idle.clear()
        self._collected.clear()
        for slot, _ in slots:
            slot.jobs.close()  # every idle worker starts exiting at once
        for slot, posted in slots:
            self._retire(slot, posted)

    # ------------------------------------------------------------------
    # Control on one running job
    # ------------------------------------------------------------------
    def fail(self, job_id: int, reason: str, detail: str | None = None) -> None:
        """Retire one running job's worker as a retryable fault.

        The attempt is recorded with ``reason`` and the retry policy
        decides whether the job gets another launch or is finalized as
        degraded (the portfolio's quarantine of a Byzantine lane).
        """
        slot = self.active[job_id]
        posted = self._posted(job_id, slot)
        self._end_attempt(job_id)
        self._retire(slot, posted)
        self._fail(
            self.jobs[job_id], slot, reason, time.monotonic(),
            retryable=True, finished=[], detail=detail,
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _spawn(self) -> _Slot:
        """Start one slot's worker process with the channels it inherits."""
        context = self.context
        reader, writer = context.Pipe(duplex=False)
        # Every worker forked from here on closes its copy of this write
        # end, this slot's own included: a worker sees EOF as soon as the
        # parent closes the pipe or dies, whatever slots came after it.
        register_after_fork(writer, Connection.close)
        results = context.Queue()
        heartbeat = context.Value("d", time.monotonic())
        stop = context.Event()
        imports = context.Queue(IMPORT_QUEUE_CAPACITY) if self.bus is not None else None
        process = context.Process(
            target=run_slot,
            args=(reader, results, heartbeat, stop, imports, self.max_memory_mb),
            daemon=True,
        )
        process.start()
        reader.close()
        # The parent only reads the result queue.  Closing its copy of
        # the write end leaves the worker as the only writer, so once
        # the worker is gone a read ends at EOF instead of waiting on a
        # message the death cut short.
        results._writer.close()
        return _Slot(process, writer, results, results._reader, heartbeat, stop, imports)

    def _retire(self, slot: _Slot, posted: bool) -> None:
        """Stop a slot's process for good and release its channels.

        A worker that has posted is idle in its loop and exits at EOF
        once the job pipe closes; one that has not is killed.
        """
        slot.jobs.close()
        if not posted:
            slot.process.kill()
        slot.process.join(timeout=1.0)
        if slot.process.exitcode is None:  # ignored its EOF: the backstop
            slot.process.kill()
            slot.process.join()
        for queue in (slot.results, slot.imports):
            if queue is not None:
                queue.close()
                queue.cancel_join_thread()

    def _posted(self, job_id: int, slot: _Slot) -> bool:
        """Read the slot's channel without waiting: has its attempt posted?"""
        drain_results(slot.results, self._collected)
        return (job_id, slot.attempt) in self._collected

    def _end_attempt(self, job_id: int) -> None:
        """Take a job's attempt off its slot (and off the clause bus)."""
        del self.active[job_id]
        if self.bus is not None:
            self.bus.detach(job_id)

    def _cancel(self) -> None:
        """Interrupt every running attempt, and every later launch."""
        self._cancelled = True
        for slot in self.active.values():
            slot.stop.set()

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
        fault = (
            self.fault_plan.lookup(job.job_id, attempt)
            if self.fault_plan is not None
            else None
        )
        resumed_from = None
        if job.checkpoint_path is not None:
            resumed_from = checkpoint_conflicts(
                job.checkpoint_path, require_proof=attempt_config.proof_logging
            )
        slot = None
        while self._idle and slot is None:
            slot = self._idle.pop()
            if not slot.process.is_alive():  # died while idle
                self._retire(slot, posted=True)
                slot = None
        if slot is None:
            slot = self._spawn()
        if self.bus is not None:
            self.bus.attach(job.job_id, attempt, slot.imports)
        if self._cancelled:
            slot.stop.set()
        else:
            slot.stop.clear()
        slot.clock = StallClock(now, slot.heartbeat)
        slot.attempt = attempt
        slot.config = attempt_config
        slot.resumed_from = resumed_from
        try:
            slot.jobs.send(
                Launch(
                    entry=job.worker or solve_in_worker,
                    tag=(job.job_id, attempt),
                    formula=job.formula,
                    config=attempt_config,
                    limits=limits,
                    attempt=attempt,
                    fault=fault,
                    checkpoint_path=job.checkpoint_path,
                    checkpoint_interval=self.checkpoint_interval,
                    telemetry_seconds=self.telemetry_seconds,
                    share_max_lbd=self.bus.max_lbd if self.bus is not None else None,
                    trace_context=job.trace_context,
                )
            )
        except OSError:
            pass  # the worker died since the liveness check: a crash, found by poll
        self.active[job.job_id] = slot
        job.attempts += 1
        if self.trace is not None:
            event = {
                "type": "worker_retry" if job.retrying else "worker_start",
                "lane": job.job_id,
                "attempt": attempt,
            }
            if resumed_from is not None:
                event["resumed_from_conflicts"] = resumed_from
            self._emit(job, event)
        job.retrying = False

    def _emit(self, job: Job, event: dict) -> None:
        """Emit one supervision event, attributed to the job's request."""
        if job.trace_context and job.trace_context.get("request_id") is not None:
            event["request_id"] = job.trace_context["request_id"]
        self.trace.emit(event)

    def _record(self, job: Job, slot: _Slot, outcome: str, now, detail=None) -> None:
        job.history.append(
            AttemptRecord(
                attempt=slot.attempt,
                config_name=slot.config.name,
                seed=slot.config.seed,
                outcome=outcome,
                wall_seconds=now - slot.clock.launch,
                detail=detail,
                resumed_from_conflicts=slot.resumed_from,
            )
        )

    def _fail(
        self, job: Job, slot: _Slot, reason: str, now,
        *, retryable: bool, finished: list, detail=None,
    ) -> None:
        self._record(job, slot, reason, now, detail)
        time_left = job.kill_at is None or job.kill_at - now > MIN_RETRY_BUDGET
        retrying = (
            retryable
            and time_left
            and not self.draining
            and self.policy.allows(job.attempts)
        )
        if self.trace is not None:
            self._emit(
                job,
                {
                    "type": "worker_fault",
                    "lane": job.job_id,
                    "attempt": slot.attempt,
                    "reason": reason,
                    "will_retry": retrying,
                },
            )
        if retrying:
            self.retries += 1
            job.retrying = True
            job.not_before = now + self.policy.delay(job.attempts)
            self.pending.append(job)
        else:
            self._finalize(
                job,
                SolveResult(
                    status=SolveStatus.UNKNOWN,
                    limit_reason=reason,
                    config_name=slot.config.name,
                    wall_seconds=now - (job.first_launch or now),
                    attempts=list(job.history),
                ),
                finished,
            )

    def _finish(self, job: Job, slot: _Slot, payload, now, finished: list) -> bool:
        """Check one posted payload and settle its attempt.

        Returns True when the worker may run another attempt: its payload
        was accepted, and is not a ``"memory budget"`` answer.
        """
        if payload is None:
            # The worker's solve raised and posted a None payload.
            self._fail(
                job, slot, "worker crashed", now,
                retryable=True, finished=finished,
                detail="worker raised an exception",
            )
            return False
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
                job, slot, "time budget", time.monotonic(),
                retryable=False, finished=finished, detail=str(error),
            )
            return False
        if reason is not None:
            self._fail(
                job, slot, reason, now,
                retryable=True, finished=finished, detail=detail,
            )
            return False
        if self.verification != VERIFY_OFF:
            job.verify_seconds = time.perf_counter() - verify_started
        self._record(job, slot, "ok", now)
        if isinstance(payload, SolveResult):
            payload.attempts = list(job.history)
        self._finalize(job, payload, finished, answered=True)
        return not _memory_exhausted(payload)

    def _finalize(
        self, job: Job, result: SolveResult, finished: list, answered: bool = False
    ) -> None:
        """Give ``job`` its one final result; ``answered`` when a worker's
        answer passed the parent-side check."""
        job.result = result
        finished.append(job)
        if self.trace is not None:
            event = {
                "type": "job_end",
                "lane": job.job_id,
                "answered": answered,
                "attempt": max(job.attempts - 1, 0),
            }
            if isinstance(result, SolveResult):
                event["status"] = result.status.name
                if result.limit_reason is not None:
                    event["limit_reason"] = result.limit_reason
            self._emit(job, event)
        # Finalized jobs leave the pool's index immediately: a long-
        # running server submits an unbounded stream, and each Job pins
        # its formula, history, and the caller's reply closure.  Callers
        # keep their own references (submit() returns the job, and it is
        # in `finished` / handed to on_done here).
        self.jobs.pop(job.job_id, None)
        if job.on_done is not None:
            job.on_done(job)
