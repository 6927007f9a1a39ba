"""Grouped incremental solving: streams of related queries per worker.

:func:`solve_grouped` is the batch engine's sibling for *related*
instances: each **group** is an ordered stream of ``(clauses,
assumptions)`` steps — a BMC depth sweep, an ATPG fault set, a planning
horizon — and every group runs through one
:class:`~repro.session.SolverSession` inside one worker process, so the
learned-clause retention, activity carry-over, and answer cache pay off
within the group while independent groups still run concurrently.

A group is one job of its own kind on the supervised
:class:`~repro.parallel.pool.JobPool`: its worker entry runs the
session steps and posts one result per step, and its parent-side check
verifies each step against the clauses accumulated up to that step.
Everything else is the pool's — liveness and heartbeat watchdogs, the
hard ``timeout`` (``"time budget"``), fault plans keyed by group index
and attempt, and relaunches under a
:class:`~repro.reliability.RetryPolicy` before the group degrades to
per-step UNKNOWN results.
"""

from __future__ import annotations

import functools
import os
import time
from dataclasses import dataclass, field

from repro.cnf.formula import CnfFormula
from repro.parallel.pool import Job, JobPool
from repro.parallel.worker import strip_for_worker
from repro.reliability.faults import (
    FAULT_CORRUPT,
    FAULT_STALL,
    FaultPlan,
    corrupt_result,
    execute_entry_fault,
)
from repro.reliability.verify import VerificationError, check_result_shape, verify_result
from repro.solver.config import VERIFY_OFF, SolverConfig, resolve_config
from repro.solver.result import SolveResult, SolveStatus


@dataclass
class GroupOutcome:
    """What one group's stream produced: one result per step, in order."""

    results: list[SolveResult] = field(default_factory=list)
    #: Total supervised launches this group consumed (1 = clean first run).
    attempts: int = 1
    #: True when the retry policy was exhausted and the step results are
    #: parent-made UNKNOWN placeholders, not worker answers.
    degraded: bool = False
    #: Failure description of the last attempt when degraded.
    failure: str | None = None


@dataclass
class GroupedResult:
    """Outcome of :func:`solve_grouped`."""

    groups: list[GroupOutcome] = field(default_factory=list)
    wall_seconds: float = 0.0
    #: Supervised relaunches across all groups.
    retries: int = 0

    def flat_results(self) -> list[SolveResult]:
        """Every step result, group-major (the differential tests' view)."""
        return [result for group in self.groups for result in group.results]


def _normalize_steps(group) -> list[tuple[list[list[int]], list[int]]]:
    """Coerce one group into ``[(clauses, assumptions), ...]`` plain data."""
    steps = []
    for step in group:
        clauses, assumptions = step
        if isinstance(clauses, CnfFormula):
            clauses = clauses.clauses
        steps.append(
            (
                [[int(lit) for lit in clause] for clause in clauses],
                [int(lit) for lit in assumptions],
            )
        )
    return steps


def solve_group_in_worker(
    tag,
    steps,
    config,
    limits,
    stop,
    results,
    heartbeat=None,
    attempt: int = 0,
    fault=None,
    *_solve_only,
    retain_max_lbd=None,
) -> None:
    """Process entry: run one group's steps through one session.

    Posts ``(tag, [SolveResult, ...])`` — one result per step — or
    ``(tag, None)`` when the session raised.  The positional layout is
    :func:`repro.parallel.worker.solve_in_worker`'s, so the pool
    launches both kinds alike; ``stop`` and the trailing solve-only
    arguments (checkpoint, telemetry, sharing, trace context) are
    accepted and unused.  Fault
    semantics mirror the solve kind's: entry faults fire before the
    session is built, ``corrupt`` swaps the last step's answer for a
    verifiable lie, ``stall`` computes everything, goes silent, and
    dies without posting.
    ``heartbeat`` (the pool's shared monotonic timestamp) is stamped at
    the solver's progress cadence and between steps for the parent's
    stall watchdog.
    """
    try:
        if fault is None:
            plan = FaultPlan.from_env()
            if plan is not None:
                fault = plan.lookup(tag[0] if isinstance(tag, tuple) else tag, attempt)
        if fault is not None:
            execute_entry_fault(fault)  # crash/signal never return; hang sleeps

        # Imported here so the module stays importable without the
        # session layer in pathological partial-install situations.
        from repro.session import SolverSession

        kwargs = {} if retain_max_lbd is None else {"retain_max_lbd": retain_max_lbd}
        if heartbeat is not None:

            def on_progress(stats, _beat=heartbeat):
                _beat.value = time.monotonic()

            # Rides the limits dict into every session.solve call (cache
            # hits skip the search and are stamped between steps below).
            limits = dict(limits, on_progress=on_progress)
        outcomes: list[SolveResult] = []
        with SolverSession(None, config, **kwargs) as session:
            for clauses, assumptions in steps:
                if heartbeat is not None:
                    heartbeat.value = time.monotonic()
                session.add_clauses(clauses)
                outcomes.append(session.solve(assumptions, **limits))
        if fault is not None:
            if fault.mode == FAULT_CORRUPT and outcomes:
                accumulated = CnfFormula(
                    [clause for clauses, _ in steps for clause in clauses]
                )
                outcomes[-1] = corrupt_result(outcomes[-1], accumulated)
            elif fault.mode == FAULT_STALL:
                time.sleep(fault.seconds)
                raise SystemExit(0)  # die without posting
        results.put((tag, outcomes))
    except Exception:
        results.put((tag, None))


def _verify_group(steps, outcomes, level: str) -> str | None:
    """Parent-side trusted-results gate over one group's step results.

    Returns ``None`` when every step passes, else a description of the
    first defect (treated like a corrupted worker).  Each step is
    checked against the clauses accumulated *up to that step* — the
    formula the worker's session actually solved.
    """
    if not isinstance(outcomes, list) or len(outcomes) != len(steps):
        return "corrupted result (wrong step count)"
    accumulated: list[list[int]] = []
    for step_index, ((clauses, _assumptions), result) in enumerate(
        zip(steps, outcomes)
    ):
        accumulated.extend(clauses)
        shape = check_result_shape(result)
        if shape is not None:
            return f"corrupted result (step {step_index}: {shape})"
        if level == VERIFY_OFF:
            continue
        try:
            verified = verify_result(CnfFormula(accumulated), result, level=level)
        except VerificationError as error:
            return f"corrupted result (step {step_index}: {error})"
        if verified is not None:
            result.verified = verified
    return None


def solve_grouped(
    groups,
    *,
    jobs: int | None = None,
    config: SolverConfig | str | None = None,
    max_conflicts: int | None = None,
    max_decisions: int | None = None,
    max_seconds: float | None = None,
    retry=None,
    verification: str | None = None,
    fault_plan: FaultPlan | None = None,
    timeout: float | None = None,
    stall_seconds: float | None = None,
    retain_max_lbd: int | None = None,
    trace=None,
) -> GroupedResult:
    """Solve groups of related query streams concurrently.

    Args:
        groups: iterable of groups; each group is an ordered iterable of
            ``(clauses, assumptions)`` steps.  ``clauses`` (a clause
            iterable or :class:`CnfFormula`) are added to the group's
            session before its ``solve(assumptions)`` call, so a step
            with empty ``clauses`` re-queries the same formula.
        jobs: groups in flight at once (default: CPU count, capped).
        config: shared configuration (instance, registry name, or None).
        max_conflicts / max_decisions / max_seconds: per-*step* budgets.
        retry: :class:`RetryPolicy` / int / None — a failed group is
            relaunched *from its first step* (sessions are cheap to
            replay; the retried run re-earns its retained clauses).
        verification: parent-side gate level (defaults to the config's);
            ``"full"`` forces proof logging in workers.
        fault_plan: deterministic fault injection keyed by (group,
            attempt).
        timeout: per-group wall-clock limit across all attempts,
            enforced by the parent (the hard backstop); a group cut off
            by it degrades with ``"time budget"``.
        stall_seconds: heartbeat watchdog window — a worker that is
            alive but posts no heartbeat (stamped at the solver's
            progress cadence and between steps) for this long is
            terminated and treated as a retryable fault.  ``None``
            disables the watchdog.
        retain_max_lbd: session glue bound override (None = session
            default).
        trace: optional parent-side :class:`TraceSink` receiving the
            pool's supervision events per group: ``worker_start`` /
            ``worker_retry`` at each launch, ``worker_fault`` per failed
            attempt and one ``job_end`` per group.  A group's
            ``job_end`` carries no ``status``, since its result is a
            list of step results.
    """
    started = time.perf_counter()
    config, verification = resolve_config(config, verification)
    worker_config = strip_for_worker(config, verification)

    normalized = [_normalize_steps(group) for group in groups]
    if not normalized:
        return GroupedResult(wall_seconds=time.perf_counter() - started)
    if jobs is not None and jobs < 1:
        raise ValueError("jobs must be >= 1")
    if jobs is None:
        jobs = os.cpu_count() or 1

    limits = {
        "max_conflicts": max_conflicts,
        "max_decisions": max_decisions,
        "max_seconds": max_seconds,
    }
    pool = JobPool(
        max(1, min(jobs, len(normalized))),
        retry=retry,
        verification=verification,
        stall_seconds=stall_seconds,
        fault_plan=fault_plan,
        trace=trace,
    )
    submitted = [
        pool.submit(
            Job(
                job_id=index,
                formula=steps,
                config=worker_config,
                limits=limits,
                budget=timeout,
                worker=functools.partial(
                    solve_group_in_worker, retain_max_lbd=retain_max_lbd
                ),
                check=functools.partial(_verify_group, steps, level=verification),
            )
        )
        for index, steps in enumerate(normalized)
    ]
    try:
        while not pool.idle:
            pool.poll()
    finally:
        pool.close()
    return GroupedResult(
        groups=[_outcome(job, config.name) for job in submitted],
        wall_seconds=time.perf_counter() - started,
        retries=pool.retries,
    )


def _outcome(job: Job, config_name: str) -> GroupOutcome:
    """The group's step results, or UNKNOWN placeholders once it failed."""
    if isinstance(job.result, list):
        return GroupOutcome(results=job.result, attempts=job.attempts)
    reason = job.result.limit_reason
    return GroupOutcome(
        results=[
            SolveResult(
                status=SolveStatus.UNKNOWN,
                limit_reason=reason,
                config_name=config_name,
            )
            for _ in job.formula
        ],
        attempts=job.attempts,
        degraded=True,
        failure=reason,
    )
