"""Bulk solving: a supervised process pool over many formulas.

:func:`solve_batch` solves a sequence of formulas concurrently under one
configuration, with per-instance budgets.  Failure is contained per
instance — and, with a :class:`~repro.reliability.RetryPolicy`, is
*survived* per instance: a worker that crashes, is killed by a signal,
stalls its result pipe, or returns a corrupted answer is relaunched
with a fresh seed (exponential backoff, shrinking remaining-time
budget) up to the policy's attempt limit before its instance degrades
to ``SolveStatus.UNKNOWN``.  Healthy siblings are never affected.  The
returned :class:`BatchResult` keeps input order, aggregates every
member's :class:`~repro.solver.stats.SolverStats`, and records the full
attempt history on each result.

The supervision machinery itself lives in
:class:`~repro.parallel.pool.JobPool` (extracted so the solver service
can stream jobs through the same loop); this module owns the
batch-shaped surface: input normalization, per-instance budgets, stats
aggregation, and order-preserving results.

Answers can be gated through the trusted-results check
(``verification="sat"`` model-checks SAT answers against the original
formula; ``"full"`` additionally RUP-checks UNSAT proofs) — a result
that fails the gate is treated exactly like a crashed worker.

Usage::

    from repro import RetryPolicy, solve_batch

    batch = solve_batch(
        formulas, jobs=4, max_conflicts=30_000,
        retry=RetryPolicy(max_attempts=3), verification="full",
    )
    batch.statuses()       # [SolveStatus.SAT, SolveStatus.UNSAT, ...]
    batch[0].attempts      # supervised attempt history
    batch.stats.conflicts  # summed over the whole batch
"""

from __future__ import annotations

import os
import time
from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.cnf.formula import CnfFormula
from repro.parallel.pool import Job, JobPool
from repro.parallel.worker import TELEMETRY_SECONDS, strip_for_worker
from repro.reliability.faults import FaultPlan
from repro.reliability.retry import RetryPolicy
from repro.solver.config import SolverConfig, resolve_config
from repro.solver.result import SolveResult, SolveStatus
from repro.solver.stats import SolverStats, aggregate_stats

#: Extra wall-clock slack granted on top of a cooperative ``max_seconds``
#: budget before the parent terminates a worker outright.
DEFAULT_GRACE_SECONDS = 2.0
#: Final-result reason for instances cut short by a drain (SIGTERM).
DRAIN_REASON = "terminated (drain)"


@dataclass
class BatchResult:
    """Outcome of :func:`solve_batch`, aligned with the input order."""

    results: list[SolveResult] = field(default_factory=list)
    #: Aggregate of every member's stats (crashed members contribute none).
    stats: SolverStats = field(default_factory=SolverStats)
    #: Wall-clock seconds for the whole batch call.
    wall_seconds: float = 0.0
    #: Worker relaunches performed by the supervisor (0 without a policy).
    retries: int = 0
    #: True when a ``stop_event`` cut the batch short (SIGTERM drain).
    drained: bool = False

    def statuses(self) -> list[SolveStatus]:
        """The per-formula statuses, in input order."""
        return [result.status for result in self.results]

    @property
    def num_sat(self) -> int:
        return sum(1 for result in self.results if result.is_sat)

    @property
    def num_unsat(self) -> int:
        return sum(1 for result in self.results if result.is_unsat)

    @property
    def num_unknown(self) -> int:
        return sum(1 for result in self.results if result.is_unknown)

    @property
    def all_definite(self) -> bool:
        """True when every formula got a SAT/UNSAT answer."""
        return self.num_unknown == 0

    @property
    def all_verified(self) -> bool:
        """True when every definite answer passed the trusted-results gate."""
        return all(
            result.verified is not None
            for result in self.results
            if not result.is_unknown
        )

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    def __getitem__(self, index: int) -> SolveResult:
        return self.results[index]

    def __repr__(self) -> str:
        retries = f", {self.retries} retries" if self.retries else ""
        drained = ", drained" if self.drained else ""
        return (
            f"BatchResult({len(self.results)} formulas: {self.num_sat} SAT, "
            f"{self.num_unsat} UNSAT, {self.num_unknown} UNKNOWN{retries}"
            f"{drained}, wall={self.wall_seconds:.3f}s)"
        )


def solve_batch(
    formulas: Iterable[CnfFormula | Iterable[Iterable[int]]],
    *,
    jobs: int | None = None,
    config: SolverConfig | str | None = None,
    assumptions: Iterable[int] = (),
    max_conflicts: int | None = None,
    max_decisions: int | None = None,
    max_seconds: float | None = None,
    max_clauses: int | None = None,
    timeout: float | None = None,
    grace_seconds: float = DEFAULT_GRACE_SECONDS,
    retry: RetryPolicy | int | None = None,
    verification: str | None = None,
    stall_seconds: float | None = None,
    max_memory_mb: int | None = None,
    fault_plan: FaultPlan | None = None,
    checkpoint_dir: str | os.PathLike | None = None,
    checkpoint_interval: int = 1000,
    trace=None,
    stop_event=None,
) -> BatchResult:
    """Solve many formulas concurrently; degrade per instance, never fail.

    Args:
        formulas: the instances (``CnfFormula`` or clause iterables).
        jobs: workers running at once (default: CPU count, capped at the
            batch size).
        config: configuration for every instance — a
            :class:`SolverConfig`, a registry name, or None for BerkMin.
        assumptions: DIMACS literals assumed true for *every* instance's
            solve call (the same per-call semantics as
            :meth:`Solver.solve`; UNSAT-under-assumptions answers carry
            their failed-assumption ``core``).
        max_conflicts / max_decisions / max_seconds / max_clauses:
            per-instance budgets, forwarded to every
            :meth:`Solver.solve` call (``max_clauses`` is the in-solver
            memory guard).
        timeout: hard per-instance wall-clock limit enforced by the
            parent (a kill), spanning *all* attempts of that
            instance.  Defaults to ``max_seconds + grace_seconds`` when
            ``max_seconds`` is set, else unlimited.  This is the safety
            net for hung workers; the cooperative ``max_seconds`` budget
            fires first on healthy ones, and retries run inside the
            shrinking remainder.
        grace_seconds: slack added when deriving ``timeout`` from
            ``max_seconds``.
        retry: a :class:`~repro.reliability.RetryPolicy`, an int (total
            attempts), or None (no retries).  Crashed, stalled, and
            corrupted workers are relaunched with fresh seeds and
            exponential backoff; budget-exhausted answers are honest and
            never retried.
        verification: trusted-results gate level (``"off"``/``"sat"``/
            ``"full"``); defaults to the configuration's
            ``verification`` field.  ``"full"`` forces proof logging in
            workers so UNSAT proofs come back checkable.
        stall_seconds: watchdog window — a worker making no
            ``on_progress`` heartbeat for this long is treated as wedged
            (killed, then retried under the policy).  None disables
            the watchdog.
        max_memory_mb: per-worker ``RLIMIT_AS`` ceiling; an over-budget
            solve degrades to ``UNKNOWN ("memory budget")``.
        fault_plan: deterministic fault injection for tests/audits (see
            :class:`~repro.reliability.FaultPlan`).
        checkpoint_dir: directory of per-instance checkpoint files
            (``instance-0003.ckpt``), created if missing.  Every worker
            writes an atomic checkpoint each ``checkpoint_interval``
            conflicts, and — crucially — every *relaunch* (supervised
            retry or a later ``solve_batch`` call over the same
            directory) warm-resumes from the last good checkpoint
            instead of the cold seed, inheriting the learned clauses and
            activities the previous attempt paid for.  The inherited
            progress is recorded as ``resumed_from_conflicts`` on the
            attempt's :class:`AttemptRecord`.  Unusable checkpoints
            (missing, truncated, bit-flipped, stale version, different
            formula) degrade to a cold start with a warning.
        checkpoint_interval: conflicts between periodic checkpoint
            writes (only meaningful with ``checkpoint_dir``).
        trace: optional :class:`~repro.observability.TraceSink` (e.g.
            the live :class:`~repro.observability.FleetDashboard`)
            receiving the batch as events: ``fleet_start``, the pool's
            supervision events per instance (``worker_start`` /
            ``worker_fault`` / ``worker_retry`` / ``job_end``), the
            ``lane_progress`` rows workers relay over the result queue
            every :data:`~repro.parallel.worker.TELEMETRY_SECONDS`, and
            ``fleet_end``.  Workers never inherit the caller's sink: the
            batch strips ``trace`` from worker configs (a shared file
            sink across processes would interleave) and relays progress
            as telemetry instead.
        stop_event: optional event (anything with ``is_set()``) checked
            every supervision tick; once set, the batch drains — running
            workers are cancelled cooperatively so they write a final
            checkpoint and post an honest ``UNKNOWN ("interrupted")``,
            queued instances are finalized as ``UNKNOWN ("terminated
            (drain)")``, and the call returns early with
            ``BatchResult.drained`` set.  This is the SIGTERM hook used
            by ``repro-sat batch``.

    A worker that raises, is killed, stalls, or returns a corrupted
    result yields — after the retry policy is exhausted —
    ``SolveStatus.UNKNOWN`` for its instance only, with a
    ``limit_reason`` naming the failure (``"worker crashed (SIGKILL)"``,
    ``"stalled (no heartbeat)"``, ``"corrupted result"``, ``"time
    budget"``) and the full attempt history on ``result.attempts``.
    """
    config, verification = resolve_config(config, verification)
    worker_config = strip_for_worker(config, verification)

    items: list[CnfFormula] = [
        item if isinstance(item, CnfFormula) else CnfFormula(item) for item in formulas
    ]
    if jobs is not None and jobs < 1:
        raise ValueError("jobs must be >= 1")
    if jobs is None:
        jobs = os.cpu_count() or 1
    jobs = max(1, min(jobs, len(items))) if items else 1
    if timeout is None and max_seconds is not None:
        timeout = max_seconds + grace_seconds

    if checkpoint_dir is not None:
        checkpoint_dir = os.fspath(checkpoint_dir)
        os.makedirs(checkpoint_dir, exist_ok=True)

    started = time.perf_counter()
    if not items:
        return BatchResult(wall_seconds=time.perf_counter() - started)
    if trace is not None:
        trace.emit({"type": "fleet_start", "count": len(items)})

    base_limits = {
        "max_conflicts": max_conflicts,
        "max_decisions": max_decisions,
        "max_seconds": max_seconds,
        "max_clauses": max_clauses,
    }
    assumptions = tuple(assumptions)
    if assumptions:
        base_limits["assumptions"] = assumptions

    pool = JobPool(
        jobs,
        retry=retry,
        verification=verification,
        stall_seconds=stall_seconds,
        max_memory_mb=max_memory_mb,
        fault_plan=fault_plan,
        checkpoint_interval=checkpoint_interval,
        trace=trace,
        telemetry_seconds=TELEMETRY_SECONDS if trace is not None else None,
    )
    submitted: list[Job] = []
    for index, formula in enumerate(items):
        checkpoint_path = None
        if checkpoint_dir is not None:
            checkpoint_path = os.path.join(
                checkpoint_dir, f"instance-{index:04d}.ckpt"
            )
        submitted.append(
            pool.submit(
                Job(
                    job_id=index,
                    formula=formula,
                    config=worker_config,
                    limits=dict(base_limits),
                    budget=timeout,
                    checkpoint_path=checkpoint_path,
                )
            )
        )

    drained = False
    try:
        while not pool.idle:
            pool.poll()
            if stop_event is not None and stop_event.is_set():
                drained = True
                pool.drain(grace_seconds=0.0, reason=DRAIN_REASON)
                break
    finally:
        pool.close()

    results = [job.result for job in submitted]
    stats = aggregate_stats(result.stats for result in results)
    stats.worker_retries += pool.retries
    batch = BatchResult(
        results=results,
        stats=stats,
        wall_seconds=time.perf_counter() - started,
        retries=pool.retries,
        drained=drained,
    )
    if trace is not None:
        trace.emit({"type": "fleet_end", "summary": repr(batch)})
    return batch
