"""Portfolio solving: race diverse configurations, first answer wins.

The paper's whole evaluation is a competition between heuristic
*configurations* — BerkMin against Chaff against the ablations of
Tables 1-10 — and no single configuration dominates every benchmark
family.  :class:`PortfolioSolver` turns that observation into an
algorithm: run several :class:`~repro.solver.config.SolverConfig`
presets (with varied seeds) on the same formula in separate processes
and return the first definite SAT/UNSAT answer.  Losers are cancelled
cooperatively through the :meth:`Solver.interrupt` progress hook, with
``terminate`` as the backstop for unresponsive workers.

The race is *supervised*: each lane (one configuration) is one job on a
:class:`~repro.parallel.pool.JobPool`, which watches it for crashes,
signal deaths, heartbeat stalls, and — when verification is on —
corrupted answers, and relaunches it with a fresh seed under the active
:class:`~repro.reliability.RetryPolicy` while the other lanes keep
racing.  A winner only leaves the race after it passes the
trusted-results gate.

Usage::

    from repro import CnfFormula, PortfolioSolver

    portfolio = PortfolioSolver(jobs=4, retry=2, verification="full")
    result = portfolio.solve(formula, max_seconds=10.0)
    result.config_name  # which configuration won the race
    result.verified     # "model" / "proof" when the gate checked it
"""

from __future__ import annotations

import os
import random
import time
from collections.abc import Iterable, Sequence

from repro.cnf.formula import CnfFormula
from repro.observability.trace import MultiSink
from repro.parallel.pool import DEADLINE_EXPIRED, Job, JobPool
from repro.parallel.sharing import (
    DEFAULT_QUARANTINE_THRESHOLD,
    DEFAULT_VERIFY_FRACTION,
    AdaptiveLaneManager,
    ClauseBus,
)
from repro.parallel.worker import TELEMETRY_SECONDS, strip_for_worker
from repro.reliability.faults import FaultPlan
from repro.reliability.retry import RetryPolicy, as_retry_policy
from repro.solver.config import (
    VERIFICATION_LEVELS,
    SolverConfig,
    config_by_name,
)
from repro.solver.result import SolveResult, SolveStatus
from repro.solver.stats import aggregate_stats

#: How long a cancelled loser gets to exit cooperatively before being
#: terminated.
DEFAULT_GRACE_SECONDS = 1.0

#: Preset rotation used by :func:`default_portfolio`: orthogonal
#: decision/database strategies first (the configurations the paper
#: found to behave most differently), then phase-selection variants.
PORTFOLIO_PRESETS = (
    "berkmin",
    "chaff",
    "berkmin561",
    "less_sensitivity",
    "limited_keeping",
    "less_mobility",
    "take_rand",
    "sat_top",
)


def default_portfolio(size: int = 4, base_seed: int = 0) -> list[SolverConfig]:
    """Build ``size`` diverse configurations for a portfolio race.

    Rotates through :data:`PORTFOLIO_PRESETS` and gives every member a
    distinct seed, so portfolios larger than the rotation still differ
    (same heuristics, different tie-breaking and restart phases).
    """
    if size < 1:
        raise ValueError("portfolio size must be >= 1")
    return [
        config_by_name(PORTFOLIO_PRESETS[i % len(PORTFOLIO_PRESETS)], seed=base_seed + i)
        for i in range(size)
    ]


class PortfolioSolver:
    """Race N configurations on one formula; first SAT/UNSAT wins.

    Args:
        configs: the configurations to race — :class:`SolverConfig`
            instances or registry names.  Defaults to
            :func:`default_portfolio` sized to ``jobs`` (or the CPU
            count).
        jobs: maximum workers running at once.  With more configs than
            jobs, the remainder start as earlier workers finish without
            a definite answer.  Defaults to ``len(configs)``.
        grace_seconds: cooperative-cancellation grace period before a
            loser is forcibly terminated.
        retry: a :class:`~repro.reliability.RetryPolicy`, an int (total
            attempts per lane), or None (no retries).  A lane whose
            worker crashes, stalls, or returns a corrupted answer is
            relaunched with a fresh seed while the rest keep racing.
        verification: trusted-results gate level (``"off"``/``"sat"``/
            ``"full"``); defaults to the first configuration's
            ``verification`` field.  A would-be winner that fails the
            gate is treated as a crashed attempt — the race continues.
        stall_seconds: heartbeat watchdog window; None disables it.
        max_memory_mb: per-worker ``RLIMIT_AS`` ceiling.
        fault_plan: deterministic fault injection keyed by (lane,
            attempt), for tests and audits.
        checkpoint_dir: directory of per-lane checkpoint files
            (``lane-03.ckpt``), created if missing.  Lanes checkpoint
            every ``checkpoint_interval`` conflicts, and a relaunched
            lane (supervised retry, or a later race over the same
            directory and formula) warm-resumes from its last good
            checkpoint instead of a cold seed; the inherited progress is
            recorded as ``resumed_from_conflicts`` on the attempt
            record.  Unusable checkpoints degrade to a cold start with a
            warning — see :mod:`repro.checkpoint`.
        checkpoint_interval: conflicts between periodic checkpoint
            writes (only meaningful with ``checkpoint_dir``).
        trace: optional :class:`~repro.observability.TraceSink` (e.g.
            the live :class:`~repro.observability.FleetDashboard`)
            receiving the race as events: ``fleet_start``, the pool's
            supervision events per lane (launches, faults, ``job_end``),
            ``lane_progress`` rows relayed every
            :data:`~repro.parallel.worker.TELEMETRY_SECONDS` (also when
            only ``adapt`` is on), the sharing and adaptation events,
            and ``fleet_end``.  Worker configs are stripped of their own
            ``trace`` — progress crosses the process boundary as
            telemetry, not as a shared sink.
        share: enable the validated clause bus between lanes (see
            :mod:`repro.parallel.sharing`): glue-tier learned clauses
            are exported, CRC-framed, re-validated twice, and imported
            at restart boundaries behind each importer's RUP gate.  A
            lane accumulating ``quarantine_threshold`` *hard* rejections
            is quarantined — purged fleet-wide and relaunched under the
            retry policy.
        share_max_lbd: export LBD bound (defaults to the first
            configuration's ``share_max_lbd`` field, the glue tier).
        share_verify_fraction: fraction of accepted clauses given the
            parent's bounded semantic spot-check.
        quarantine_threshold: hard rejections before a lane is
            quarantined.
        adapt: enable adaptive lane management — a UCB bandit over the
            telemetry stream preempts the clearly-losing lane and
            relaunches it (without burning retry budget) under a mutated
            configuration, warm-resumed where its checkpoint is valid.
    """

    def __init__(
        self,
        configs: Iterable[SolverConfig | str] | None = None,
        *,
        jobs: int | None = None,
        grace_seconds: float = DEFAULT_GRACE_SECONDS,
        retry: RetryPolicy | int | None = None,
        verification: str | None = None,
        stall_seconds: float | None = None,
        max_memory_mb: int | None = None,
        fault_plan: FaultPlan | None = None,
        checkpoint_dir: str | os.PathLike | None = None,
        checkpoint_interval: int = 1000,
        trace=None,
        share: bool = False,
        share_max_lbd: int | None = None,
        share_verify_fraction: float = DEFAULT_VERIFY_FRACTION,
        quarantine_threshold: int = DEFAULT_QUARANTINE_THRESHOLD,
        adapt: bool = False,
    ) -> None:
        if jobs is not None and jobs < 1:
            raise ValueError("jobs must be >= 1")
        if configs is None:
            configs = default_portfolio(jobs if jobs is not None else (os.cpu_count() or 4))
        self.configs: list[SolverConfig] = [
            config if isinstance(config, SolverConfig) else config_by_name(config)
            for config in configs
        ]
        if not self.configs:
            raise ValueError("a portfolio needs at least one configuration")
        self.jobs = jobs if jobs is not None else len(self.configs)
        self.grace_seconds = grace_seconds
        self.retry = as_retry_policy(retry)
        if verification is None:
            verification = self.configs[0].verification
        if verification not in VERIFICATION_LEVELS:
            raise ValueError(
                f"unknown verification level {verification!r}; "
                f"expected one of {', '.join(VERIFICATION_LEVELS)}"
            )
        self.verification = verification
        self.stall_seconds = stall_seconds
        self.max_memory_mb = max_memory_mb
        self.fault_plan = fault_plan
        self.checkpoint_dir = (
            os.fspath(checkpoint_dir) if checkpoint_dir is not None else None
        )
        self.checkpoint_interval = checkpoint_interval
        self.trace = trace
        self.share = bool(share)
        self.share_max_lbd = (
            share_max_lbd if share_max_lbd is not None
            else self.configs[0].share_max_lbd
        )
        self.share_verify_fraction = share_verify_fraction
        self.quarantine_threshold = quarantine_threshold
        self.adapt = bool(adapt)

    # ------------------------------------------------------------------
    def solve(
        self,
        formula: CnfFormula | Iterable[Iterable[int]],
        assumptions: Sequence[int] = (),
        *,
        max_conflicts: int | None = None,
        max_decisions: int | None = None,
        max_seconds: float | None = None,
        max_clauses: int | None = None,
    ) -> SolveResult:
        """Race the portfolio on ``formula``; return the winning result.

        The returned :class:`SolveResult` is the winner's verbatim, so
        ``result.config_name`` identifies the winning configuration and
        ``result.model`` / ``result.stats`` are the winner's (plus the
        winning lane's attempt history and the race's retry count).
        When every member returns ``UNKNOWN`` (budgets exhausted) or
        dies past its retries, the answer is a synthesized ``UNKNOWN``
        carrying the merged stats of every member that reported back and
        the concatenated attempt history of all lanes — the race never
        raises because one worker was lost.

        Each lane is one job on a :class:`~repro.parallel.pool.JobPool`
        sharing one race deadline; this method only adds what a race
        needs on top of the pool: first-answer-wins, quarantine of
        Byzantine sharers, and the bandit's adaptive relaunches.
        """
        if not isinstance(formula, CnfFormula):
            formula = CnfFormula(formula)
        trace = self.trace
        worker_configs = [
            strip_for_worker(config, self.verification) for config in self.configs
        ]
        limits = {
            "assumptions": tuple(assumptions),
            "max_conflicts": max_conflicts,
            "max_decisions": max_decisions,
            "max_seconds": max_seconds,
            "max_clauses": max_clauses,
        }
        if self.checkpoint_dir is not None:
            os.makedirs(self.checkpoint_dir, exist_ok=True)
        bus = None
        if self.share and len(worker_configs) > 1:
            bus = ClauseBus(
                formula,
                len(worker_configs),
                max_lbd=self.share_max_lbd,
                verify_fraction=self.share_verify_fraction,
                quarantine_threshold=self.quarantine_threshold,
                rng=random.Random(10007 + self.configs[0].seed),
                trace=trace,
            )
        adapt = (
            AdaptiveLaneManager() if self.adapt and len(worker_configs) > 1 else None
        )
        sinks = [sink for sink in (trace, adapt) if sink is not None]
        pool = JobPool(
            self.jobs,
            retry=self.retry,
            verification=self.verification,
            stall_seconds=self.stall_seconds,
            max_memory_mb=self.max_memory_mb,
            fault_plan=self.fault_plan,
            checkpoint_interval=self.checkpoint_interval,
            trace=MultiSink(*sinks) if sinks else None,
            telemetry_seconds=TELEMETRY_SECONDS if sinks else None,
            bus=bus,
        )
        deadline = (
            None
            if max_seconds is None
            else time.monotonic() + max_seconds + self.grace_seconds
        )
        lanes = [
            pool.submit(
                Job(
                    job_id=index,
                    formula=formula,
                    config=config,
                    limits=limits,
                    deadline=deadline,
                    checkpoint_path=(
                        os.path.join(self.checkpoint_dir, f"lane-{index:02d}.ckpt")
                        if self.checkpoint_dir is not None
                        else None
                    ),
                    stop=pool.context.Event() if adapt is not None else None,
                )
            )
            for index, config in enumerate(worker_configs)
        ]
        if trace is not None:
            trace.emit(
                {
                    "type": "fleet_start",
                    "count": len(lanes),
                    "labels": [config.name for config in worker_configs],
                }
            )
        started = time.perf_counter()
        champion: SolveResult | None = None
        lane_restarts = 0
        try:
            while champion is None and not pool.idle:
                champion = next(
                    (job.result for job in pool.poll() if not job.result.is_unknown),
                    None,
                )
                if champion is None and bus is not None:
                    lane_restarts += self._quarantine(pool, bus, lanes)
                if champion is None and adapt is not None:
                    lane_restarts += self._adapt(pool, adapt, lanes)
        finally:
            pool.close(self.grace_seconds)

        elapsed = time.perf_counter() - started
        retries = pool.retries
        if champion is not None:
            champion.wall_seconds = elapsed
            champion.stats.worker_retries += retries
            champion.stats.lane_restarts += lane_restarts
            if trace is not None:
                trace.emit(
                    {
                        "type": "fleet_end",
                        "summary": f"{champion.status.name} by "
                        f"{champion.config_name} in {elapsed:.3f}s "
                        f"({retries} retries)",
                    }
                )
            return champion
        # Honest (budget-exhausted) UNKNOWNs contribute their stats; the
        # pool finalizes a lane past its retries as a degraded UNKNOWN,
        # and the race deadline as "time budget" / "deadline expired".
        results = [job.result for job in lanes]
        expired = any(result.limit_reason == DEADLINE_EXPIRED for result in results)
        failures = sorted({result.limit_reason for result in results if result.degraded})
        reported = [
            result
            for result in results
            if not result.degraded and result.limit_reason != DEADLINE_EXPIRED
        ]
        if expired or "time budget" in failures:
            reason = "time budget"
        elif reported:
            reasons = sorted(
                {result.limit_reason or "unknown" for result in reported}
                | set(failures)
            )
            reason = "portfolio exhausted: " + ", ".join(reasons)
        elif failures:
            reason = ", ".join(failures)
        else:
            reason = "worker crashed"
        stats = aggregate_stats(result.stats for result in reported)
        stats.worker_retries += retries
        stats.lane_restarts += lane_restarts
        history = [record for job in lanes for record in job.history]
        if trace is not None:
            trace.emit(
                {
                    "type": "fleet_end",
                    "summary": f"UNKNOWN ({reason}) in {elapsed:.3f}s",
                }
            )
        return SolveResult(
            status=SolveStatus.UNKNOWN,
            stats=stats,
            limit_reason=reason,
            config_name="portfolio",
            wall_seconds=elapsed,
            attempts=history or None,
        )

    def _quarantine(self, pool: JobPool, bus: ClauseBus, lanes: list[Job]) -> int:
        """Quarantine every lane over the bus's hard-rejection threshold.

        Hard rejections are Byzantine evidence: the lane is muted and
        purged fleet-wide, then failed through the pool, whose retry
        policy decides whether it gets another life.  Returns the number
        of lanes quarantined.
        """
        poisoned = bus.poisoned_lanes()
        for index in poisoned:
            state = bus.mark_quarantined(index)
            entry = pool.active.get(index)
            attempt = entry.attempt if entry is not None else lanes[index].attempts - 1
            if self.trace is not None:
                self.trace.emit(
                    {
                        "type": "lane_quarantine",
                        "lane": index,
                        "attempt": attempt,
                        "rejections": state.hard_rejections,
                        "exported": state.exported,
                        "reason": "hard share rejections over threshold",
                    }
                )
            if entry is not None:
                pool.fail(
                    index,
                    "quarantined (byzantine clause sharing)",
                    detail=f"{state.hard_rejections} hard rejections "
                    f"across {state.exported} accepted exports",
                )
        return len(poisoned)

    def _adapt(self, pool: JobPool, adapt: AdaptiveLaneManager, lanes: list[Job]) -> int:
        """Preempt the bandit's clearly-losing lane under a mutated config.

        The relaunch spends no retry budget (the lane did nothing wrong)
        and warm-resumes from the lane's checkpoint where one is valid.
        Returns 1 when a lane was preempted this tick, else 0.
        """
        candidates = [
            index for index, entry in pool.active.items() if entry.preempted is None
        ]
        victim = adapt.pick_victim(time.monotonic(), candidates)
        if victim is None:
            return 0
        job = lanes[victim]
        job.config, label = adapt.mutate(victim, job.config)
        attempt = pool.preempt(victim, f"adapt:{label}", self.grace_seconds)
        if self.trace is not None:
            self.trace.emit(
                {
                    "type": "lane_adapt",
                    "lane": victim,
                    "attempt": attempt,
                    "mutation": label,
                }
            )
        return 1
