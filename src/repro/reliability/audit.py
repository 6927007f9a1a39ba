"""Randomized end-to-end audit of the supervised engines.

``repro-sat audit`` fuzzes the whole reliability stack: each round
draws a random engine (batch, portfolio, or the checkpoint subsystem),
a random fault, and a random victim worker, then solves instances whose
ground-truth status is known by construction (planted k-SAT and
N-queens are SAT; pigeonhole and odd-cycle coloring are UNSAT by
counting arguments).  The engine runs with retries and full
verification, and the round passes only when every answer is
**definite**, **correct**, and **verified** — a model check for SAT, a
RUP proof check for UNSAT.

Batch/portfolio rounds inject worker faults
(crash/signal/hang/corrupt/stall — or none).  Session rounds fuzz the
incremental layer: a random add/solve/assumption interleaving of each
instance's clauses is streamed through :func:`solve_grouped` (one
:class:`~repro.session.SolverSession` per worker, with learned-clause
retention, the answer cache, and the heartbeat stall watchdog live)
under a random worker fault, and
every step's status must match a fresh one-shot solve of the clauses
accumulated so far — the differential oracle — with the final
full-formula step also checked against ground truth.  Checkpoint
rounds attack
the crash-safety layer itself: a ``truncate``/``bitflip``/
``stale-version`` round plants a damaged checkpoint file and demands a
clean (retry-free) cold start with a correct verified answer; a
``kill-resume`` round SIGKILLs a worker mid-search and demands that the
supervised retry warm-resumes from the last checkpoint and still
produces the correct verified answer.  Arena rounds run the
solver with inprocessing forced on every restart and
crash, signal, or corrupt the victim *after* bounded variable
elimination has rewritten the clause database — or disable the C
kernels entirely (``pure-fallback``) — and demand the same trusted,
RUP-checked answers either way.  Serve rounds boot the whole solver
*service* (asyncio front end over a self-healing worker pool, see
:mod:`repro.server`), plant a fault on one job's first attempt, drive
every instance through one multiplexed client concurrently, and demand
a definite verified answer for each — a refusal or a hung client fails
the round.  Fleet rounds run the *cooperating* portfolio — clause
sharing live, parent spot checks elevated — with the Byzantine
``corrupt_share`` fault as the headline attack: one lane exports
poisoned frames and the fleet must still return correct verified
answers, quarantining the sharer when the evidence crosses the
threshold (see :mod:`repro.parallel.sharing`).

A clean audit is the operational meaning of "trusted results": no
single-worker fault, anywhere in the pipeline, can surface a wrong or
unverified answer.  The quick variant (``--quick``, ~8 rounds) runs in
the default test suite; the full 100-round audit is the release gate.
"""

from __future__ import annotations

import os
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field

from repro.checkpoint.envelope import CHECKPOINT_VERSION, encode_envelope
from repro.checkpoint.io import atomic_write_bytes
from repro.checkpoint.snapshot import capture_snapshot
from repro.generators.graph_coloring import odd_cycle_formula
from repro.generators.pigeonhole import pigeonhole_formula
from repro.generators.queens import queens_formula
from repro.generators.random_ksat import planted_ksat
from repro.parallel.batch import solve_batch
from repro.parallel.portfolio import PortfolioSolver
from repro.reliability.faults import (
    FAULT_CORRUPT,
    FAULT_CORRUPT_SHARE,
    FAULT_CRASH,
    FAULT_HANG,
    FAULT_SIGNAL,
    FAULT_STALL,
    FaultPlan,
    FaultSpec,
)
from repro.reliability.retry import RetryPolicy
from repro.solver.config import VERIFY_FULL, config_by_name
from repro.solver.result import SolveStatus
from repro.solver.solver import Solver

#: Fault menu per round; ``None`` keeps a healthy-path control in the mix.
_FAULT_MENU = (
    None,
    FAULT_CRASH,
    FAULT_SIGNAL,
    FAULT_HANG,
    FAULT_CORRUPT,
    FAULT_STALL,
)
#: Checkpoint-subsystem fault menu (see the module docstring).
_CHECKPOINT_MENU = ("truncate", "bitflip", "stale-version", "kill-resume")
#: Session-round fault menu: the grouped engine now runs a heartbeat
#: stall watchdog (``stall_seconds``), so hang/stall are detected and
#: retried promptly instead of burning the per-group timeout backstop.
_SESSION_FAULT_MENU = (
    None,
    FAULT_CRASH,
    FAULT_SIGNAL,
    FAULT_CORRUPT,
    FAULT_HANG,
    FAULT_STALL,
)
#: Sleep given to hang/stall faults — far past the watchdog window, so
#: only the supervisor (never patience) ends these workers.
_FAULT_SLEEP = 30.0
#: kill-resume rounds SIGKILL the worker once it has paid this many
#: conflicts; the checkpoint cadence below guarantees a resume point
#: exists well before the kill.
_KILL_AFTER_CONFLICTS = 300
_KILL_CHECKPOINT_INTERVAL = 100
#: Arena-engine fault menu: a healthy control, a pure-Python
#: kernel-fallback round, mid-search crash/signal (fired *after* the
#: first inprocessing pass has rewritten the clause database), and
#: result corruption.  Hang/stall add nothing engine-specific here.
_ARENA_MENU = (None, "pure-fallback", FAULT_CRASH, FAULT_SIGNAL, FAULT_CORRUPT)
#: Fleet-round fault menu: clause sharing is live, so the Byzantine
#: ``corrupt_share`` poisoner is the headline attack and gets double
#: weight; crash and result corruption keep the classic faults in play.
_FLEET_MENU = (
    None,
    FAULT_CORRUPT_SHARE,
    FAULT_CORRUPT_SHARE,
    FAULT_CRASH,
    FAULT_CORRUPT,
)
#: Every engine a round can draw; also the vocabulary of the
#: ``engines`` filter of :func:`run_audit` (CLI ``--engine``).
AUDIT_ENGINES = (
    "batch",
    "portfolio",
    "checkpoint",
    "session",
    "arena",
    "serve",
    "fleet",
)
#: Conflicts the arena victim pays before a mid-search fault fires —
#: past the first restart under ``inprocess_interval=1``, so bounded
#: variable elimination and arena compaction have already run when the
#: worker dies.
_ARENA_FAULT_AFTER = 600


@dataclass
class AuditReport:
    """Outcome of :func:`run_audit`."""

    rounds: int = 0
    failures: list[str] = field(default_factory=list)
    retries: int = 0
    wall_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        """True when every round produced correct, verified answers."""
        return not self.failures

    def summary(self) -> str:
        verdict = "PASS" if self.ok else f"FAIL ({len(self.failures)} bad rounds)"
        return (
            f"audit {verdict}: {self.rounds} rounds, "
            f"{self.retries} supervised retries, {self.wall_seconds:.1f}s"
        )


def _instance_pool() -> list[tuple[str, object, SolveStatus]]:
    """Small instances whose status is known by construction."""
    return [
        ("planted-3sat", planted_ksat(20, 85, 3, seed=7), SolveStatus.SAT),
        ("queens-5", queens_formula(5), SolveStatus.SAT),
        ("hole-3", pigeonhole_formula(3), SolveStatus.UNSAT),
        ("odd-cycle-7", odd_cycle_formula(7), SolveStatus.UNSAT),
    ]


def _check_answer(name, expected, result) -> str | None:
    """Return a defect description, or None when the answer is trusted."""
    if result.status is not expected:
        return (
            f"{name}: expected {expected.name}, got {result.status.name}"
            f" (limit_reason={result.limit_reason!r})"
        )
    if result.verified is None:
        return f"{name}: definite answer left unverified"
    return None


def _plant_damaged_checkpoint(path, formula, corruption, rng) -> None:
    """Write a deliberately unusable checkpoint for ``formula`` at ``path``.

    ``stale-version`` writes an intact envelope from a future format
    version; ``truncate`` cuts a genuine checkpoint short; ``bitflip``
    flips one random bit (always caught by a CRC — of the header or of
    the payload, depending on where it lands).
    """
    snapshot = capture_snapshot(Solver(formula, config_by_name("berkmin")))
    if corruption == "stale-version":
        blob = encode_envelope(snapshot.to_payload(), version=CHECKPOINT_VERSION + 1)
    else:
        blob = encode_envelope(snapshot.to_payload())
        if corruption == "truncate":
            blob = blob[: rng.randrange(1, len(blob))]
        else:  # bitflip
            position = rng.randrange(len(blob))
            flipped = blob[position] ^ (1 << rng.randrange(8))
            blob = blob[:position] + bytes([flipped]) + blob[position + 1 :]
    atomic_write_bytes(path, blob)


def _checkpoint_round(pool, corruption, policy, stall_seconds, rng, report, defects):
    """One audit round against the checkpoint subsystem; returns the name."""
    workdir = tempfile.mkdtemp(prefix="repro-audit-ck-")
    try:
        if corruption == "kill-resume":
            # A pinned hard instance (hole-6, ~700 conflicts) so the
            # mid-search SIGKILL genuinely lands mid-search, past several
            # checkpoint writes.
            name, formula, expected = "hole-6", pigeonhole_formula(6), SolveStatus.UNSAT
            plan = FaultPlan(
                (
                    FaultSpec(
                        FAULT_SIGNAL,
                        worker=0,
                        attempt=0,
                        after_conflicts=_KILL_AFTER_CONFLICTS,
                    ),
                )
            )
            batch = solve_batch(
                [formula],
                jobs=1,
                retry=policy,
                verification=VERIFY_FULL,
                stall_seconds=stall_seconds,
                fault_plan=plan,
                checkpoint_dir=workdir,
                checkpoint_interval=_KILL_CHECKPOINT_INTERVAL,
            )
            result = batch[0]
            report.retries += batch.retries
            defect = _check_answer(name, expected, result)
            if defect is not None:
                defects.append(defect)
            elif batch.retries < 1:
                defects.append(f"{name}: kill-resume round performed no retry")
            elif not any(
                record.resumed_from_conflicts
                for record in (result.attempts or [])
            ):
                defects.append(
                    f"{name}: relaunch did not warm-resume from a checkpoint"
                )
        else:
            name, formula, expected = rng.choice(pool)
            _plant_damaged_checkpoint(
                os.path.join(workdir, "instance-0000.ckpt"), formula, corruption, rng
            )
            batch = solve_batch(
                [formula],
                jobs=1,
                retry=policy,
                verification=VERIFY_FULL,
                stall_seconds=stall_seconds,
                checkpoint_dir=workdir,
            )
            result = batch[0]
            report.retries += batch.retries
            defect = _check_answer(name, expected, result)
            if defect is not None:
                defects.append(defect)
            elif batch.retries:
                # A damaged file must degrade to a cold start inside the
                # same attempt — never look like a crashed worker.
                defects.append(
                    f"{name}: damaged checkpoint burned {batch.retries} "
                    "retries instead of degrading to a cold start"
                )
        return name
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _arena_round(pool, mode, policy, stall_seconds, rng, report, defects) -> int:
    """One audit round against the solver with inprocessing live.

    Solves a pinned hard instance (hole-6) plus a random pool instance
    under the ``berkmin`` configuration with ``inprocess_interval=1``, so
    bounded variable elimination and arena compaction genuinely run
    during the search.  Mid-search crash/signal faults land after the
    first inprocessing pass; the supervised retry must still produce
    correct, fully verified answers — in particular the UNSAT proof must
    RUP-check across the inprocessing seam.  A ``pure-fallback`` round
    disables the C kernels via ``REPRO_SAT_PURE`` and demands the same
    trusted answers from the pure-Python paths.  In every variant the
    engine must degrade or retry, never wedge.
    """
    picks = [("hole-6", pigeonhole_formula(6), SolveStatus.UNSAT), rng.choice(pool)]
    rng.shuffle(picks)
    victim = next(i for i, (name, _, _) in enumerate(picks) if name == "hole-6")
    if mode in (FAULT_CRASH, FAULT_SIGNAL):
        plan = FaultPlan(
            (
                FaultSpec(
                    mode,
                    worker=victim,
                    attempt=0,
                    after_conflicts=_ARENA_FAULT_AFTER,
                ),
            )
        )
    elif mode == FAULT_CORRUPT:
        plan = FaultPlan.single(mode, worker=victim, seconds=_FAULT_SLEEP)
    else:
        plan = None
    config = config_by_name(
        "berkmin", seed=rng.randrange(1 << 16), inprocess_interval=1
    )
    pure_before = os.environ.get("REPRO_SAT_PURE")
    if mode == "pure-fallback":
        os.environ["REPRO_SAT_PURE"] = "1"
    try:
        batch = solve_batch(
            [formula for _, formula, _ in picks],
            jobs=2,
            config=config,
            retry=policy,
            verification=VERIFY_FULL,
            stall_seconds=stall_seconds,
            fault_plan=plan,
        )
    finally:
        if mode == "pure-fallback":
            if pure_before is None:
                os.environ.pop("REPRO_SAT_PURE", None)
            else:
                os.environ["REPRO_SAT_PURE"] = pure_before
    report.retries += batch.retries
    for (name, _, expected), result in zip(picks, batch.results):
        defect = _check_answer(name, expected, result)
        if defect is not None:
            defects.append(defect)
    return victim


def _session_stream(formula, rng, num_solves: int) -> list[tuple[list, tuple]]:
    """A random incremental ``(clauses, assumptions)`` stream over ``formula``.

    The clause list is shuffled and split at random cut points into
    ``num_solves`` chunks; every step but the last solves under 0-2
    random assumption literals over variables already added, and the
    last step always carries the rest of the formula with no
    assumptions — so its expected status is the instance's ground
    truth, whatever the earlier interleaving did.
    """
    clauses = [list(clause) for clause in formula.clauses]
    rng.shuffle(clauses)
    num_solves = max(1, min(num_solves, len(clauses)))
    cuts = sorted(rng.sample(range(1, len(clauses)), num_solves - 1))
    chunks = [
        clauses[start:stop]
        for start, stop in zip([0, *cuts], [*cuts, len(clauses)])
    ]
    steps: list[tuple[list, tuple]] = []
    seen: set[int] = set()
    for index, chunk in enumerate(chunks):
        for clause in chunk:
            seen.update(abs(literal) for literal in clause)
        if index == len(chunks) - 1:
            assumptions: tuple = ()
        else:
            count = min(rng.randrange(3), len(seen))
            assumptions = tuple(
                variable if rng.random() < 0.5 else -variable
                for variable in rng.sample(sorted(seen), count)
            )
        steps.append((chunk, assumptions))
    return steps


def _session_round(pool, mode, policy, stall_seconds, rng, report, defects) -> int:
    """One session-engine audit round; returns the victim group index.

    Streams two random interleavings through :func:`solve_grouped`
    (sessions in workers, fault on the victim group's first attempt),
    then replays every step against a fresh one-shot
    :func:`~repro.solver.solver.solve_formula` of the clauses
    accumulated up to that step — session answers and one-shot answers
    must agree everywhere, and the final full-formula answer must match
    ground truth and carry a verification tag.
    """
    from repro.cnf.formula import CnfFormula
    from repro.parallel.groups import solve_grouped
    from repro.solver.solver import solve_formula

    picks = rng.sample(pool, 2)
    streams = [
        _session_stream(formula, rng, num_solves=2 + rng.randrange(3))
        for _, formula, _ in picks
    ]
    victim = rng.randrange(len(streams))
    plan = (
        FaultPlan.single(mode, worker=victim, seconds=_FAULT_SLEEP)
        if mode is not None
        else None
    )
    grouped = solve_grouped(
        streams,
        jobs=len(streams),
        config=config_by_name("berkmin", seed=rng.randrange(1 << 16)),
        retry=policy,
        verification=VERIFY_FULL,
        fault_plan=plan,
        stall_seconds=stall_seconds,
    )
    report.retries += grouped.retries
    for (name, _, expected), steps, outcome in zip(picks, streams, grouped.groups):
        if outcome.degraded:
            defects.append(f"{name}: group degraded ({outcome.failure})")
            continue
        accumulated: list[list[int]] = []
        for step_index, ((chunk, assumptions), result) in enumerate(
            zip(steps, outcome.results)
        ):
            accumulated.extend(chunk)
            reference = solve_formula(
                CnfFormula([list(clause) for clause in accumulated]),
                assumptions=assumptions,
            )
            if result.status is not reference.status:
                defects.append(
                    f"{name} step {step_index}: session answered "
                    f"{result.status.name}, one-shot says {reference.status.name}"
                )
        defect = _check_answer(name, expected, outcome.results[-1])
        if defect is not None:
            defects.append(defect)
    return victim


def _serve_round(pool, mode, policy, stall_seconds, rng, report, defects) -> int:
    """One audit round against the solver service, end to end.

    Boots an in-process :class:`~repro.server.SolverServer` (asyncio
    front end, 2-worker pool, full verification) with a fault planted on
    one job's first attempt, then drives every pool instance through one
    :class:`~repro.server.AsyncSolverClient` concurrently.  The
    self-healing pool must absorb the fault: every reply must be a
    definite, correct, *verified* answer — a refusal, an UNKNOWN, or a
    hung client is a defect.  The whole round is bounded by an outer
    ``wait_for``, so a wedged server fails the round instead of the
    audit.
    """
    import asyncio

    from repro.server import AsyncSolverClient, SolverServer, SolverService

    picks = list(pool)
    rng.shuffle(picks)
    victim = rng.randrange(len(picks))
    plan = (
        FaultPlan.single(mode, worker=victim, seconds=_FAULT_SLEEP)
        if mode is not None
        else None
    )
    seed = rng.randrange(1 << 16)

    async def drive():
        service = SolverService(
            pool_size=2,
            config=config_by_name("berkmin", seed=seed),
            retry=policy,
            verification=VERIFY_FULL,
            stall_seconds=stall_seconds,
            fault_plan=plan,
        )
        server = SolverServer(service, port=0)
        await server.start()
        try:
            async with AsyncSolverClient(port=server.port) as client:
                replies = await asyncio.wait_for(
                    asyncio.gather(
                        *(
                            client.solve(formula.clauses, timeout=25.0)
                            for _, formula, _ in picks
                        )
                    ),
                    timeout=90.0,
                )
        finally:
            await server.shutdown()
        return replies, service.pool.retries

    replies, retries = asyncio.run(drive())
    report.retries += retries
    for (name, _formula, expected), reply in zip(picks, replies):
        kind = reply.get("kind")
        if kind != "result":
            detail = reply.get("reason") or reply.get("error")
            defects.append(f"{name}: service refused ({kind}: {detail})")
        elif reply.get("status") != expected.value:
            defects.append(
                f"{name}: expected {expected.value}, got {reply.get('status')}"
                f" (limit_reason={reply.get('limit_reason')!r})"
            )
        elif reply.get("verified") is None:
            defects.append(f"{name}: definite answer left unverified")
    return victim


def _fleet_round(pool, mode, policy, stall_seconds, rng, report, defects) -> int:
    """One audit round against the *cooperating* fleet (sharing live).

    Runs the two-lane portfolio with the clause bus enabled (elevated
    ``share_verify_fraction`` so the parent's spot checks are
    exercised).  The headline fault is ``corrupt_share``: the victim
    lane exports poisoned frames — flipped literals with valid CRCs,
    bit-flipped bytes, out-of-range variables — and the fleet must still
    return a definite, correct, verified answer, because every import is
    re-validated and RUP-gated and a sufficiently noisy sharer is
    quarantined.  Instances are drawn from a slightly larger pool than
    the classic rounds so lanes actually learn glue clauses to share.
    """
    picks = list(pool) + [
        (
            "planted-3sat-40",
            planted_ksat(40, 168, 3, seed=rng.randrange(1 << 16)),
            SolveStatus.SAT,
        ),
        ("hole-4", pigeonhole_formula(4), SolveStatus.UNSAT),
    ]
    name, formula, expected = picks[rng.randrange(len(picks))]
    victim = rng.randrange(2)
    plan = (
        FaultPlan.single(mode, worker=victim, seconds=_FAULT_SLEEP)
        if mode is not None
        else None
    )
    portfolio = PortfolioSolver(
        [
            config_by_name("berkmin", seed=rng.randrange(1 << 16)),
            config_by_name("chaff", seed=rng.randrange(1 << 16)),
        ],
        jobs=2,
        retry=policy,
        verification=VERIFY_FULL,
        stall_seconds=stall_seconds,
        fault_plan=plan,
        share=True,
        share_verify_fraction=0.25,
    )
    result = portfolio.solve(formula)
    report.retries += result.stats.worker_retries
    defect = _check_answer(name, expected, result)
    if defect is not None:
        defects.append(defect)
    return victim


def run_audit(
    rounds: int = 100,
    *,
    seed: int = 0,
    jobs: int = 2,
    stall_seconds: float = 1.0,
    engines=None,
    log=None,
    trace=None,
) -> AuditReport:
    """Fuzz the supervised engines — batch, portfolio, the checkpoint
    subsystem, the grouped incremental sessions, inprocessing-heavy
    solves, and the solver service — under random fault plans; verify every answer.

    Each round injects at most one fault (possibly none) into one
    worker of one engine and demands definite, correct, verified
    answers for instances of known status.  Deterministic for a given
    ``seed``.  ``engines`` restricts the rounds to a subset of
    :data:`AUDIT_ENGINES` (e.g. ``["fleet"]`` for a sharing-focused
    audit); ``None`` keeps the full menu.  ``log`` (e.g. ``print``)
    receives one line per round.
    ``trace`` (a :class:`~repro.observability.TraceSink`, e.g. the
    live :class:`~repro.observability.FleetDashboard`) receives the
    audit as a fleet with one lane per round: ``fleet_start``, an
    ``audit_round_start`` and an ``audit_round`` event per round, and
    ``fleet_end``.
    """
    rng = random.Random(seed)
    pool = _instance_pool()
    policy = RetryPolicy(max_attempts=3, backoff=0.02)
    report = AuditReport()
    started = time.perf_counter()
    menu = tuple(engines) if engines else AUDIT_ENGINES
    for engine in menu:
        if engine not in AUDIT_ENGINES:
            raise ValueError(
                f"unknown audit engine {engine!r}; choose from {AUDIT_ENGINES}"
            )
    if trace is not None:
        trace.emit({"type": "fleet_start", "count": rounds})

    for round_index in range(rounds):
        engine = rng.choice(menu)
        if engine == "checkpoint":
            mode = rng.choice(_CHECKPOINT_MENU)
        elif engine == "session":
            mode = rng.choice(_SESSION_FAULT_MENU)
        elif engine == "arena":
            mode = rng.choice(_ARENA_MENU)
        elif engine == "fleet":
            mode = rng.choice(_FLEET_MENU)
        else:
            mode = rng.choice(_FAULT_MENU)
        defects: list[str] = []
        retries_before = report.retries
        label = mode or "healthy"
        if trace is not None:
            trace.emit(
                {
                    "type": "audit_round_start",
                    "round": round_index,
                    "engine": engine,
                    "fault": label,
                }
            )

        if engine == "checkpoint":
            victim = 0
            _checkpoint_round(
                pool, mode, policy, stall_seconds, rng, report, defects
            )
        elif engine == "session":
            victim = _session_round(
                pool, mode, policy, stall_seconds, rng, report, defects
            )
        elif engine == "serve":
            victim = _serve_round(
                pool, mode, policy, stall_seconds, rng, report, defects
            )
        elif engine == "arena":
            victim = _arena_round(
                pool, mode, policy, stall_seconds, rng, report, defects
            )
        elif engine == "fleet":
            victim = _fleet_round(
                pool, mode, policy, stall_seconds, rng, report, defects
            )
        elif engine == "batch":
            picks = rng.sample(pool, 2)
            victim = rng.randrange(len(picks))
            plan = (
                FaultPlan.single(mode, worker=victim, seconds=_FAULT_SLEEP)
                if mode is not None
                else None
            )
            batch = solve_batch(
                [formula for _, formula, _ in picks],
                jobs=jobs,
                retry=policy,
                verification=VERIFY_FULL,
                stall_seconds=stall_seconds,
                fault_plan=plan,
            )
            report.retries += batch.retries
            for (name, _, expected), result in zip(picks, batch.results):
                defect = _check_answer(name, expected, result)
                if defect is not None:
                    defects.append(defect)
        else:
            name, formula, expected = rng.choice(pool)
            victim = rng.randrange(2)
            plan = (
                FaultPlan.single(mode, worker=victim, seconds=_FAULT_SLEEP)
                if mode is not None
                else None
            )
            portfolio = PortfolioSolver(
                [
                    config_by_name("berkmin", seed=rng.randrange(1 << 16)),
                    config_by_name("chaff", seed=rng.randrange(1 << 16)),
                ],
                jobs=jobs,
                retry=policy,
                verification=VERIFY_FULL,
                stall_seconds=stall_seconds,
                fault_plan=plan,
            )
            result = portfolio.solve(formula)
            report.retries += result.stats.worker_retries
            defect = _check_answer(name, expected, result)
            if defect is not None:
                defects.append(defect)

        report.rounds += 1
        if defects:
            for defect in defects:
                report.failures.append(
                    f"round {round_index} [{engine}/{label} -> worker {victim}]: {defect}"
                )
        if trace is not None:
            event = {
                "type": "audit_round",
                "round": round_index,
                "engine": engine,
                "fault": label,
                "ok": not defects,
                "retries": report.retries - retries_before,
            }
            if defects:
                event["detail"] = "; ".join(defects)
            trace.emit(event)
        if log is not None:
            status = "ok" if not defects else "FAIL"
            log(
                f"round {round_index + 1}/{rounds}: {engine:9s} "
                f"fault={label:8s} worker={victim} {status}"
            )

    report.wall_seconds = time.perf_counter() - started
    if trace is not None:
        trace.emit({"type": "fleet_end", "summary": report.summary()})
    return report
