"""The BCP performance harness behind ``repro-sat bench``.

Runs a pinned, seeded suite of generator instances (pigeonhole, random
3-SAT at the phase-transition ratio, parity/XOR systems, n-queens) and
reports wall time plus propagations/conflicts/decisions per second for
each.  Every UNSAT instance is solved once more at
``verification="full"``, and the time its DRUP proof check takes is
reported next to the search time.

The harness doubles as a correctness gate: every SAT model is verified
(``solve()`` raises on a bad model), every UNSAT proof must
pass the checker, and the agreement stage
solves two small pinned instances under every paper configuration and
checks each status against the independent DPLL baseline
(:mod:`repro.baselines.dpll`); a mismatch or a rejected proof is a
solver bug, reported as :class:`BenchAgreementError`.

``repro-sat bench --out BENCH_N.json`` writes the JSON report at the
repo root; see docs/BENCHMARKS.md for the schema and how to compare
reports across PRs.
"""

from __future__ import annotations

import cProfile
import io
import json
import pstats
import time
from collections.abc import Callable
from dataclasses import dataclass

from repro.baselines.dpll import DpllSolver
from repro.cnf.formula import CnfFormula
from repro.generators import (
    pigeonhole_formula,
    planted_ksat,
    queens_formula,
    random_ksat,
    random_xor_system,
    xor_system_formula,
)
from repro.reliability.verify import VerificationError, verify_result
from repro.solver.config import CONFIG_FACTORIES, config_by_name
from repro.solver.solver import Solver

#: Schema version of the BENCH_*.json reports.
SCHEMA = "bcp-bench/5"

#: Schema version of the session-bench reports (``bench --session``).
SESSION_SCHEMA = "session-bench/2"

#: Acceptance floor for the incremental engine on related-query streams.
SESSION_SPEEDUP_TARGET = 2.0

#: Schema version of the portfolio sharing reports (``bench --portfolio``).
PORTFOLIO_SCHEMA = "portfolio-bench/1"

#: Acceptance floor for the clause-sharing fleet vs the isolated
#: portfolio, aggregate wall-clock over the multi-lane suite.
SHARING_SPEEDUP_TARGET = 1.3


class BenchAgreementError(AssertionError):
    """An answer disagreed with its oracle — a solver bug, not a perf issue."""


def _git_sha() -> str | None:
    """The repo's HEAD commit, or None outside a git checkout.

    Recorded in every report header so a ``BENCH_*.json`` can always be
    tied back to the exact code that produced its numbers.
    """
    import os
    import subprocess

    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if completed.returncode != 0:
        return None
    return completed.stdout.strip() or None


@dataclass(frozen=True)
class BenchInstance:
    """One pinned suite entry: a named, seeded formula factory."""

    name: str
    family: str
    build: Callable[[], CnfFormula]


def _parity(num_variables: int, num_equations: int, seed: int, planted: bool) -> CnfFormula:
    return xor_system_formula(
        random_xor_system(num_variables, num_equations, 3, seed=seed, planted=planted)
    )


#: The pinned suite, by scale.  Every entry is deterministic: fixed
#: construction or fixed seed, so counts are reproducible run to run.
#: Pigeonhole and queens instances are binary-heavy (pairwise exclusion
#: clauses); random 3-SAT instances sit at the m/n ~ 4.26 phase
#: transition and exercise the long-clause path.
_SUITES: dict[str, tuple[BenchInstance, ...]] = {
    "quick": (
        BenchInstance("hole5", "pigeonhole", lambda: pigeonhole_formula(5)),
        BenchInstance("hole6", "pigeonhole", lambda: pigeonhole_formula(6)),
        BenchInstance("queens8", "queens", lambda: queens_formula(8)),
        BenchInstance("parity16_sat", "parity", lambda: _parity(16, 16, 7, True)),
        BenchInstance("ksat60", "random3sat", lambda: random_ksat(60, 256, 3, seed=7)),
    ),
    "default": (
        BenchInstance("hole6", "pigeonhole", lambda: pigeonhole_formula(6)),
        BenchInstance("hole7", "pigeonhole", lambda: pigeonhole_formula(7)),
        BenchInstance("hole8", "pigeonhole", lambda: pigeonhole_formula(8)),
        BenchInstance("queens8", "queens", lambda: queens_formula(8)),
        BenchInstance("queens12", "queens", lambda: queens_formula(12)),
        BenchInstance("parity24_sat", "parity", lambda: _parity(24, 24, 11, True)),
        BenchInstance("parity20_unsat", "parity", lambda: _parity(20, 40, 13, False)),
        BenchInstance("ksat80", "random3sat", lambda: random_ksat(80, 341, 3, seed=3)),
        BenchInstance("ksat100", "random3sat", lambda: random_ksat(100, 426, 3, seed=5)),
    ),
}
_SUITES["full"] = _SUITES["default"] + (
    BenchInstance("queens14", "queens", lambda: queens_formula(14)),
    BenchInstance("parity28_sat", "parity", lambda: _parity(28, 28, 17, True)),
    BenchInstance("ksat120", "random3sat", lambda: random_ksat(120, 511, 3, seed=9)),
)

#: Small instances every paper configuration is cross-checked on.
_AGREEMENT_INSTANCES = (
    BenchInstance("hole5", "pigeonhole", lambda: pigeonhole_formula(5)),
    BenchInstance("ksat40", "random3sat", lambda: random_ksat(40, 170, 3, seed=11)),
)


def bench_suite(scale: str = "default") -> tuple[BenchInstance, ...]:
    """The pinned instances for ``scale`` ('quick', 'default' or 'full')."""
    try:
        return _SUITES[scale]
    except KeyError:
        known = ", ".join(sorted(_SUITES))
        raise ValueError(f"unknown bench scale {scale!r}; known: {known}") from None


def _solve_timed(formula: CnfFormula, config_name: str) -> tuple:
    """Fresh solver, one timed solve with model verification on."""
    solver = Solver(formula, config=config_by_name(config_name))
    started = time.perf_counter()
    result = solver.solve()
    return result, time.perf_counter() - started


def _check_timed(instance: BenchInstance, formula: CnfFormula, config_name: str) -> float:
    """Solve once more at ``verification="full"``; time the proof check."""
    config = config_by_name(config_name, verification="full")
    result = Solver(formula, config=config).solve()
    started = time.perf_counter()
    try:
        verify_result(formula, result, "full")
    except VerificationError as error:
        raise BenchAgreementError(f"{instance.name}: {error}") from error
    return time.perf_counter() - started


def run_instance(
    instance: BenchInstance,
    config_name: str = "berkmin",
    repeats: int = 2,
) -> dict:
    """Bench one instance: search counts and per-second rates.

    The instance runs ``repeats`` times on a fresh solver; the minimum
    wall time is reported (timing noise only ever inflates a
    measurement).  Counts are deterministic across repeats, so the last
    run's statistics stand for all of them.  An UNSAT instance also
    reports ``check_seconds``, the proof check of one extra solve, and
    ``check_per_search``, its ratio to the reported search time; both
    are None for a SAT instance.
    """
    formula = instance.build()
    best_wall = None
    result = None
    for _ in range(max(1, repeats)):
        result, wall = _solve_timed(formula, config_name)
        if best_wall is None or wall < best_wall:
            best_wall = wall
    stats = result.stats
    check = _check_timed(instance, formula, config_name) if result.is_unsat else None
    wall_seconds = round(best_wall, 6)
    check_seconds = None if check is None else round(check, 6)
    return {
        "name": instance.name,
        "family": instance.family,
        "status": result.status.value,
        "conflicts": stats.conflicts,
        "decisions": stats.decisions,
        "propagations": stats.propagations,
        "wall_seconds": wall_seconds,
        "propagations_per_second": round(stats.propagations / best_wall, 1),
        "conflicts_per_second": round(stats.conflicts / best_wall, 1),
        "decisions_per_second": round(stats.decisions / best_wall, 1),
        "check_seconds": check_seconds,
        # The ratio of the two times as reported, so it recomputes exactly
        # from the row.
        "check_per_search": (
            None if check is None else round(check_seconds / wall_seconds, 2)
        ),
    }


def check_config_agreement(config_names=None) -> dict:
    """Solve small pinned instances under every paper configuration and
    check each status against the independent DPLL baseline."""
    names = sorted(config_names or CONFIG_FACTORIES)
    checked = 0
    for instance in _AGREEMENT_INSTANCES:
        formula = instance.build()
        expected = "SAT" if DpllSolver(formula).solve().satisfiable else "UNSAT"
        for name in names:
            result, _ = _solve_timed(formula, name)
            if result.status.value != expected:
                raise BenchAgreementError(
                    f"config {name!r} on {instance.name}: "
                    f"solver says {result.status.value}, DPLL says {expected}"
                )
            checked += 1
    return {
        "configs_checked": names,
        "instances": [instance.name for instance in _AGREEMENT_INSTANCES],
        "pairs_checked": checked,
        "statuses_match_oracle": True,  # every status equals DPLL's
        "models_verified": True,  # solve() raises on a bad model
    }


def run_bcp_bench(
    scale: str = "default",
    config_name: str = "berkmin",
    repeats: int = 2,
    agreement: bool = True,
) -> dict:
    """Run the full harness; return the JSON-ready report dict."""
    instances = [
        run_instance(instance, config_name=config_name, repeats=repeats)
        for instance in bench_suite(scale)
    ]
    wall = sum(row["wall_seconds"] for row in instances)
    props = sum(row["propagations"] for row in instances)
    report = {
        "schema": SCHEMA,
        "scale": scale,
        "config": config_name,
        "repeats": repeats,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "git_sha": _git_sha(),
        "instances": instances,
        "aggregate": {
            "wall_seconds": round(wall, 6),
            "propagations": props,
            "propagations_per_second": round(props / max(wall, 1e-9), 1),
        },
    }
    if agreement:
        report["agreement"] = check_config_agreement()
    return report


def write_report(report: dict, path: str) -> None:
    """Write the report as indented JSON (trailing newline included).

    The write is atomic (tmp + fsync + ``os.replace``): a crash mid-write
    leaves the previous report intact, never a truncated JSON file.
    """
    from repro.checkpoint.io import atomic_write_json

    atomic_write_json(path, report)


def format_table(report: dict) -> str:
    """Human-readable summary of a report (the CLI's stdout)."""
    lines = [
        f"BCP bench — scale={report['scale']} config={report['config']} "
        f"repeats={report['repeats']}",
        f"{'instance':<16} {'status':<7} {'props':>9} {'wall s':>8} "
        f"{'props/s':>10} {'confl/s':>9} {'dec/s':>9} {'check s':>8} {'chk/srch':>8}",
    ]
    for row in report["instances"]:
        check = row.get("check_seconds")
        lines.append(
            f"{row['name']:<16} {row['status']:<7} {row['propagations']:>9} "
            f"{row['wall_seconds']:>8.3f} "
            f"{row['propagations_per_second']:>10,.0f} "
            f"{row['conflicts_per_second']:>9,.0f} "
            f"{row['decisions_per_second']:>9,.0f} "
            + (f"{'-':>8} {'-':>8}" if check is None
               else f"{check:>8.3f} {row['check_per_search']:>8.2f}")
        )
    aggregate = report["aggregate"]
    lines.append(
        f"aggregate: {aggregate['propagations_per_second']:,.0f} props/s "
        f"over {aggregate['wall_seconds']:.3f}s"
    )
    if "agreement" in report:
        agreement = report["agreement"]
        lines.append(
            f"agreement: {agreement['pairs_checked']} config x instance pairs, "
            "every status matches the DPLL baseline"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Session bench: incremental BMC depth sweeps vs fresh one-shot solves
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class SessionBenchCase:
    """One pinned BMC depth sweep: a counter design checked at every bound.

    ``with_enable`` adds the adversarial enable input, turning each query
    into a real search problem (the solver must find the enable sequence)
    so that learned-clause carry-over between depths has work to do.
    """

    name: str
    bits: int
    target: int
    max_depth: int
    with_enable: bool = True


#: Pinned depth-sweep suites.  Deterministic by construction (the counter
#: designs are fixed and the solver is seeded through its config), so
#: statuses and served-by classifications reproduce run to run.
_SESSION_SUITES: dict[str, tuple[SessionBenchCase, ...]] = {
    "quick": (
        SessionBenchCase("counter4_t9_en", 4, 9, 11),
        SessionBenchCase("counter4_t13", 4, 13, 15, with_enable=False),
    ),
    "default": (
        SessionBenchCase("counter4_t9_en", 4, 9, 11),
        SessionBenchCase("counter5_t14_en", 5, 14, 16),
        SessionBenchCase("counter4_t13", 4, 13, 15, with_enable=False),
        SessionBenchCase("counter6_t40", 6, 40, 44, with_enable=False),
    ),
}
_SESSION_SUITES["full"] = _SESSION_SUITES["default"] + (
    SessionBenchCase("counter5_t20_en", 5, 20, 23),
    SessionBenchCase("counter7_t70", 7, 70, 75, with_enable=False),
)


def session_bench_suite(scale: str = "default") -> tuple[SessionBenchCase, ...]:
    """The pinned depth sweeps for ``scale`` ('quick', 'default' or 'full')."""
    try:
        return _SESSION_SUITES[scale]
    except KeyError:
        known = ", ".join(sorted(_SESSION_SUITES))
        raise ValueError(f"unknown bench scale {scale!r}; known: {known}") from None


def _bmc_steps(circuit, max_depth: int) -> list[tuple[list[list[int]], int]]:
    """Incremental unrolling of ``circuit`` as ``(new_clauses, activation)`` steps.

    Step ``d`` carries exactly the clauses :func:`~repro.circuits.sequential.unroll`
    would add on top of bound ``d - 1`` — frame ``d``'s Tseitin encoding and
    the register chaining — except that the "bad somewhere within the
    bound" target is guarded by a fresh activation literal instead of
    asserted outright.  Solving under the assumption ``activation`` then
    asks the bound-``d`` BMC query; earlier guards stay free, so one
    growing formula answers every bound without retraction.
    """
    from repro.circuits.tseitin import encode_circuit

    shared = CnfFormula(comment=f"incremental BMC of {circuit.name}")
    frames: list[dict[str, int]] = []
    steps: list[tuple[list[list[int]], int]] = []
    for depth in range(max_depth + 1):
        mark = len(shared.clauses)
        encoding = encode_circuit(circuit.logic, shared, prefix=f"t{depth}.")
        frames.append(
            {
                net: encoding.variables[f"t{depth}.{net}"]
                for net in circuit.logic.nets()
            }
        )
        if depth == 0:
            for register in circuit.registers:
                literal = frames[0][register]
                shared.add_clause(
                    [literal if circuit.initial[register] else -literal]
                )
        else:
            for register in circuit.registers:
                source = frames[depth - 1][circuit.next_state[register]]
                target = frames[depth][register]
                shared.add_clause([-source, target])
                shared.add_clause([source, -target])
        activation = shared.new_variable()
        shared.add_clause(
            [-activation] + [frames[i][circuit.bad] for i in range(depth + 1)]
        )
        steps.append(([list(clause) for clause in shared.clauses[mark:]], activation))
    return steps


def run_session_case(
    case: SessionBenchCase,
    config_name: str = "berkmin",
    rounds: int = 2,
) -> dict:
    """Bench one depth sweep: incremental session vs fresh one-shot solves.

    The query stream visits every bound ``0..max_depth`` once per round.
    The session arm streams all rounds through :class:`SolverSession`
    instances sharing one :class:`AnswerCache` (round 1 pays search with
    learned-clause carry-over between depths; later rounds are answered
    from the cache without search).  The one-shot arm solves a fresh
    :func:`~repro.circuits.sequential.unroll` formula for every query.
    Raises :class:`BenchAgreementError` when any query's status diverges
    between the arms or from the design's ground truth (SAT iff the
    bound reaches the counter's target cycle).
    """
    from repro.circuits.sequential import counter_circuit, unroll
    from repro.session import AnswerCache, SolverSession
    from repro.solver.solver import solve_formula

    if rounds < 1:
        raise ValueError("rounds must be at least 1")
    circuit = counter_circuit(case.bits, case.target, with_enable=case.with_enable)
    steps = _bmc_steps(circuit, case.max_depth)
    depths = range(case.max_depth + 1)
    truth = ["SAT" if depth >= case.target else "UNSAT" for depth in depths]

    # One-shot arm: a fresh solver per query on the standard unrolling.
    # Encoding happens outside the timed region for both arms.
    oneshot_formulas = [unroll(circuit, depth).formula for depth in depths]
    oneshot_wall = 0.0
    oneshot_statuses: list[str] = []
    for round_index in range(rounds):
        for depth in depths:
            started = time.perf_counter()
            result = solve_formula(
                oneshot_formulas[depth], config=config_by_name(config_name)
            )
            oneshot_wall += time.perf_counter() - started
            if round_index == 0:
                oneshot_statuses.append(result.status.value)

    # Session arm: one session per round, all rounds sharing one cache.
    cache = AnswerCache()
    session_wall = 0.0
    session_statuses: list[str] = []
    served = {"search": 0, "cache": 0}
    retained = 0
    for round_index in range(rounds):
        with SolverSession(
            config=config_by_name(config_name), cache=cache
        ) as session:
            for depth in depths:
                new_clauses, activation = steps[depth]
                hits_before = cache.hits
                started = time.perf_counter()
                session.add_clauses(new_clauses)
                result = session.solve(assumptions=[activation])
                session_wall += time.perf_counter() - started
                served["cache" if cache.hits > hits_before else "search"] += 1
                status = result.status.value
                if round_index == 0:
                    session_statuses.append(status)
                if status != truth[depth]:
                    raise BenchAgreementError(
                        f"{case.name} bound {depth} round {round_index}: "
                        f"session says {status}, ground truth {truth[depth]}"
                    )
                if status == "UNSAT" and result.core is not None:
                    if not set(result.core) <= {activation}:
                        raise BenchAgreementError(
                            f"{case.name} bound {depth}: core {result.core} "
                            f"is not a subset of the assumptions"
                        )
            retained += session.solver.stats.retained_clauses

    if oneshot_statuses != truth:
        raise BenchAgreementError(
            f"{case.name}: one-shot statuses {oneshot_statuses} "
            f"diverge from ground truth {truth}"
        )
    if session_statuses != oneshot_statuses:
        raise BenchAgreementError(
            f"{case.name}: session statuses {session_statuses} "
            f"diverge from one-shot statuses {oneshot_statuses}"
        )
    queries = rounds * len(list(depths))
    return {
        "name": case.name,
        "bits": case.bits,
        "target": case.target,
        "max_depth": case.max_depth,
        "with_enable": case.with_enable,
        "queries": queries,
        "statuses": truth,
        "session": {
            "wall_seconds": round(session_wall, 6),
            "served_by_search": served["search"],
            "served_by_cache": served["cache"],
            "retained_clauses": retained,
        },
        "oneshot": {"wall_seconds": round(oneshot_wall, 6)},
        "speedup": round(oneshot_wall / max(session_wall, 1e-9), 3),
    }


def run_session_bench(
    scale: str = "default",
    config_name: str = "berkmin",
    rounds: int = 2,
) -> dict:
    """Run the incremental-session harness; return the JSON-ready report.

    Every query's status is cross-checked against a fresh one-shot solve
    and against the design's simulated ground truth inside
    :func:`run_session_case`, so a report only ever exists for runs where
    the agreement gate passed.
    """
    cases = [
        run_session_case(case, config_name=config_name, rounds=rounds)
        for case in session_bench_suite(scale)
    ]
    session_wall = sum(row["session"]["wall_seconds"] for row in cases)
    oneshot_wall = sum(row["oneshot"]["wall_seconds"] for row in cases)
    speedup = oneshot_wall / max(session_wall, 1e-9)
    return {
        "schema": SESSION_SCHEMA,
        "scale": scale,
        "config": config_name,
        "rounds": rounds,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "git_sha": _git_sha(),
        "cases": cases,
        "agreement": {
            "queries_checked": sum(row["queries"] for row in cases),
            "statuses_match_oneshot": True,
            "statuses_match_ground_truth": True,
            "cores_subset_of_assumptions": True,
        },
        "aggregate": {
            "session_wall_seconds": round(session_wall, 6),
            "oneshot_wall_seconds": round(oneshot_wall, 6),
            "speedup": round(speedup, 3),
            "speedup_target": SESSION_SPEEDUP_TARGET,
            "meets_target": speedup >= SESSION_SPEEDUP_TARGET,
            "served_by_cache": sum(row["session"]["served_by_cache"] for row in cases),
            "served_by_search": sum(row["session"]["served_by_search"] for row in cases),
        },
    }


def format_session_table(report: dict) -> str:
    """Human-readable summary of a session-bench report (the CLI's stdout)."""
    lines = [
        f"session bench — scale={report['scale']} config={report['config']} "
        f"rounds={report['rounds']}",
        f"{'case':<18} {'queries':>7} {'cache':>6} {'session s':>10} "
        f"{'one-shot s':>11} {'speedup':>8}",
    ]
    for row in report["cases"]:
        lines.append(
            f"{row['name']:<18} {row['queries']:>7} "
            f"{row['session']['served_by_cache']:>6} "
            f"{row['session']['wall_seconds']:>10.3f} "
            f"{row['oneshot']['wall_seconds']:>11.3f} "
            f"{row['speedup']:>7.2f}x"
        )
    aggregate = report["aggregate"]
    verdict = "meets" if aggregate["meets_target"] else "BELOW"
    lines.append(
        f"aggregate: session {aggregate['session_wall_seconds']:.3f}s vs "
        f"one-shot {aggregate['oneshot_wall_seconds']:.3f}s -> "
        f"{aggregate['speedup']:.2f}x ({verdict} the "
        f"{aggregate['speedup_target']:.1f}x target)"
    )
    agreement = report["agreement"]
    lines.append(
        f"agreement: {agreement['queries_checked']} queries, statuses match "
        "one-shot solves and simulated ground truth"
    )
    return "\n".join(lines)


# --------------------------------------------------------------------------
# The multi-lane sharing bench (``repro-sat bench --portfolio``).

#: The pinned multi-lane suite: planted 3-SAT instances on which the
#: fleet's fixed lane draw goes badly.  Planted-SAT runtimes are
#: heavy-tailed in the seed, so an isolated portfolio sometimes commits
#: half its CPU to an unlucky trajectory and pays the full price of
#: that draw.  With sharing on, each lane imports the other's
#: glue-tier clauses at its restarts, which prunes the unlucky
#: trajectory's search: the champion needs far fewer conflicts.  On a
#: time-sliced single-CPU host the fleet's wall clock is roughly (live
#: lanes x champion CPU time), so the speedup measured here is reduced
#: total work, not parallel hardware.
_PORTFOLIO_SUITES: dict[str, tuple[BenchInstance, ...]] = {
    "quick": (
        BenchInstance(
            "planted200-1", "planted3sat", lambda: planted_ksat(200, 900, 3, seed=1)
        ),
    ),
    "default": (
        BenchInstance(
            "planted260-8", "planted3sat", lambda: planted_ksat(260, 1170, 3, seed=8)
        ),
        BenchInstance(
            "planted260-17", "planted3sat", lambda: planted_ksat(260, 1170, 3, seed=17)
        ),
        BenchInstance(
            "planted300-2", "planted3sat", lambda: planted_ksat(300, 1350, 3, seed=2)
        ),
        BenchInstance(
            "planted300-5", "planted3sat", lambda: planted_ksat(300, 1350, 3, seed=5)
        ),
    ),
    "full": (
        BenchInstance(
            "planted260-8", "planted3sat", lambda: planted_ksat(260, 1170, 3, seed=8)
        ),
        BenchInstance(
            "planted260-17", "planted3sat", lambda: planted_ksat(260, 1170, 3, seed=17)
        ),
        BenchInstance(
            "planted260-24", "planted3sat", lambda: planted_ksat(260, 1170, 3, seed=24)
        ),
        BenchInstance(
            "planted300-2", "planted3sat", lambda: planted_ksat(300, 1350, 3, seed=2)
        ),
        BenchInstance(
            "planted300-5", "planted3sat", lambda: planted_ksat(300, 1350, 3, seed=5)
        ),
    ),
}

#: Lane configurations of the benched fleet: ``(preset, seed)`` pairs,
#: two seeds of BerkMin, so the lanes differ only in tie-breaking.
_PORTFOLIO_LANES = (("berkmin", 1), ("berkmin", 3))

#: Wall-clock cap per portfolio solve; a hang fails the run loudly.
_PORTFOLIO_MAX_SECONDS = 300.0


def portfolio_bench_suite(scale: str = "default") -> tuple[BenchInstance, ...]:
    """The pinned multi-lane instances for ``scale``."""
    try:
        return _PORTFOLIO_SUITES[scale]
    except KeyError:
        known = ", ".join(sorted(_PORTFOLIO_SUITES))
        raise ValueError(
            f"unknown portfolio bench scale {scale!r}; known: {known}"
        ) from None


def _lane_configs():
    return [
        config_by_name(name, seed=seed) for name, seed in _PORTFOLIO_LANES
    ]


def run_portfolio_instance(instance: BenchInstance, repeats: int = 2) -> dict:
    """A/B one instance: isolated portfolio vs clause-sharing fleet.

    Both arms run ``repeats`` times on fresh fleets with the minimum
    wall time kept, under full winner verification (SAT models checked,
    UNSAT proofs RUP-checked — imported clauses are DRUP-logged, so a
    sharing-arm proof that leaned on an import still checks).  Arms
    disagreeing on the status is a solver bug, not a perf result, and
    raises :class:`BenchAgreementError`.
    """
    from repro.parallel import PortfolioSolver

    formula = instance.build()
    rows: dict[bool, dict] = {}
    statuses: dict[bool, str] = {}
    for share in (False, True):
        best_wall = None
        result = None
        for _ in range(max(1, repeats)):
            portfolio = PortfolioSolver(
                _lane_configs(),
                jobs=len(_PORTFOLIO_LANES),
                verification="full",
                share=share,
            )
            started = time.perf_counter()
            candidate = portfolio.solve(formula, max_seconds=_PORTFOLIO_MAX_SECONDS)
            wall = time.perf_counter() - started
            if candidate.verified is None:
                raise BenchAgreementError(
                    f"{instance.name}: share={share} winner failed "
                    f"verification ({candidate.status.value})"
                )
            if best_wall is None or wall < best_wall:
                best_wall = wall
                result = candidate
        statuses[share] = result.status.value
        stats = result.stats
        row = {
            "wall_seconds": round(best_wall, 6),
            "champion_conflicts": stats.conflicts,
        }
        if share:
            row.update(
                shared_exported=stats.shared_exported,
                shared_imported=stats.shared_imported,
                shared_rejected=stats.shared_rejected,
                lane_restarts=stats.lane_restarts,
            )
        rows[share] = row
    if statuses[False] != statuses[True]:
        raise BenchAgreementError(
            f"{instance.name}: sharing changed the answer — "
            f"isolated {statuses[False]} vs sharing {statuses[True]}"
        )
    return {
        "name": instance.name,
        "family": instance.family,
        "status": statuses[False],
        "isolated": rows[False],
        "sharing": rows[True],
        "speedup": round(
            rows[False]["wall_seconds"] / max(rows[True]["wall_seconds"], 1e-9), 3
        ),
    }


def run_portfolio_bench(scale: str = "default", repeats: int = 2) -> dict:
    """Run the sharing A/B over the multi-lane suite; return the report.

    The aggregate speedup is total isolated wall over total sharing
    wall — per-instance ratios are noisy on a time-sliced host, the
    suite-level sum is the number the
    :data:`SHARING_SPEEDUP_TARGET` gate applies to.
    """
    instances = [
        run_portfolio_instance(instance, repeats=repeats)
        for instance in portfolio_bench_suite(scale)
    ]
    isolated_wall = sum(row["isolated"]["wall_seconds"] for row in instances)
    sharing_wall = sum(row["sharing"]["wall_seconds"] for row in instances)
    speedup = isolated_wall / max(sharing_wall, 1e-9)
    return {
        "schema": PORTFOLIO_SCHEMA,
        "scale": scale,
        "lanes": [
            f"{name}(seed={seed})" for name, seed in _PORTFOLIO_LANES
        ],
        "repeats": repeats,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "git_sha": _git_sha(),
        "instances": instances,
        "aggregate": {
            "isolated_wall_seconds": round(isolated_wall, 6),
            "sharing_wall_seconds": round(sharing_wall, 6),
            "speedup": round(speedup, 3),
            "speedup_target": SHARING_SPEEDUP_TARGET,
            "meets_target": speedup >= SHARING_SPEEDUP_TARGET,
            "shared_exported": sum(
                row["sharing"]["shared_exported"] for row in instances
            ),
            "shared_imported": sum(
                row["sharing"]["shared_imported"] for row in instances
            ),
            "shared_rejected": sum(
                row["sharing"]["shared_rejected"] for row in instances
            ),
        },
    }


def format_portfolio_table(report: dict) -> str:
    """Human-readable summary of a portfolio-bench report."""
    lines = [
        f"portfolio sharing bench — scale={report['scale']} "
        f"lanes={','.join(report['lanes'])} repeats={report['repeats']}",
        f"{'instance':<16} {'status':<7} {'isolated s':>10} {'sharing s':>10} "
        f"{'imported':>8} {'speedup':>8}",
    ]
    for row in report["instances"]:
        lines.append(
            f"{row['name']:<16} {row['status']:<7} "
            f"{row['isolated']['wall_seconds']:>10.3f} "
            f"{row['sharing']['wall_seconds']:>10.3f} "
            f"{row['sharing']['shared_imported']:>8} "
            f"{row['speedup']:>7.2f}x"
        )
    aggregate = report["aggregate"]
    verdict = "meets" if aggregate["meets_target"] else "BELOW"
    lines.append(
        f"aggregate: isolated {aggregate['isolated_wall_seconds']:.3f}s vs "
        f"sharing {aggregate['sharing_wall_seconds']:.3f}s -> "
        f"{aggregate['speedup']:.2f}x ({verdict} the "
        f"{aggregate['speedup_target']:.1f}x target)"
    )
    return "\n".join(lines)


def profile_bcp(
    holes: int = 7,
    config_name: str = "berkmin",
    top: int = 20,
) -> str:
    """cProfile one pinned pigeonhole solve; return the top-N cumulative report."""
    formula = pigeonhole_formula(holes)
    solver = Solver(formula, config=config_by_name(config_name))
    profiler = cProfile.Profile()
    profiler.enable()
    solver.solve()
    profiler.disable()
    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.strip_dirs().sort_stats("cumulative").print_stats(top)
    header = f"cProfile: pigeonhole({holes}) under config {config_name!r}\n"
    return header + stream.getvalue()
