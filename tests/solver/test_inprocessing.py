"""Inprocessing coverage: elimination, arena GC, and the checkpoint seam.

Bounded variable elimination rewrites the live formula mid-search, so
three things must keep working across it: SAT models must extend over
eliminated variables and still satisfy the *original* formula, the
arena's mark-and-compact GC must reclaim the words that elimination and
clause sweeps kill without corrupting the live records, and a
checkpoint captured after a compaction must restore into an equivalent
solver (same answer, eliminated stack intact).  The C kernels and their
pure-Python fallbacks must agree bit-for-bit on whole trajectories —
``REPRO_SAT_PURE=1`` is the fallback's audit switch.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from collections import Counter

import pytest

from repro.cnf.formula import CnfFormula, words_to_clauses
from repro.generators import pigeonhole_formula
from repro.reliability.verify import verify_result
from repro.solver._kernel import load_arena_kernel
from repro.solver.config import (
    CONFIG_FACTORIES,
    berkmin_config,
    config_by_name,
)
from repro.solver.result import SolveStatus
from repro.solver.solver import Solver

from tests.conftest import loaded_state

#: Aggressive knobs: inprocess on every restart, restart early, collect
#: the arena as soon as 5% of its words are dead.
_AGGRESSIVE = dict(restart_interval=20, inprocess_interval=1, arena_gc_fraction=0.05)


def test_eliminated_variable_model_reconstruction():
    # A square pigeonhole instance: satisfiable (a perfect matching),
    # and its at-most-one ladders give elimination plenty of
    # low-occurrence candidates.
    formula = pigeonhole_formula(8, 8)
    solver = Solver(formula, config=berkmin_config(**_AGGRESSIVE))
    result = solver.solve()  # solve() re-checks the model internally
    assert result.status is SolveStatus.SAT
    assert solver.stats.eliminated_variables > 0
    # The model must cover every variable — including eliminated ones,
    # which only reconstruction can value — and satisfy every original
    # clause (the arena's live database no longer contains them all).
    assert set(result.model) == set(range(1, formula.num_variables + 1))
    for clause in formula.clauses:
        assert any(result.model[abs(lit)] == (lit > 0) for lit in clause)


def test_resolvents_skip_tautologies():
    # On variable 1, (1 | 2) and (-1 | -2) resolve to the tautology
    # (2 | -2), which is skipped; (1 | 2) and (-1 | 3) give (2 | 3).
    assert Solver._resolvents([[1, 2]], [[-1, -2], [-1, 3]], 1) == [[2, 3]]


def test_empty_resolvent_returns_none():
    assert Solver._resolvents([[1]], [[-1]], 1) is None


def test_duplicate_resolvents_are_produced_once():
    # (1 | 3) and (-1 | 2) give (3 | 2), the clause (1 | 2) and (-1 | 3)
    # already gave; (1 | 2) and (-1 | 2) merge to the unit (2).
    assert Solver._resolvents([[1, 2], [1, 3]], [[-1, 3], [-1, 2]], 1) == [
        [2, 3], [2], [3],
    ]


def test_arena_gc_fires_under_forced_reduce_and_answers_hold():
    for name, formula, expected in [
        ("hole6", pigeonhole_formula(6), SolveStatus.UNSAT),
        ("hole8x8", pigeonhole_formula(8, 8), SolveStatus.SAT),
    ]:
        solver = Solver(formula, config=berkmin_config(**_AGGRESSIVE))
        result = solver.solve()
        assert result.status is expected, name
        assert solver.stats.inprocess_passes > 0, name
        assert solver.stats.arena_collections > 0, name
        # After GC the dead-word ledger must match a fresh scan: fewer
        # dead words than the collection threshold implies.
        assert solver.arena_dead <= len(solver.arena)


def test_unsat_proof_rup_checks_across_inprocessing():
    formula = pigeonhole_formula(5)
    solver = Solver(
        formula, config=berkmin_config(proof_logging=True, **_AGGRESSIVE)
    )
    result = solver.solve()
    assert result.status is SolveStatus.UNSAT
    assert solver.stats.eliminated_variables > 0
    assert verify_result(formula, result) == "proof"


def test_checkpoint_roundtrip_across_compaction(tmp_path):
    from repro.checkpoint.snapshot import save_checkpoint, try_load_checkpoint

    formula = pigeonhole_formula(7)
    solver = Solver(formula, config=berkmin_config(seed=9, **_AGGRESSIVE))
    partial = solver.solve(max_conflicts=2000)
    assert partial.status is SolveStatus.UNKNOWN
    assert solver.stats.arena_collections > 0  # a compaction already ran
    assert solver.stats.eliminated_variables > 0
    path = tmp_path / "arena.ckpt"
    save_checkpoint(solver, path)

    resumed = Solver(formula, config=berkmin_config(seed=9, **_AGGRESSIVE))
    snapshot = try_load_checkpoint(path)
    assert snapshot is not None and snapshot.arena is not None
    assert resumed.resume(snapshot)
    # The eliminated stack must survive the round trip: those variables
    # stay out of the search and reconstruct at model-extraction time.
    assert len(resumed._eliminated) == len(solver._eliminated)
    result = resumed.solve()
    assert result.status is SolveStatus.UNSAT


def test_inject_lemma_rejects_eliminated_variables():
    """The shared-clause import gate turns away a lemma that names a
    variable this solver eliminated; nothing re-checks it after."""
    formula = pigeonhole_formula(6)
    solver = Solver(formula, config=berkmin_config(**_AGGRESSIVE))
    solver.solve(max_conflicts=2000)
    assert solver._eliminated, "test premise: elimination must have fired"
    variable = solver._eliminated[0][0]
    lemma = [variable, -(variable % formula.num_variables + 1)]
    assert solver._lemma_defect(lemma) == ("eliminated-variable", "benign")


def test_add_formula_after_elimination_restores_touched_variables():
    """A bulk load onto a solver that has eliminated variables must
    restore every variable a new clause names, as add_clause does."""
    formula = pigeonhole_formula(6)
    solver = Solver(formula, config=berkmin_config(**_AGGRESSIVE))
    solver.solve(max_conflicts=200)
    assert solver.ok and solver._eliminated, "test premise: open, with eliminations"
    variable = solver._eliminated[-1][0]
    solver.add_formula(CnfFormula([[variable]]))
    assert not solver._eliminated_mark[variable]
    assert solver.solve().status is SolveStatus.UNSAT


def test_kernel_and_pure_fallback_trajectories_identical():
    """REPRO_SAT_PURE=1 must not change a single counter, for any preset.

    The pure-Python search step is the semantics reference for the C
    search loop, under the same exit contract; a divergence in any
    counter means the kernel took a different search path.  Counters
    can agree while a bump or the backjump swap differs, so with proof
    logging on the whole proof (learnt-literal order included) and its
    hints, the final activity vectors, every learned record's LBD stamp
    and birth, the learned stack and the top-clause cursor must match
    too.  Every preset runs, so each kernel path is compared: variable
    bumps from the learned clause only, wider top-clause windows,
    global, VSIDS and random decisions, and minimization's hints on one
    extra case.  Other cases stop mid-run at each kind of exit: a
    conflict budget, a decision budget, an ``on_progress`` hook that
    interrupts at its third call (its ``(conflicts, decisions)`` record
    must match), and assumption levels (a core, and a model).  With a
    ``RingBufferSink`` attached the event lists must match, and the
    counts must equal those of the same solve untraced.  Run in a
    subprocess because kernel loading is cached per-process.
    """
    script = r"""
import json
from repro.generators import pigeonhole_formula, planted_ksat
from repro.generators.hanoi import hanoi_formula
from repro.observability import RingBufferSink
from repro.solver.config import CONFIG_FACTORIES, config_by_name
from repro.solver.solver import Solver

hole5, hole6 = pigeonhole_formula(5), pigeonhole_formula(6)
planted = planted_ksat(40, 160, 3, seed=2)
cases = [
    ("berkmin", hole6, {}, {}),
    ("berkmin", hole6, {"clause_minimization": True}, {}),
    ("berkmin", hole6, {}, {"max_conflicts": 300}),
    ("berkmin", hole6, {}, {"max_decisions": 700}),
    ("berkmin", hole6, {}, {"hook": True}),
    ("berkmin", hanoi_formula(4), {}, {"hook": True}),
    ("random_decision", hole6, {}, {"hook": True}),
    ("berkmin", hole5, {}, {"assumptions": [1, 2]}),
    ("berkmin", planted, {}, {"assumptions": [1, -2, 3]}),
    ("berkmin", hole6, {}, {"trace": True}),
    ("chaff", planted, {}, {"trace": True}),
]
for name in sorted(CONFIG_FACTORIES):
    cases.append((name, hole5, {}, {}))
    cases.append((name, planted, {}, {}))
rows = []
for name, formula, overrides, run in cases:
    ring = RingBufferSink(capacity=1 << 20) if run.get("trace") else None
    solver = Solver(
        formula,
        config=config_by_name(
            name,
            restart_interval=20,
            inprocess_interval=1,
            seed=1,
            proof_logging=True,
            trace=ring,
            **overrides,
        ),
    )
    marks = []

    def on_progress(stats):
        marks.append((stats.conflicts, stats.decisions))
        if len(marks) == 3:
            solver.interrupt()

    result = solver.solve(
        run.get("assumptions", ()),
        max_conflicts=run.get("max_conflicts"),
        max_decisions=run.get("max_decisions"),
        on_progress=on_progress if run.get("hook") else None,
    )
    rows.append(
        {
            "preset": name,
            "run": sorted(run),
            "status": result.status.name,
            "limit": result.limit_reason,
            "core": result.core,
            "model": sorted(result.model.items()) if result.model else None,
            "stats": {
                key: value
                for key, value in vars(solver.stats).items()
                if not key.endswith("_seconds")
            },
            "marks": marks,
            "proof": solver.proof,
            "hints": solver.proof_hints,
            "var_activity": solver.var_activity.tolist(),
            "lit_activity": solver.lit_activity.tolist(),
            "vsids": solver.vsids.tolist(),
            "clause_act": solver.clause_act.tolist(),
            "clause_birth": solver.clause_birth.tolist(),
            "lbds": solver._learned_lbds(),
            "learned": solver.learned.tolist(),
            "search_cursor": solver.search_cursor,
            "birth_counter": solver.birth_counter,
            "events": None if ring is None else [
                {key: value for key, value in event.items() if not key.endswith("_ms")}
                for event in ring.events
            ],
        }
    )
print(json.dumps(rows))
"""
    outputs = {}
    for pure in ("0", "1"):
        env = dict(os.environ, REPRO_SAT_PURE=pure)
        env["PYTHONPATH"] = os.pathsep.join(sys.path)
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        outputs[pure] = json.loads(proc.stdout)
    assert len(outputs["0"]) == len(outputs["1"])
    for case, (kernel, pure) in enumerate(zip(outputs["0"], outputs["1"])):
        for field in kernel:
            assert kernel[field] == pure[field], (
                f"case {case} ({kernel['preset']}, {kernel['run']}): kernel and "
                f"pure fallback diverged in {field}"
            )
    rows = outputs["0"]
    # The stopped runs stopped where they were told to.
    assert [row["limit"] for row in rows[2:7]] == [
        "conflict budget",
        "decision budget",
        "interrupted",
        "interrupted",
        "interrupted",
    ]
    assert all(len(row["marks"]) == 3 for row in rows[4:7])
    # Marks at 512 decisions, one of them the interrupting one.
    assert rows[5]["marks"][1][1] == 512 and rows[6]["marks"][2][1] == 512
    assert rows[7]["core"] and rows[8]["model"]
    # Tracing changes nothing: hole6's traced counts are its untraced ones.
    traced, untraced = rows[9], rows[0]
    assert traced["stats"] == untraced["stats"] and traced["proof"] == untraced["proof"]
    kinds = Counter(event["type"] for event in traced["events"])
    assert kinds["conflict"] == traced["stats"]["conflicts"] - 1  # the last is at level 0
    assert kinds["decision"] == traced["stats"]["decisions"]


def _random_load_formula(rng: random.Random) -> CnfFormula:
    """A small formula full of what loading must clean up.

    Repeated literals, tautologies, units (conflicting ones too), empty
    clauses, and — because the clause list is assigned directly —
    variables past the declared ``num_variables``.
    """
    declared = rng.randint(1, 8)
    clauses = []
    for _ in range(rng.randint(0, 24)):
        size = rng.choice((0, 1, 1, 2, 2, 2, 3, 3, 4, 5))
        if size == 0 and rng.random() < 0.7:
            size = 2  # keep most formulas alive past their first clauses
        clauses.append(
            [rng.choice((1, -1)) * rng.randint(1, declared + 2) for _ in range(size)]
        )
    formula = CnfFormula(num_variables=declared)
    formula.clauses = clauses
    return formula


def _random_batch(rng: random.Random, solver: Solver) -> list[list[int]]:
    """Clauses to add to a solver that has searched: over its variables
    and two new ones, with repeats and tautologies, mostly naming a
    variable elimination took out when there is one."""
    eliminated = [variable for variable, _, _ in solver._eliminated]
    batch = []
    for _ in range(rng.randint(1, 12)):
        clause = [
            rng.choice((1, -1)) * rng.randint(1, solver.num_variables + 2)
            for _ in range(rng.choice((0, 1, 2, 2, 3, 3, 4)) or rng.choice((0, 2)))
        ]
        if eliminated and rng.random() < 0.7:
            clause.append(rng.choice((1, -1)) * rng.choice(eliminated))
        batch.append(clause)
    return batch


def test_kernel_pure_and_clause_by_clause_loads_identical(monkeypatch):
    """Loading through ``arena_load``, under ``REPRO_SAT_PURE=1`` and one
    ``add_clause`` at a time must leave the same solver, bit for bit.

    Every default-suite member (two reshuffles each) and a few hundred
    random small formulas, with proof logging on and off; the solves
    that follow must match too (suite members under a conflict budget).
    Inprocessing runs at every restart, so those solves eliminate
    variables; a batch added after them (``add_clauses`` with and
    without the kernels, or one ``add_clause`` at a time) names some of
    them, and must leave the same solver, and the same next solve,
    again.  Every proof passes the checker.
    """
    from repro.cnf.shuffle import shuffle_formula
    from repro.experiments.suites import paper_suite
    from repro.proof import check_rup_proof

    rng = random.Random(21)
    cases = [
        (shuffle_formula(instance.build(), seed), 60)
        for benchmark in paper_suite("default")
        for instance in benchmark.instances
        for seed in (1, 2)
    ]
    cases += [(_random_load_formula(rng), None) for _ in range(300)]

    def make(way, proof_logging):
        config = berkmin_config(
            proof_logging=proof_logging, seed=3, restart_interval=50, inprocess_interval=1
        )
        with monkeypatch.context() as patch:
            if way == "pure":
                patch.setenv("REPRO_SAT_PURE", "1")
            return Solver(config=config)

    def add(solver, way, clauses):
        if way == "clause":
            for clause in clauses:
                solver.add_clause(clause)
        else:
            solver.add_clauses(clauses)

    ways = ("kernel", "pure", "clause")
    kernel_loads = eliminated = 0
    for formula, budget in cases:
        for proof_logging in (False, True):
            solvers = [make(way, proof_logging) for way in ways]
            for solver, way in zip(solvers, ways):
                if way == "clause":
                    solver.ensure_variables(formula.num_variables)
                    add(solver, way, formula.clauses)
                else:
                    solver.add_formula(formula)
            kernel_loads += solvers[0]._kernel_load is not None
            states = [loaded_state(solver) for solver in solvers]
            assert states[0] == states[1] == states[2], formula.clauses[:8]
            results = [solver.solve(max_conflicts=budget) for solver in solvers]
            assert len({result.status for result in results}) == 1
            states = [loaded_state(solver) for solver in solvers]
            assert states[0] == states[1] == states[2], formula.clauses[:8]

            eliminated += bool(solvers[0]._eliminated)
            batch = _random_batch(rng, solvers[0])
            for solver, way in zip(solvers, ways):
                add(solver, way, batch)
            states = [loaded_state(solver) for solver in solvers]
            assert states[0] == states[1] == states[2], batch
            results = [solver.solve(max_conflicts=budget) for solver in solvers]
            assert len({result.status for result in results}) == 1
            states = [loaded_state(solver) for solver in solvers]
            assert states[0] == states[1] == states[2], batch
            if proof_logging:
                solver = solvers[0]
                assert check_rup_proof(
                    CnfFormula(words_to_clauses(solver._pristine)),
                    solver.proof,
                    hints=solver.proof_hints,
                    require_empty_clause=results[0].status is SolveStatus.UNSAT,
                )
    if load_arena_kernel() is not None:
        assert kernel_loads == 2 * len(cases)
    assert eliminated >= 40  # the batches do meet eliminated variables


def test_every_preset_runs_the_c_kernels():
    """No preset may drop loading, conflicts, backtracking or (under the
    ``berkmin`` and ``global`` strategies) its decision scan to Python:
    the search runs in ``arena_search``, so the pure-Python steps it
    replaces are never called."""
    if load_arena_kernel() is None:
        pytest.skip("the C kernels did not load")
    attributes = ("_kernel_load", "_kernel_search", "_kernel_backtrack")
    references = ("_analyze", "_record_learned", "_berkmin_decision", "_global_decision")
    for name in sorted(CONFIG_FACTORIES):
        # Restarts use the backtrack kernel, so restart often enough to
        # reach it.
        config = config_by_name(name, restart_interval=50)
        solver = Solver(config=config)
        calls = Counter()
        for attribute in attributes + references:

            def counted(*args, _step=getattr(solver, attribute), _name=attribute):
                calls[_name] += 1
                return _step(*args)

            setattr(solver, attribute, counted)
        solver.add_formula(pigeonhole_formula(5))
        assert solver.solve().status is SolveStatus.UNSAT
        assert calls["_kernel_load"] > 0, f"{name} loaded in Python"
        assert calls["_kernel_search"] > 0, f"{name} searched in Python"
        assert calls["_kernel_backtrack"] > 0, f"{name} backtracked in Python"
        for reference in references:
            assert calls[reference] == 0, f"{name} ran {reference} in Python"


def test_arena_session_retention_and_incremental_adds():
    """The session seam: retention sweeps and later add_clause calls on
    a solver whose database has been through elimination."""
    formula = pigeonhole_formula(6)
    solver = Solver(formula, config=berkmin_config(**_AGGRESSIVE))
    solver.solve(max_conflicts=1500)
    kept, dropped = solver.retain_learned_by_lbd(3)
    assert kept >= 0 and dropped >= 0
    # A new clause naming an eliminated variable restores it.
    if solver._eliminated:
        variable = solver._eliminated[-1][0]
        assert solver.add_clause([variable]) in (True, False)
        assert not solver._eliminated_mark[variable]
    result = solver.solve()
    assert result.status is SolveStatus.UNSAT
