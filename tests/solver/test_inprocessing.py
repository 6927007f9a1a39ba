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

from repro.cnf.formula import CnfFormula
from repro.generators import pigeonhole_formula
from repro.reliability.verify import verify_result
from repro.solver._kernel import load_arena_kernel
from repro.solver.config import (
    CONFIG_FACTORIES,
    DECISION_BERKMIN,
    DECISION_GLOBAL,
    berkmin_config,
    config_by_name,
)
from repro.solver.result import SolveStatus
from repro.solver.solver import Solver

#: Aggressive knobs: inprocess on every restart, restart early, collect
#: the arena as soon as 5% of its words are dead.
_AGGRESSIVE = dict(restart_interval=20, inprocess_interval=1, arena_gc_fraction=0.05)


def test_eliminated_variable_model_reconstruction():
    # A square pigeonhole instance: satisfiable (a perfect matching),
    # and its at-most-one ladders give elimination plenty of
    # low-occurrence candidates.
    formula = pigeonhole_formula(8, 8)
    solver = Solver(formula, config=berkmin_config(**_AGGRESSIVE))
    result = solver.solve()  # verify=True re-checks the model internally
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


def test_snapshot_without_arena_payload_resumes_over_pristine_formula(tmp_path):
    """A checkpoint with no inprocessed-database payload (as written
    before the payload existed) restores its learned clauses over the
    pristine formula — which implies every clause the payload would
    carry — and still answers correctly."""
    from dataclasses import replace

    from repro.checkpoint.snapshot import save_checkpoint, try_load_checkpoint

    formula = pigeonhole_formula(6)
    donor = Solver(formula, config=berkmin_config(seed=4, **_AGGRESSIVE))
    donor.solve(max_conflicts=500)
    path = tmp_path / "old.ckpt"
    save_checkpoint(donor, path)

    receiver = Solver(formula, config=berkmin_config(seed=4))
    snapshot = replace(try_load_checkpoint(path), arena=None)
    assert receiver.resume(snapshot)
    assert not receiver._eliminated  # nothing installed from a payload
    assert len(receiver.learned) == len(donor.learned)
    assert receiver.solve().status is SolveStatus.UNSAT


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

    The pure-Python propagate/analyze/backtrack/decision paths are the
    semantics reference for the C kernels; a divergence in conflicts,
    decisions, or propagations means the kernel took a different search
    path.  Counters can agree while a bump or the backjump swap differs,
    so with proof logging on the whole proof (learnt-literal order
    included), the final activity vectors and every learned record's
    LBD stamp must match too.  Every preset runs, so each kernel path is
    compared: variable bumps from the learned clause only, wider
    top-clause windows, global, VSIDS and random decisions.  Run in a
    subprocess because kernel loading is cached per-process.
    """
    script = r"""
import json
from repro.generators import pigeonhole_formula, planted_ksat
from repro.solver.config import CONFIG_FACTORIES, config_by_name
from repro.solver.solver import Solver

cases = [("berkmin", pigeonhole_formula(6))]
for name in sorted(CONFIG_FACTORIES):
    cases.append((name, pigeonhole_formula(5)))
    cases.append((name, planted_ksat(40, 160, 3, seed=2)))
rows = []
for name, formula in cases:
    solver = Solver(
        formula,
        config=config_by_name(
            name, restart_interval=20, inprocess_interval=1, seed=1, proof_logging=True
        ),
    )
    result = solver.solve()
    rows.append(
        {
            "preset": name,
            "status": result.status.name,
            "conflicts": solver.stats.conflicts,
            "decisions": solver.stats.decisions,
            "propagations": solver.stats.propagations,
            "eliminated": solver.stats.eliminated_variables,
            "proof": solver.proof,
            "var_activity": solver.var_activity.tolist(),
            "lit_activity": solver.lit_activity.tolist(),
            "vsids": solver.vsids.tolist(),
            "clause_act": solver.clause_act.tolist(),
            "lbds": solver._learned_lbds(),
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
                f"case {case} ({kernel['preset']}): kernel and pure fallback "
                f"diverged in {field}"
            )


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


def _loaded_state(solver: Solver) -> dict:
    stats = {
        key: value
        for key, value in vars(solver.stats).items()
        if not key.endswith("_seconds")
    }
    return {
        "arena": solver.arena.tolist(),
        "watch_head": solver.watch_head.tolist(),
        "binary_implications": solver.binary_implications,
        "trail": solver.trail.tolist(),
        "lit_value": solver.lit_value.tolist(),
        "assigns": solver.assigns.tolist(),
        "levels": solver.levels.tolist(),
        "reasons": solver.reasons.tolist(),
        "seen": solver._seen.tolist(),
        "clause_act": solver.clause_act.tolist(),
        "clause_birth": solver.clause_birth,
        "clauses": solver.clauses,
        "learned": solver.learned.tolist(),
        "proof": solver.proof,
        "pristine": solver._pristine,
        "num_variables": solver.num_variables,
        "ok": solver.ok,
        "stats": stats,
    }


def test_kernel_pure_and_clause_by_clause_loads_identical(monkeypatch):
    """Loading through ``arena_load``, under ``REPRO_SAT_PURE=1`` and one
    ``add_clause`` at a time must leave the same solver, bit for bit.

    Every default-suite member (two reshuffles each) and a few hundred
    random small formulas, with proof logging on and off; the solves
    that follow must match too (suite members under a conflict budget).
    """
    from repro.cnf.shuffle import shuffle_formula
    from repro.experiments.suites import paper_suite

    rng = random.Random(21)
    cases = [
        (shuffle_formula(instance.build(), seed), 60)
        for benchmark in paper_suite("default")
        for instance in benchmark.instances
        for seed in (1, 2)
    ]
    cases += [(_random_load_formula(rng), None) for _ in range(300)]

    def load(formula, way, proof_logging):
        config = berkmin_config(proof_logging=proof_logging, seed=3)
        with monkeypatch.context() as patch:
            if way == "pure":
                patch.setenv("REPRO_SAT_PURE", "1")
            solver = Solver(config=config)
        if way == "clause":
            solver.ensure_variables(formula.num_variables)
            for clause in formula.clauses:
                solver.add_clause(clause)
        else:
            solver.add_formula(formula)
        return solver

    kernel_loads = 0
    for formula, budget in cases:
        for proof_logging in (False, True):
            solvers = [
                load(formula, way, proof_logging) for way in ("kernel", "pure", "clause")
            ]
            kernel_loads += solvers[0]._kernel_load is not None
            states = [_loaded_state(solver) for solver in solvers]
            assert states[0] == states[1] == states[2], formula.clauses[:8]
            results = [solver.solve(max_conflicts=budget) for solver in solvers]
            assert len({result.status for result in results}) == 1
            states = [_loaded_state(solver) for solver in solvers]
            assert states[0] == states[1] == states[2], formula.clauses[:8]
    if load_arena_kernel() is not None:
        assert kernel_loads == 2 * len(cases)


def test_every_preset_runs_the_c_kernels():
    """No preset may drop loading, conflicts, backtracking or (under the
    ``berkmin`` and ``global`` strategies) its decision scan to Python."""
    if load_arena_kernel() is None:
        pytest.skip("the C kernels did not load")
    attributes = ("_kernel_load", "_kernel_conflict", "_kernel_backtrack", "_kernel_decide")
    for name in sorted(CONFIG_FACTORIES):
        # Conflicts backtrack inside the conflict call; restarts use
        # the backtrack kernel, so restart often enough to reach it.
        config = config_by_name(name, restart_interval=50)
        solver = Solver(config=config)
        calls = Counter()
        for attribute in attributes:

            def counted(*args, _kernel=getattr(solver, attribute), _name=attribute):
                calls[_name] += 1
                return _kernel(*args)

            setattr(solver, attribute, counted)
        solver.add_formula(pigeonhole_formula(5))
        assert solver.solve().status is SolveStatus.UNSAT
        assert calls["_kernel_load"] > 0, f"{name} loaded in Python"
        assert calls["_kernel_conflict"] == solver.stats.conflicts - 1, (
            f"{name} analyzed in Python"  # the last conflict is at level 0
        )
        assert calls["_kernel_backtrack"] > 0, f"{name} backtracked in Python"
        if config.decision_strategy in (DECISION_BERKMIN, DECISION_GLOBAL):
            assert calls["_kernel_decide"] == solver.stats.decisions, (
                f"{name} decided in Python"
            )
        else:
            assert calls["_kernel_decide"] == 0


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
