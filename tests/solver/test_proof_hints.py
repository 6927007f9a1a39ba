"""Proof hints: every step the solver justifies checks without a fallback.

Beside each addition it can justify, the solver logs the proof ids of
the clauses that make it RUP (the module docstring of
``repro/solver/solver.py``, "Proof hints"): a learned clause its
responsible clauses, a level-0 unit its reason, a strengthened clause
the clause it replaces, a NiVER resolvent its two parents.  The checker
follows them and falls back to full propagation
(``_Database._full_check``) when they do not lead to a conflict.  The
fallback is wrapped here, as ``test_fused_kernels.py`` wraps the
kernels, so a hint that names the wrong clause, or a step the solver
left unhinted, fails as a fallback instead of passing slowly.
"""

from __future__ import annotations

import pytest

from repro.cnf import shuffle_formula
from repro.cnf.formula import CnfFormula, words_to_clauses
from repro.experiments.suites import paper_suite
from repro.proof import check_rup_proof, rup
from repro.solver import Solver
from repro.solver.config import berkmin_config
from repro.solver.result import SolveStatus

from test_oracle_differential import _pool


def fallback_steps(formula: CnfFormula, proof, hints) -> list[int]:
    """Check ``proof`` with ``hints``; the steps that fell back to full
    propagation."""
    steps = []
    full_check = rup._Database._full_check

    def recording(database, literals):
        steps.append(len(database.step_cids))  # the step being checked
        return full_check(database, literals)

    rup._Database._full_check = recording
    try:
        assert check_rup_proof(formula, proof, hints=hints)
    finally:
        rup._Database._full_check = full_check
    return steps


def _members() -> dict:
    return {
        instance.name: instance
        for benchmark_class in paper_suite("default")
        for instance in benchmark_class.instances
    }


@pytest.mark.parametrize("name", ["hole5", "bw5_c_unsat", "hole6"])
@pytest.mark.parametrize("minimize", [False, True])
def test_reshuffled_members_check_without_fallback(name, minimize):
    member = _members()[name]
    config = berkmin_config(proof_logging=True, clause_minimization=minimize)
    for seed in (1, 2, 3):
        formula = shuffle_formula(member.formula(), seed)
        result = Solver(formula, config=config).solve()
        assert result.status is SolveStatus.UNSAT
        assert len(result.proof_hints) == len(result.proof)
        assert fallback_steps(formula, result.proof, result.proof_hints) == [], seed


def test_pool_formulas_check_without_fallback():
    """Restarts every 20 conflicts and NiVER every second restart: the
    proofs carry strengthenings, level-0 units and resolvents besides
    the learned clauses."""
    config = berkmin_config(restart_interval=20, inprocess_interval=2, proof_logging=True)
    checked = eliminated = reductions = 0
    for name, formula in _pool():
        solver = Solver(formula, config=config)
        result = solver.solve()
        if not result.is_unsat:
            continue
        assert fallback_steps(formula, result.proof, result.proof_hints) == [], name
        checked += 1
        eliminated += solver.stats.eliminated_variables
        reductions += solver.stats.db_reductions
    assert checked > 20 and eliminated > 0 and reductions > 0


def test_hints_name_input_clauses_added_between_solves():
    """A clause added after the first solve is named by its position in
    the grown formula, whatever the proof holds by then."""
    config = berkmin_config(proof_logging=True, restart_interval=30, seed=2)
    formula = _members()["hole6"].formula()
    solver = Solver(formula, config=config)
    assert solver.solve(max_conflicts=200).is_unknown
    extra = formula.num_variables + 1
    solver.add_clause([extra, 1, 2])
    solver.add_clause([-extra, 1, 2])
    result = solver.solve()
    assert result.is_unsat
    grown = CnfFormula(words_to_clauses(solver._pristine))
    assert fallback_steps(grown, result.proof, result.proof_hints) == []


def test_a_proof_without_hints_falls_back_on_every_propagating_lemma():
    """The wrapper sees the fallback: with the hints withheld, the
    learned clauses all go to full propagation."""
    formula = _members()["hole5"].formula()
    result = Solver(formula, config=berkmin_config(proof_logging=True)).solve()
    hinted = sum(1 for hints in result.proof_hints if hints)
    assert len(fallback_steps(formula, result.proof, None)) >= hinted // 2 > 0
