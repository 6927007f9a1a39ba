"""DRUP proof logging and the RUP checker."""

import random

import pytest

from repro.baselines.brute import brute_force_satisfiable
from repro.cnf.formula import CnfFormula
from repro.proof import ProofError, check_rup_proof
from repro.proof.rup import _is_rup
from repro.solver import Solver
from repro.solver.config import berkmin_config, chaff_config


def _solve_with_proof(formula, config_name="berkmin", **overrides):
    config = {
        "berkmin": berkmin_config,
        "chaff": chaff_config,
    }[config_name](proof_logging=True, **overrides)
    solver = Solver(formula, config=config)
    return solver.solve()


def test_unsat_proof_checks():
    from repro.generators.pigeonhole import pigeonhole_formula

    formula = pigeonhole_formula(5)
    result = _solve_with_proof(formula)
    assert result.is_unsat
    assert result.proof is not None
    assert check_rup_proof(formula, result.proof)


def test_proof_includes_deletions_after_restarts():
    from repro.generators.pigeonhole import pigeonhole_formula

    formula = pigeonhole_formula(6)
    result = _solve_with_proof(formula, restart_interval=40)
    kinds = {kind for kind, _ in result.proof}
    assert kinds == {"a", "d"}
    assert check_rup_proof(formula, result.proof)


def test_proofs_from_chaff_config_check_too():
    from repro.generators.pigeonhole import pigeonhole_formula

    formula = pigeonhole_formula(5)
    result = _solve_with_proof(formula, "chaff", restart_interval=30)
    assert result.is_unsat
    assert check_rup_proof(formula, result.proof)


def test_sat_results_have_no_proof():
    result = _solve_with_proof(CnfFormula([[1, 2]]))
    assert result.is_sat
    assert result.proof is None


def test_proof_requires_empty_clause():
    formula = CnfFormula([[1], [-1]])
    with pytest.raises(ProofError, match="empty clause"):
        check_rup_proof(formula, [], require_empty_clause=True)


def test_bogus_addition_is_rejected():
    formula = CnfFormula([[1, 2], [-1, 2]])
    with pytest.raises(ProofError, match="not a RUP consequence"):
        check_rup_proof(formula, [("a", [-2])], require_empty_clause=False)


def test_bogus_deletion_is_rejected():
    formula = CnfFormula([[1, 2]])
    with pytest.raises(ProofError, match="not in database"):
        check_rup_proof(formula, [("d", [3, 4])], require_empty_clause=False)


def test_unknown_action_is_rejected():
    formula = CnfFormula([[1]])
    with pytest.raises(ProofError, match="unknown proof action"):
        check_rup_proof(formula, [("x", [1])], require_empty_clause=False)


def test_valid_manual_proof():
    formula = CnfFormula([[1, 2], [-1, 2], [1, -2], [-1, -2]])
    proof = [("a", [2]), ("a", [1]), ("a", [])]
    # (2) is RUP: assume -2, then [1,2]->1, [-1,2]->conflict. And so on.
    assert check_rup_proof(formula, proof)


def test_check_past_its_deadline_neither_accepts_nor_rejects():
    import time

    from repro.generators.pigeonhole import pigeonhole_formula
    from repro.proof import ProofCheckTimeout

    formula = pigeonhole_formula(5)
    result = _solve_with_proof(formula)
    with pytest.raises(ProofCheckTimeout):
        check_rup_proof(formula, result.proof, deadline=time.monotonic())
    assert check_rup_proof(formula, result.proof, deadline=time.monotonic() + 600)


def test_is_rup_tautological_negation():
    assert _is_rup([], [1, -1])


def test_random_unsat_proofs_check(subtests=None):
    rng = random.Random(5)
    checked = 0
    while checked < 12:
        n = rng.randint(2, 6)
        clauses = [
            [v * rng.choice((1, -1)) for v in rng.sample(range(1, n + 1), min(2, n))]
            for _ in range(rng.randint(6, 20))
        ]
        formula = CnfFormula(clauses, num_variables=n)
        if brute_force_satisfiable(formula):
            continue
        result = _solve_with_proof(formula, restart_interval=5)
        assert result.is_unsat
        assert check_rup_proof(formula, result.proof)
        checked += 1
