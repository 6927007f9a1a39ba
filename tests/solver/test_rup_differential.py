"""Differential gate: the watched-literal RUP checker against the naive one.

``repro.proof.check_rup_proof`` must accept exactly the proofs the naive
checker in ``rup_oracle`` accepts, and reject the others at the same
step with the same :class:`ProofError` message.  The proofs come from
three places:

* every proof the proof tests and the 50-formula pool of
  ``test_oracle_differential.py`` produce;
* 600 seeded mutations of small real proofs;
* hand cases for the deletions that rebuild the top-level trail.
"""

from __future__ import annotations

import random

import pytest

from repro.cnf import shuffle_formula
from repro.cnf.formula import CnfFormula
from repro.experiments.suites import paper_suite
from repro.generators.pigeonhole import pigeonhole_formula
from repro.proof import ProofError, check_rup_proof
from repro.solver import Solver
from repro.solver.config import berkmin_config, chaff_config

import rup_oracle
from test_oracle_differential import _pool
from test_proof import _above_hole4

ACCEPTED = "accepted"


def _verdict(check, formula, proof, require_empty_clause):
    try:
        check(formula, proof, require_empty_clause=require_empty_clause)
    except ProofError as error:
        return str(error)
    return ACCEPTED


def _same_verdict(formula, proof, require_empty_clause=True) -> str:
    """Run both checkers; fail unless they agree.  Returns the verdict."""
    expected = _verdict(rup_oracle.check_rup_proof, formula, proof, require_empty_clause)
    actual = _verdict(check_rup_proof, formula, proof, require_empty_clause)
    assert actual == expected, (proof, expected, actual)
    return expected


def _unsat_proofs(formulas, config):
    """The proofs of the UNSAT members of ``formulas``."""
    results = ((formula, Solver(formula, config=config).solve()) for formula in formulas)
    return [(formula, result.proof) for formula, result in results if result.is_unsat]


def test_solver_proofs_get_the_oracles_verdict():
    cases = _unsat_proofs([pigeonhole_formula(5)], berkmin_config(proof_logging=True))
    cases += _unsat_proofs(
        [pigeonhole_formula(6)], berkmin_config(proof_logging=True, restart_interval=40)
    )
    cases += _unsat_proofs(
        [pigeonhole_formula(5)], chaff_config(proof_logging=True, restart_interval=30)
    )
    cases += _unsat_proofs(
        [_above_hole4([[1], [-1, 2, 3], [2]]), _above_hole4([[-1, 2, 2], [2]])],
        berkmin_config(proof_logging=True, restart_interval=5),
    )
    cases += _unsat_proofs(
        [shuffle_formula(pigeonhole_formula(5), seed) for seed in range(3)],
        berkmin_config(proof_logging=True, restart_interval=30),
    )
    rng = random.Random(5)
    small = []
    for _ in range(40):
        n = rng.randint(2, 6)
        clauses = [
            [v * rng.choice((1, -1)) for v in rng.sample(range(1, n + 1), min(2, n))]
            for _ in range(rng.randint(6, 20))
        ]
        small.append(CnfFormula(clauses, num_variables=n))
    cases += _unsat_proofs(small, berkmin_config(proof_logging=True, restart_interval=5))
    cases += _unsat_proofs(
        [formula for _, formula in _pool()],
        berkmin_config(restart_interval=20, inprocess_interval=2, proof_logging=True),
    )
    assert len(cases) > 30
    for formula, proof in cases:
        assert _same_verdict(formula, proof) == ACCEPTED


# ---------------------------------------------------------------------------
# Mutated proofs
# ---------------------------------------------------------------------------
def _drop_lemma(rng, formula, proof):
    del proof[rng.choice([i for i, (kind, _) in enumerate(proof) if kind == "a"])]


def _flip_literal(rng, formula, proof):
    index = rng.choice([i for i, (_, clause) in enumerate(proof) if clause])
    kind, clause = proof[index]
    position = rng.randrange(len(clause))
    clause = list(clause)
    clause[position] = -clause[position]
    proof[index] = (kind, clause)


def _delete_then_use(rng, formula, proof):
    index = rng.choice([i for i, (kind, _) in enumerate(proof) if kind == "a"])
    proof.insert(index + 1, ("d", list(proof[index][1])))


def _delete_original(rng, formula, proof):
    proof.insert(rng.randrange(len(proof) + 1), ("d", list(rng.choice(formula.clauses))))


def _duplicate_lemma(rng, formula, proof):
    index = rng.choice([i for i, (kind, _) in enumerate(proof) if kind == "a"])
    proof.insert(index + 1, ("a", list(proof[index][1])))


def _swap_steps(rng, formula, proof):
    first, second = rng.sample(range(len(proof)), 2)
    proof[first], proof[second] = proof[second], proof[first]


MUTATIONS = (
    _drop_lemma,
    _flip_literal,
    _delete_then_use,
    _delete_original,
    _duplicate_lemma,
    _swap_steps,
)


def test_mutated_proofs_get_the_oracles_verdict():
    members = {
        instance.name: instance
        for benchmark_class in paper_suite("quick")
        for instance in benchmark_class.instances
    }
    bases = _unsat_proofs(
        [members[name].formula() for name in ("hole4", "hole5", "pipe_w3s1", "par_unsat_s2")],
        berkmin_config(proof_logging=True),
    )
    assert len(bases) == 4

    rng = random.Random(20261017)
    rejected = 0
    for trial in range(600):
        formula, proof = bases[trial % len(bases)]
        mutated = list(proof)
        MUTATIONS[trial % len(MUTATIONS)](rng, formula, mutated)
        if _same_verdict(formula, mutated) != ACCEPTED:
            rejected += 1
    # Both verdicts occur, so the agreement is not vacuous.
    assert 100 < rejected < 500


# ---------------------------------------------------------------------------
# Hand cases: deletions that rebuild the top-level trail, and odd clauses
# ---------------------------------------------------------------------------
#: (formula clauses, proof, require_empty_clause, expected verdict).
HAND_CASES = {
    # [-1, 2] sets 2 at the top level; without it, [3] is no longer RUP.
    "reason-deleted-then-used": (
        [[1], [-1, 2], [-2, 3, 4], [-2, 3, -4]],
        [("d", [-1, 2]), ("a", [3])],
        False,
        "step 1: clause [3] is not a RUP consequence",
    ),
    "reason-deleted-twin-remains": (
        [[1], [-1, 2], [2, -1], [-2, 3, 4], [-2, 3, -4]],
        [("d", [-1, 2]), ("a", [3])],
        False,
        ACCEPTED,
    ),
    "reason-deleted-literal-still-implied": (
        [[1], [-1, 2], [-1, 5], [-5, 2], [-2, 3, 4], [-2, 3, -4]],
        [("d", [-1, 2]), ("a", [3])],
        False,
        ACCEPTED,
    ),
    "unit-deleted": (
        [[1], [-1, 2], [-2, 3]],
        [("a", [3]), ("d", [1]), ("a", [2])],
        False,
        "step 2: clause [2] is not a RUP consequence",
    ),
    "unit-deleted-twin-remains": (
        [[1], [1], [-1, 2], [-2, 3]],
        [("d", [1]), ("a", [2])],
        False,
        ACCEPTED,
    ),
    # The unit lemma takes over as reason, so deleting [-1, 2] keeps 2.
    "unit-lemma-replaces-reason": (
        [[1], [-1, 2], [-2, 3]],
        [("a", [2]), ("d", [-1, 2]), ("a", [3]), ("d", [2]), ("a", [2])],
        False,
        "step 4: clause [2] is not a RUP consequence",
    ),
    "deleted-unit-lemma-falls-back-to-clause": (
        [[1], [-1, 2]],
        [("a", [2]), ("d", [2]), ("a", [2, 7])],
        False,
        ACCEPTED,
    ),
    "deletion-while-inconsistent": (
        [[1], [-1]],
        [("d", [-1]), ("a", [])],
        True,
        "step 1: clause [] is not a RUP consequence",
    ),
    "deletion-while-inconsistent-stays-inconsistent": (
        [[1], [-1], [-1]],
        [("d", [-1]), ("a", [])],
        True,
        ACCEPTED,
    ),
    "clauses-added-while-inconsistent-propagate-after-rebuild": (
        [[1], [-1]],
        [("a", [5, 6]), ("a", [-5]), ("d", [1]), ("a", [6]), ("a", [-6, 1])],
        False,
        "step 4: clause [-6, 1] is not a RUP consequence",
    ),
    "empty-input-clause": ([[], [1]], [], True, ACCEPTED),
    "empty-input-clause-deleted": (
        [[], [1]],
        [("a", [2]), ("d", []), ("a", [-1])],
        True,
        "step 2: clause [-1] is not a RUP consequence",
    ),
    "tautological-lemma": (
        [[1, 2]],
        [("a", [3, -3]), ("d", [-3, 3]), ("a", [2, -2, 4])],
        False,
        ACCEPTED,
    ),
    "repeated-literal-input-clause": (
        [[26, 26, -31], [31]],
        [("a", [26]), ("d", [-31, 26, 26]), ("d", [26, -31])],
        False,
        "step 2: deleted clause [26, -31] not in database",
    ),
    # Asserting 2 must make [1, 1, -2] unit on 1.
    "repeated-literal-input-clause-propagates": (
        [[1, 1, -2], [-1, 3, 4], [-1, 3, -4]],
        [("a", [-2, 3])],
        False,
        ACCEPTED,
    ),
    "repeated-literal-lemma": (
        [[1, 2], [-1, 2]],
        [("a", [2, 2]), ("d", [2]), ("d", [2, 2]), ("a", [2])],
        False,
        "step 1: deleted clause [2] not in database",
    ),
    "variables-beyond-the-formula": (
        [[1], [-1, 2]],
        [("a", [2, 9]), ("a", [-9, 2, 12]), ("d", [12, 2, -9]), ("a", [12])],
        False,
        "step 3: clause [12] is not a RUP consequence",
    ),
    # The naive checker keeps assignments in a dict; large variable
    # numbers must not size the new checker's tables either.
    "huge-variable-numbers": (
        [[1], [-1, 2]],
        [
            ("a", [2, 10**12]),
            ("a", [-(10**12), 2, 10**15]),
            ("a", [10**18, -(10**18)]),
            ("d", [10**15, 2, -(10**12)]),
            ("a", [10**12]),
        ],
        False,
        "step 4: clause [1000000000000] is not a RUP consequence",
    ),
    "new-variable-in-a-lemma": (
        [[1], [-1, 2]],
        [("a", [-(10**12)])],
        False,
        "step 0: clause [-1000000000000] is not a RUP consequence",
    ),
    "unknown-action": (
        [[1]],
        [("a", [1]), ("x", [1])],
        False,
        "step 1: unknown proof action 'x'",
    ),
    "no-empty-clause": (
        [[1], [-1, 2]],
        [("a", [2])],
        True,
        "proof does not derive the empty clause",
    ),
}


@pytest.mark.parametrize("name", sorted(HAND_CASES))
def test_hand_cases_get_the_oracles_verdict(name):
    clauses, proof, require_empty_clause, expected = HAND_CASES[name]
    formula = CnfFormula(clauses)
    assert _same_verdict(formula, proof, require_empty_clause) == expected
