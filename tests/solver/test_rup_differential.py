"""Differential gate: the watched-literal RUP checker against the naive one.

``repro.proof.check_rup_proof`` must accept exactly the proofs the naive
checker in ``rup_oracle`` accepts, and reject the others at the same
step with the same :class:`ProofError` message, whatever hints it is
given; the oracle ignores hints.  The proofs come from four places:

* every proof the proof tests and the 50-formula pool of
  ``test_oracle_differential.py`` produce, with the solver's hints;
* 600 seeded mutations of small real proofs, keeping the solver's hints
  (which then point at shifted steps);
* 600 seeded mutations of the hints alone;
* hand cases for the deletions that rebuild the top-level trail.
"""

from __future__ import annotations

import random

import pytest

from repro.cnf import shuffle_formula
from repro.cnf.formula import CnfFormula
from repro.experiments.suites import paper_suite
from repro.generators.pigeonhole import pigeonhole_formula
from repro.proof import ProofError, check_rup_proof, rup
from repro.solver import Solver
from repro.solver.config import berkmin_config, chaff_config

import rup_oracle
from test_oracle_differential import _pool
from test_proof import _above_hole4

ACCEPTED = "accepted"


def _verdict(check, formula, proof, require_empty_clause, **hints):
    try:
        check(formula, proof, require_empty_clause=require_empty_clause, **hints)
    except ProofError as error:
        return str(error)
    return ACCEPTED


def _same_verdict(formula, proof, require_empty_clause=True, hints=None) -> str:
    """Run both checkers; fail unless they agree.  Returns the verdict."""
    expected = _verdict(rup_oracle.check_rup_proof, formula, proof, require_empty_clause)
    actual = _verdict(check_rup_proof, formula, proof, require_empty_clause, hints=hints)
    assert actual == expected, (proof, hints, expected, actual)
    return expected


def _unsat_proofs(formulas, config):
    """``(formula, proof, hints)`` of the UNSAT members of ``formulas``."""
    results = ((formula, Solver(formula, config=config).solve()) for formula in formulas)
    return [
        (formula, result.proof, result.proof_hints)
        for formula, result in results
        if result.is_unsat
    ]


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
    for formula, proof, hints in cases:
        assert _same_verdict(formula, proof, hints=hints) == ACCEPTED


# ---------------------------------------------------------------------------
# Mutated proofs
# ---------------------------------------------------------------------------
# Each mutation changes the proof and moves the hints with their steps,
# so a hint naming a later step now names the wrong one.
def _drop_lemma(rng, formula, proof, hints):
    index = rng.choice([i for i, (kind, _) in enumerate(proof) if kind == "a"])
    del proof[index]
    del hints[index]


def _flip_literal(rng, formula, proof, hints):
    index = rng.choice([i for i, (_, clause) in enumerate(proof) if clause])
    kind, clause = proof[index]
    position = rng.randrange(len(clause))
    clause = list(clause)
    clause[position] = -clause[position]
    proof[index] = (kind, clause)


def _delete_then_use(rng, formula, proof, hints):
    index = rng.choice([i for i, (kind, _) in enumerate(proof) if kind == "a"])
    proof.insert(index + 1, ("d", list(proof[index][1])))
    hints.insert(index + 1, None)


def _delete_original(rng, formula, proof, hints):
    index = rng.randrange(len(proof) + 1)
    proof.insert(index, ("d", list(rng.choice(formula.clauses))))
    hints.insert(index, None)


def _duplicate_lemma(rng, formula, proof, hints):
    index = rng.choice([i for i, (kind, _) in enumerate(proof) if kind == "a"])
    proof.insert(index + 1, ("a", list(proof[index][1])))
    hints.insert(index + 1, hints[index])


def _swap_steps(rng, formula, proof, hints):
    first, second = rng.sample(range(len(proof)), 2)
    proof[first], proof[second] = proof[second], proof[first]
    hints[first], hints[second] = hints[second], hints[first]


MUTATIONS = (
    _drop_lemma,
    _flip_literal,
    _delete_then_use,
    _delete_original,
    _duplicate_lemma,
    _swap_steps,
)


def test_mutated_proofs_get_the_oracles_verdict():
    bases = _mutation_bases()
    rng = random.Random(20261017)
    rejected = 0
    for trial in range(600):
        formula, proof, hints = bases[trial % len(bases)]
        mutated, moved = list(proof), list(hints)
        MUTATIONS[trial % len(MUTATIONS)](rng, formula, mutated, moved)
        if _same_verdict(formula, mutated, hints=moved) != ACCEPTED:
            rejected += 1
    # Both verdicts occur, so the agreement is not vacuous.
    assert 100 < rejected < 500


def _mutation_bases():
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
    return bases


# ---------------------------------------------------------------------------
# Mutated hints
# ---------------------------------------------------------------------------
# Each mutation changes the hints of one addition.  Two change the proof
# too: a deletion of a clause the hints name, and a wrong hinted lemma.
def _hinted_step(rng, proof, hints) -> int:
    return rng.choice([i for i, ids in enumerate(hints) if ids and proof[i][1]])


def _drop_hint(rng, formula, proof, hints):
    index = _hinted_step(rng, proof, hints)
    ids = list(hints[index])
    del ids[rng.randrange(len(ids))]
    hints[index] = ids


def _reverse_hints(rng, formula, proof, hints):
    index = _hinted_step(rng, proof, hints)
    hints[index] = hints[index][::-1]


def _name_a_deleted_clause(rng, formula, proof, hints):
    """Delete a clause a step's hints name, just before that step."""
    index = _hinted_step(rng, proof, hints)
    named = rng.choice(hints[index])
    clause = formula.clauses[-1 - named] if named < 0 else proof[named][1]
    proof.insert(index, ("d", list(clause)))
    hints.insert(index, None)
    # Every step from ``index`` on moved one place.
    hints[:] = [
        None if ids is None else [i + 1 if i >= index else i for i in ids]
        for ids in hints
    ]


def _name_past_the_end(rng, formula, proof, hints):
    index = _hinted_step(rng, proof, hints)
    ids = list(hints[index])
    ids[rng.randrange(len(ids))] = rng.choice((index, index + 1, len(proof) + 7))
    hints[index] = ids


def _name_before_the_first_input(rng, formula, proof, hints):
    index = _hinted_step(rng, proof, hints)
    ids = list(hints[index])
    ids[rng.randrange(len(ids))] = -1 - len(formula.clauses) - rng.randrange(3)
    hints[index] = ids


def _name_a_satisfied_clause(rng, formula, proof, hints):
    """Put first an input clause that the negated lemma satisfies."""
    index = _hinted_step(rng, proof, hints)
    lemma = set(proof[index][1])
    satisfied = [
        position
        for position, clause in enumerate(formula.clauses)
        if any(-literal in lemma for literal in clause)
    ]
    if satisfied:
        hints[index] = [-1 - rng.choice(satisfied)] + list(hints[index])
    else:
        hints[index] = hints[index][::-1]


def _hints_on_a_wrong_lemma(rng, formula, proof, hints):
    """Keep a step's hints but drop a literal from its lemma, or add a
    made-up lemma carrying a real step's hints."""
    index = _hinted_step(rng, proof, hints)
    clause = list(proof[index][1])
    if len(clause) > 1 and rng.random() < 0.5:
        del clause[rng.randrange(len(clause))]
        proof[index] = ("a", clause)
    else:
        variable = rng.randint(1, formula.num_variables)
        proof.insert(index, ("a", [rng.choice((variable, -variable))]))
        hints.insert(index, hints[index])


HINT_MUTATIONS = (
    _drop_hint,
    _reverse_hints,
    _name_a_deleted_clause,
    _name_past_the_end,
    _name_before_the_first_input,
    _name_a_satisfied_clause,
    _hints_on_a_wrong_lemma,
)


def test_mutated_hints_get_the_oracles_verdict(monkeypatch):
    bases = _mutation_bases()
    fallbacks = []
    full_check = rup._Database._full_check

    def recording(database, literals):
        fallbacks.append(len(database.step_cids))
        return full_check(database, literals)

    monkeypatch.setattr(rup._Database, "_full_check", recording)
    rng = random.Random(20261018)
    rejected = 0
    for trial in range(700):
        formula, proof, hints = bases[trial % len(bases)]
        mutated, changed = list(proof), list(hints)
        HINT_MUTATIONS[trial % len(HINT_MUTATIONS)](rng, formula, mutated, changed)
        if _same_verdict(formula, mutated, hints=changed) != ACCEPTED:
            rejected += 1
    # Both verdicts occur, and hints that lead nowhere fall back, so the
    # agreement is not vacuous.
    assert 50 < rejected < 350
    assert len(fallbacks) > 300


@pytest.mark.parametrize(
    "hints",
    [
        None,
        [],
        [None],
        [[]],
        "not hints",
        [["x"]],
        [[1.5]],
        [[10**30, -(10**30)]],
        [[-1, -1, -1]],
    ],
)
def test_malformed_hints_only_cost_a_fallback(hints):
    formula = CnfFormula([[1, 2], [-1, 2], [1, -2], [-1, -2]])
    proof = [("a", [2]), ("a", [])]
    assert _same_verdict(formula, proof, hints=hints) == ACCEPTED
    bogus = [("a", [3]), ("a", [])]
    assert _same_verdict(formula, bogus, hints=hints) == (
        "step 0: clause [3] is not a RUP consequence"
    )


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
