"""Shared test fixtures and helpers."""

from __future__ import annotations

import random

import pytest

from repro.cnf.formula import CnfFormula, words_to_clauses
from repro.solver.config import CONFIG_FACTORIES, config_by_name


def random_formula(rng: random.Random, max_variables: int = 8, max_clauses: int = 24) -> CnfFormula:
    """A small random CNF for oracle comparisons (may be SAT or UNSAT)."""
    num_variables = rng.randint(1, max_variables)
    num_clauses = rng.randint(1, max_clauses)
    clauses = []
    for _ in range(num_clauses):
        arity = min(rng.randint(1, 3), num_variables)
        variables = rng.sample(range(1, num_variables + 1), arity)
        clauses.append([variable * rng.choice((1, -1)) for variable in variables])
    return CnfFormula(clauses, num_variables=num_variables)


def loaded_state(solver) -> dict:
    """Everything loading clauses into ``solver`` sets, for comparing two
    loads bit for bit (its input clauses as the lists its words yield)."""
    stats = {
        key: value
        for key, value in vars(solver.stats).items()
        if not key.endswith("_seconds")
    }
    return {
        "arena": solver.arena.tolist(),
        "watch_head": solver.watch_head.tolist(),
        "trail": solver.trail.tolist(),
        "lit_value": solver.lit_value.tolist(),
        "assigns": solver.assigns.tolist(),
        "levels": solver.levels.tolist(),
        "reasons": solver.reasons.tolist(),
        "seen": solver._seen.tolist(),
        "clause_act": solver.clause_act.tolist(),
        "clause_birth": solver.clause_birth,
        "clause_id": solver.clause_id.tolist(),
        "clauses": solver.clauses,
        "learned": solver.learned.tolist(),
        "proof": solver.proof,
        "hints": solver.proof_hints,
        "pristine": words_to_clauses(solver._pristine),
        "num_variables": solver.num_variables,
        "ok": solver.ok,
        "stats": stats,
    }


@pytest.fixture(params=sorted(CONFIG_FACTORIES))
def any_config(request):
    """Every named solver configuration, with fast test-sized constants."""
    return config_by_name(
        request.param, restart_interval=9, activity_decay_interval=16
    )
