"""Differential gate: the engine against an independent oracle.

Every answer is checked two ways, neither of which shares code with the
solver's heuristics: its status must match the plain DPLL baseline
(:mod:`repro.baselines.dpll`, no learning, no inprocessing), and it must
pass the trusted-results gate at level ``"full"`` — every SAT model
verifies against the original formula (eliminated-variable
reconstruction makes this non-trivial) and every UNSAT answer carries a
DRUP proof that RUP-checks.

The pool is 50 pinned formulas across mixed families, with restart and
inprocessing intervals cranked low so elimination, learned-clause
sweeps, and arena GC all fire mid-search on the non-trivial instances.
"""

from __future__ import annotations

import random

from repro.baselines.dpll import DpllSolver
from repro.cnf.formula import CnfFormula
from repro.generators import (
    pigeonhole_formula,
    planted_ksat,
    random_ksat,
    random_xor_system,
    xor_system_formula,
)
from repro.reliability.verify import verify_result
from repro.solver.config import berkmin_config
from repro.solver.result import SolveStatus
from repro.solver.solver import Solver


def _random_soup(rng: random.Random) -> CnfFormula:
    """A small random formula with clause lengths 1..5 (mixed SAT/UNSAT)."""
    n = rng.randint(4, 12)
    clauses = []
    for _ in range(rng.randint(5, 45)):
        arity = min(rng.randint(1, 5), n)
        variables = rng.sample(range(1, n + 1), arity)
        clauses.append([v * rng.choice((1, -1)) for v in variables])
    return CnfFormula(clauses, num_variables=n)


def _parity(nv: int, ne: int, seed: int, planted: bool) -> CnfFormula:
    return xor_system_formula(random_xor_system(nv, ne, 3, seed=seed, planted=planted))


def _pool() -> list[tuple[str, CnfFormula]]:
    rng = random.Random(20260808)
    formulas = [(f"soup{i}", _random_soup(rng)) for i in range(30)]
    formulas += [(f"hole{n}", pigeonhole_formula(n)) for n in (3, 4, 5)]
    formulas += [(f"parity_sat{s}", _parity(10, 10, s, True)) for s in (1, 2, 3, 4)]
    formulas += [(f"parity_unsat{s}", _parity(8, 16, s, False)) for s in (1, 2, 3, 4)]
    formulas += [(f"ksat{s}", random_ksat(25, 106, 3, seed=s)) for s in range(5)]
    formulas += [(f"planted{s}", planted_ksat(30, 120, 3, seed=s)) for s in range(4)]
    return formulas


def test_answers_match_dpll_oracle_and_pass_the_trusted_gate():
    pool = _pool()
    assert len(pool) == 50
    config = berkmin_config(restart_interval=20, inprocess_interval=2, proof_logging=True)
    for name, formula in pool:
        result = Solver(formula, config=config).solve()  # raises on an invalid model
        assert result.status is not SolveStatus.UNKNOWN, name
        satisfiable = DpllSolver(formula).solve().satisfiable
        expected = SolveStatus.SAT if satisfiable else SolveStatus.UNSAT
        assert result.status is expected, (
            f"{name}: solver says {result.status.name}, DPLL says {expected.name}"
        )
        verified = verify_result(formula, result, "full")
        assert verified in ("model", "proof"), (name, verified)
