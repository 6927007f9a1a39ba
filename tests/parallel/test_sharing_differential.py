"""Differential gate: sharing-on vs sharing-off portfolio agreement.

Clause sharing must never change an answer — only how fast it arrives.
Both arms run the same 50-formula mixed pool used by the oracle
differential gate, under the full trusted-results verification the
portfolio applies to winners: SAT models are checked against the
original formula and UNSAT proofs are RUP-checked, so an unsound
import in either arm fails here even if both arms happen to agree.

The pool is deliberately small per instance; restart intervals are
cranked low so the sharing arm actually reaches its level-0 import
points, and the test asserts the bus exported *something* across the
pool — an agreement gate over a bus that never delivered would be
vacuous.  Admitted imports are asserted separately on a longer planted
instance: on the quick pool most shared clauses are still parked
awaiting their RUP probe when the winner finishes, which is the
validation gate doing its job, not a delivery failure.
"""

from __future__ import annotations

import random

import pytest

from repro.cnf.formula import CnfFormula
from repro.generators import (
    pigeonhole_formula,
    planted_ksat,
    random_ksat,
    random_xor_system,
    xor_system_formula,
)
from repro.parallel import PortfolioSolver
from repro.solver.config import config_by_name
from repro.solver.result import SolveStatus


def _random_soup(rng: random.Random) -> CnfFormula:
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


def _configs():
    return [
        config_by_name("berkmin", seed=1, restart_interval=20),
        config_by_name("chaff", seed=2, restart_interval=20),
    ]


@pytest.mark.slow
def test_sharing_on_and_off_agree_across_the_pool():
    pool = _pool()
    assert len(pool) == 50
    total_imported = 0
    total_exported = 0
    for name, formula in pool:
        statuses = {}
        for share in (False, True):
            portfolio = PortfolioSolver(
                _configs(), jobs=2, verification="full", share=share
            )
            result = portfolio.solve(formula, max_seconds=60.0)
            assert result.status is not SolveStatus.UNKNOWN, (name, share)
            # The trusted-results gate: a SAT winner re-checks as a
            # model, an UNSAT winner's proof RUP-checks — imported
            # clauses included, because imports are DRUP-logged.
            assert result.verified in ("model", "proof"), (name, share)
            statuses[share] = result.status
            if share:
                total_imported += result.stats.shared_imported
                total_exported += result.stats.shared_exported
        assert statuses[False] is statuses[True], (
            f"{name}: sharing changed the answer — off "
            f"{statuses[False].name} vs on {statuses[True].name}"
        )
    # The gate must not be vacuous: across 50 mixed formulas the bus
    # has to have moved actual clauses out of the lanes.  Most of these
    # solves finish before any import clears its RUP parking probe, so
    # admitted imports are asserted on the longer instance below.
    assert total_exported > 0
    assert total_imported >= 0


@pytest.mark.slow
def test_sharing_admits_imports_on_a_longer_instance():
    """A run long enough for parked imports to clear their RUP probe.

    The two-seed BerkMin fleet on this planted draw admits imports (it
    is the portfolio bench's quick instance), and the winner still
    verifies under the full trusted-results gate.
    """
    configs = [
        config_by_name("berkmin", seed=1),
        config_by_name("berkmin", seed=3),
    ]
    portfolio = PortfolioSolver(configs, jobs=2, verification="full", share=True)
    result = portfolio.solve(planted_ksat(200, 900, 3, seed=1), max_seconds=120.0)
    assert result.status is SolveStatus.SAT
    assert result.verified == "model"
    assert result.stats.shared_exported > 0
    assert result.stats.shared_imported > 0
