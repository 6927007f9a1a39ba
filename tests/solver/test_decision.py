"""Decision strategies: BerkMin top-clause branching, the global
fallback, VSIDS, and the skin-effect instrumentation (Sections 5-6)."""

import pytest

from repro.cnf.formula import CnfFormula
from repro.cnf.literals import encode_literal
from repro.solver import Solver
from repro.solver.config import (
    berkmin_config,
    chaff_config,
    less_mobility_config,
    random_decision_config,
)


@pytest.fixture
def stacked(push_learned):
    """A solver with four free variables and a hand-built learned stack."""
    solver = Solver(CnfFormula([[1, 2, 3, 4]]))
    for literals in ([1, 2], [2, 3], [3, 4]):
        push_learned(solver, literals)
    solver.search_cursor = len(solver.learned) - 1
    return solver


def test_top_clause_is_topmost_unsatisfied(stacked):
    solver = stacked
    solver.var_activity[3] = 5
    solver.var_activity[4] = 2
    literal = solver._berkmin_decision()
    # Topmost clause [3, 4] is unsatisfied; variable 3 is more active.
    assert literal >> 1 == 3
    assert solver.stats.top_clause_decisions == 1
    assert solver.stats.skin_effect.get(0) == 1


def test_satisfied_top_clauses_are_skipped(stacked):
    solver = stacked
    # Satisfy the top clause [3, 4] by assigning 3 = True at a new level.
    solver.trail_limits.append(len(solver.trail))
    solver._enqueue(encode_literal(3), None)
    solver.search_cursor = len(solver.learned) - 1
    solver.var_activity[2] = 9
    literal = solver._berkmin_decision()
    # Now [2, 3]... is satisfied too (contains 3); [1, 2] is the top clause.
    assert literal >> 1 == 2
    assert solver.stats.skin_effect.get(2) == 1


def test_global_fallback_when_all_conflict_clauses_satisfied(stacked):
    solver = stacked
    solver.trail_limits.append(len(solver.trail))
    solver._enqueue(encode_literal(2), None)
    solver._enqueue(encode_literal(3), None)
    solver.search_cursor = len(solver.learned) - 1
    solver.var_activity[4] = 1
    solver.var_activity[1] = 7
    literal = solver._berkmin_decision()
    assert literal >> 1 == 1  # most active free variable overall
    assert solver.stats.formula_decisions == 1
    assert solver.search_cursor == -1


def test_cursor_resets_on_backtrack(stacked):
    solver = stacked
    solver.trail_limits.append(len(solver.trail))
    solver._enqueue(encode_literal(3), None)
    solver._berkmin_decision()
    assert solver.search_cursor < len(solver.learned) - 1
    solver._backtrack(0)
    assert solver.search_cursor == len(solver.learned) - 1


def test_global_decision_ignores_stack(stacked):
    solver = stacked
    solver.var_activity[1] = 50
    literal = solver._global_decision()
    assert literal >> 1 == 1


def test_vsids_picks_highest_literal_counter(stacked):
    solver = stacked
    solver.vsids[encode_literal(-2)] = 10
    literal = solver._vsids_decision()
    assert literal == encode_literal(-2)


def test_vsids_sets_chosen_literal_true():
    solver = Solver(CnfFormula([[1, 2]]), config=chaff_config())
    solver.vsids[encode_literal(-1)] = 3
    result = solver.solve()
    assert result.is_sat
    assert result.model[1] is False  # the hot literal was made true


def test_decision_returns_none_when_all_assigned():
    solver = Solver(CnfFormula([[1]]))
    solver._propagate()
    assert solver._choose() is None


def test_random_decision_is_seeded():
    config = random_decision_config(seed=5)
    first = Solver(CnfFormula([[1, 2, 3]]), config=config).solve()
    second = Solver(CnfFormula([[1, 2, 3]]), config=config).solve()
    assert first.model == second.model


def test_skin_effect_profile_decreases_on_hard_instance():
    """The Table 3 phenomenon: younger clauses dominate decision-making."""
    from repro.generators.pigeonhole import pigeonhole_formula
    from repro.experiments.table3 import monotone_share

    solver = Solver(pigeonhole_formula(7), config=berkmin_config())
    solver.solve(max_conflicts=20_000)
    profile = solver.stats.skin_effect
    assert sum(profile.values()) == solver.stats.top_clause_decisions
    assert monotone_share(profile, prefix=6) >= 0.6


def test_wide_window_considers_multiple_top_clauses(stacked):
    """Remark 2 extension: a window > 1 can pick a variable from a deeper
    unsatisfied clause when it is more active."""
    from repro.solver.config import wide_window_config

    solver = stacked
    solver.config = wide_window_config(window=3)
    solver.var_activity[1] = 99  # only in the bottom clause [1, 2]
    solver.var_activity[4] = 5
    literal = solver._berkmin_decision()
    assert literal >> 1 == 1
    # The skin-effect distance still refers to the topmost unsatisfied clause.
    assert solver.stats.skin_effect.get(0) == 1


def test_wide_window_equals_paper_behaviour_with_window_one():
    from repro.solver.config import wide_window_config

    from repro.generators.pigeonhole import pigeonhole_formula
    from repro.solver.solver import Solver

    base = Solver(pigeonhole_formula(5)).solve()
    windowed = Solver(
        pigeonhole_formula(5), config=wide_window_config(window=1, name="berkmin")
    ).solve()
    assert base.status is windowed.status
    assert base.stats.decisions == windowed.stats.decisions


def test_less_mobility_still_counts_formula_decisions():
    from repro.generators.pigeonhole import pigeonhole_formula

    solver = Solver(pigeonhole_formula(5), config=less_mobility_config())
    result = solver.solve()
    assert result.is_unsat
    assert solver.stats.top_clause_decisions == 0
    assert solver.stats.formula_decisions > 0
