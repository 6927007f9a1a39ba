"""Phase-selection heuristics: symmetrization and nb_two (Section 7)."""

import pytest

from repro.cnf.formula import CnfFormula
from repro.cnf.literals import encode_literal
from repro.solver import Solver
from repro.solver.config import (
    berkmin_config,
    sat_top_config,
    take_0_config,
    take_1_config,
    unsat_top_config,
)
from repro.solver.phase import formula_literal, nb_two


def _clause(solver, *dimacs):
    """A learned record (unindexed) for the top-clause phase to read."""
    return solver._push_record([encode_literal(lit) for lit in dimacs], learned=True)


def test_symmetrize_prefers_lagging_literal():
    """The paper's example: lit_activity(c)=3 < lit_activity(~c)=5 -> branch c=0."""
    solver = Solver(CnfFormula([[1, 2, 3]]))
    variable = 3
    solver.lit_activity[encode_literal(3)] = 3
    solver.lit_activity[encode_literal(-3)] = 5
    literal = solver._top_clause_literal(variable, _clause(solver, 1, 2, 3))
    assert literal == encode_literal(-3)  # c = 0 explored first

    solver.lit_activity[encode_literal(3)] = 9
    literal = solver._top_clause_literal(variable, _clause(solver, 1, 2, 3))
    assert literal == encode_literal(3)  # now c = 1 explored first


def test_symmetrize_tie_is_random_but_seeded():
    values = set()
    for seed in range(8):
        solver = Solver(CnfFormula([[1]]), config=berkmin_config(seed=seed))
        values.add(solver._top_clause_literal(1, _clause(solver, 1)))
    assert values == {encode_literal(1), encode_literal(-1)}


def test_sat_top_and_unsat_top():
    solver = Solver(CnfFormula([[1, 2]]), config=sat_top_config())
    clause = _clause(solver, 1, -2)
    assert solver._top_clause_literal(2, clause) == encode_literal(-2)
    solver.config = unsat_top_config()
    assert solver._top_clause_literal(2, clause) == encode_literal(2)


def test_take_0_and_take_1():
    solver = Solver(CnfFormula([[1, 2]]), config=take_0_config())
    assert solver._top_clause_literal(1, _clause(solver, 1, 2)) == encode_literal(-1)
    solver.config = take_1_config()
    assert solver._top_clause_literal(1, _clause(solver, 1, 2)) == encode_literal(1)


def test_unknown_heuristic_raises():
    solver = Solver(CnfFormula([[1]]))
    solver.config = berkmin_config(top_clause_phase="nope")
    with pytest.raises(ValueError):
        solver._top_clause_literal(1, _clause(solver, 1))
    solver.config = berkmin_config(formula_phase="nope")
    with pytest.raises(ValueError):
        formula_literal(solver, 1)


def test_nb_two_counts_neighbourhood():
    """nb_two(l) = #bin(l) + sum over (l v v) of #bin(~v)."""
    formula = CnfFormula(
        [
            [1, 2],  # binary with 1
            [1, 3],  # binary with 1
            [-2, 4],  # binary with ~2 (neighbour through [1, 2])
            [-2, 5],
            [-3, 6],
            [1, 2, 3],  # ternary: ignored by nb_two
        ]
    )
    solver = Solver(formula)
    score = nb_two(solver, encode_literal(1))
    # 2 binaries with literal 1, plus #bin(~2) = 2 and #bin(~3) = 1.
    assert score == 2 + 2 + 1


def test_nb_two_threshold_stops_early():
    formula = CnfFormula([[1, other] for other in range(2, 40)])
    solver = Solver(formula, config=berkmin_config(nb_two_threshold=10))
    score = nb_two(solver, encode_literal(1))
    assert score > 10  # stopped soon after crossing the threshold
    assert score < 80


def test_formula_literal_falsifies_higher_nb_two():
    formula = CnfFormula(
        [
            [1, 2],
            [1, 3],
            [1, 4],  # literal 1 has a rich binary neighbourhood
            [-2, 5],
            [-3, 5],
            [2, 3, 4, 5],
        ]
    )
    solver = Solver(formula)
    literal = formula_literal(solver, 1)
    # nb_two(1) > nb_two(-1), so literal 1 is set to 0: enqueue -1.
    assert literal == encode_literal(-1)


def test_formula_phase_fixed_variants():
    solver = Solver(CnfFormula([[1, 2]]), config=berkmin_config(formula_phase="take_0"))
    assert formula_literal(solver, 1) == encode_literal(-1)
    solver.config = berkmin_config(formula_phase="take_1")
    assert formula_literal(solver, 1) == encode_literal(1)


def test_formula_phase_random_is_seeded():
    values = set()
    for seed in range(8):
        solver = Solver(
            CnfFormula([[1]]),
            config=berkmin_config(formula_phase="take_rand", seed=seed),
        )
        values.add(formula_literal(solver, 1))
    assert values == {encode_literal(1), encode_literal(-1)}


def test_nb_two_tie_breaks_randomly_but_seeded():
    # Symmetric binary neighbourhoods for both phases of variable 1.
    formula = CnfFormula([[1, 2], [-1, 3]])
    first = Solver(formula, config=berkmin_config(seed=3))
    second = Solver(formula, config=berkmin_config(seed=3))
    assert formula_literal(first, 1) == formula_literal(second, 1)


def test_learned_binary_clauses_feed_nb_two(push_learned):
    solver = Solver(CnfFormula([[1, 2, 3]]))
    before = nb_two(solver, encode_literal(1))
    push_learned(solver, [1, -2])
    after = nb_two(solver, encode_literal(1))
    assert after == before + 1
