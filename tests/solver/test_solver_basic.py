"""Basic behaviour of the CDCL engine: trivial formulas, budgets,
incrementality, assumptions, model verification."""

import pytest

from repro.cnf.formula import CnfFormula, words_to_clauses
from repro.solver import (
    SolveStatus,
    Solver,
    berkmin_config,
    solve_formula,
)


def test_empty_formula_is_sat():
    result = Solver(CnfFormula()).solve()
    assert result.status is SolveStatus.SAT
    assert result.model == {}


def test_empty_clause_is_unsat():
    formula = CnfFormula()
    formula.clauses.append([])
    result = Solver(formula).solve()
    assert result.status is SolveStatus.UNSAT


def test_single_unit():
    result = Solver(CnfFormula([[3]])).solve()
    assert result.status is SolveStatus.SAT
    assert result.model[3] is True


def test_contradictory_units():
    result = Solver(CnfFormula([[1], [-1]])).solve()
    assert result.status is SolveStatus.UNSAT


def test_tiny_unsat():
    formula = CnfFormula([[1, 2], [-1, 2], [1, -2], [-1, -2]])
    result = Solver(formula).solve()
    assert result.status is SolveStatus.UNSAT


def test_tautology_only_formula_is_sat():
    result = Solver(CnfFormula([[1, -1]])).solve()
    assert result.status is SolveStatus.SAT


def test_duplicate_literals_are_handled():
    result = Solver(CnfFormula([[1, 1, 1], [-1, -1]])).solve()
    assert result.status is SolveStatus.UNSAT


def test_model_satisfies_formula():
    formula = CnfFormula([[1, 2, 3], [-1, -2], [-2, -3], [-1, -3], [2, 3]])
    result = Solver(formula).solve()
    assert result.status is SolveStatus.SAT
    assert formula.evaluate(result.model)


def test_solve_formula_wrapper():
    result = solve_formula(CnfFormula([[1]]))
    assert result.is_sat


def test_conflict_budget_yields_unknown():
    from repro.generators.pigeonhole import pigeonhole_formula

    result = Solver(pigeonhole_formula(6)).solve(max_conflicts=5)
    assert result.status is SolveStatus.UNKNOWN
    assert result.limit_reason == "conflict budget"


def test_decision_budget_yields_unknown():
    from repro.generators.pigeonhole import pigeonhole_formula

    result = Solver(pigeonhole_formula(6)).solve(max_decisions=2)
    assert result.status is SolveStatus.UNKNOWN
    assert result.limit_reason == "decision budget"


def test_status_is_not_boolean():
    with pytest.raises(TypeError):
        bool(SolveStatus.SAT)


def test_incremental_clause_addition():
    solver = Solver(CnfFormula([[1, 2]]))
    assert solver.solve().is_sat
    solver.add_clause([-1])
    result = solver.solve()
    assert result.is_sat
    assert result.model[2] is True
    solver.add_clause([-2])
    assert solver.solve().is_unsat
    # Once refuted, the solver stays refuted.
    assert solver.solve().is_unsat


def test_incremental_learned_clauses_persist():
    from repro.generators.pigeonhole import pigeonhole_formula

    solver = Solver(pigeonhole_formula(5))
    first = solver.solve()
    assert first.is_unsat
    # Conflicts already counted; a second call returns immediately.
    conflicts_before = solver.stats.conflicts
    second = solver.solve()
    assert second.is_unsat
    assert solver.stats.conflicts == conflicts_before


def test_assumptions_sat_and_unsat():
    solver = Solver(CnfFormula([[1, 2], [-1, 2]]))
    result = solver.solve(assumptions=[-2])
    assert result.is_unsat
    assert result.under_assumptions
    # The formula itself is still satisfiable afterwards.
    result = solver.solve()
    assert result.is_sat
    result = solver.solve(assumptions=[1])
    assert result.is_sat
    assert result.model[1] is True


def test_assumptions_respected_in_model():
    formula = CnfFormula([[1, 2, 3]])
    result = Solver(formula).solve(assumptions=[-1, -2])
    assert result.is_sat
    assert result.model[1] is False
    assert result.model[2] is False
    assert result.model[3] is True


def test_assumption_on_fresh_variable():
    solver = Solver(CnfFormula([[1]]))
    result = solver.solve(assumptions=[5])
    assert result.is_sat
    assert result.model[5] is True


def test_conflicting_assumptions():
    solver = Solver(CnfFormula([[1, 2]]))
    result = solver.solve(assumptions=[1, -1])
    assert result.is_unsat
    assert result.under_assumptions


def test_stats_accumulate():
    formula = CnfFormula([[1, 2], [-1, 2], [1, -2], [-1, -2]])
    solver = Solver(formula, config=berkmin_config())
    result = solver.solve()
    assert result.stats.conflicts >= 1
    assert result.stats.initial_clauses == 4
    assert result.stats.solve_time_seconds > 0


def test_add_formula_after_construction():
    solver = Solver()
    formula = CnfFormula([[1, 2], [-2]])
    assert solver.add_formula(formula)
    result = solver.solve()
    assert result.is_sat
    assert result.model[1] is True


def _table_lengths(solver):
    return [
        len(getattr(solver, name))
        for name in (
            "assigns", "levels", "reasons", "var_activity", "_seen",
            "_eliminated_mark", "lit_value", "lit_activity", "vsids", "watch_head",
        )
    ]


def test_variable_past_the_int32_literals_is_rejected_before_any_change():
    """A variable whose encoded literal cannot fit the int32 buffers
    raises ValueError and leaves the solver as it was, so it answers
    the clauses added after."""
    solver = Solver()
    lengths = _table_lengths(solver)
    with pytest.raises(ValueError):
        solver.add_clause([1, 2**40])
    with pytest.raises(ValueError):
        solver.add_clauses([[1, 2**40]])
    assert solver.num_variables == 0 and _table_lengths(solver) == lengths
    assert solver.add_clauses([[3, 4], [-3, 5]])
    result = solver.solve()
    assert result.is_sat
    assert CnfFormula([[3, 4], [-3, 5]]).evaluate(result.model)


def test_bulk_add_stops_at_the_clause_naming_a_variable_past_the_bound(monkeypatch):
    """Within int32 range the bound holds too (lowered here, so that no
    test grows tables to it): a batch loads up to the clause naming a
    variable past it, which raises."""
    from repro.solver import solver as solver_module

    monkeypatch.setattr(solver_module, "MAX_VARIABLES", 10)
    solver = Solver()
    with pytest.raises(ValueError):
        solver.add_clauses([[1, 2], [-11, 3], [4]])
    assert solver.num_variables == 2 and solver.stats.initial_clauses == 1
    with pytest.raises(ValueError):
        solver.ensure_variables(11)
    assert solver.num_variables == 2


def test_a_batch_of_one_shot_clauses_loads_like_lists():
    """Clauses that read only once go through the reference, so a bad
    clause after them leaves them added as they were."""
    solver = Solver()
    with pytest.raises(ValueError):
        solver.add_clauses([iter([1, 2]), (literal for literal in [-1]), [3, 0]])
    assert words_to_clauses(solver._pristine) == [[1, 2], [-1]]
    assert solver.stats.initial_clauses == 2


@pytest.mark.parametrize("failing_step", ["table", "scratch"])
def test_memory_error_while_growing_leaves_the_tables_unchanged(monkeypatch, failing_step):
    """Growth is all or nothing: a MemoryError part way (here in the
    third table's extension, or in the kernels' scratch after every
    table grew) cuts every table back to the old variable count."""
    from repro.solver import solver as solver_module

    solver = Solver(CnfFormula([[1, 2], [-1, 2]]))
    lengths = _table_lengths(solver)
    if failing_step == "table":
        real_array = solver_module.array
        made = []

        def array(*args):
            made.append(args)
            if len(made) == 3:
                raise MemoryError
            return real_array(*args)

        monkeypatch.setattr(solver_module, "array", array)
    else:

        def size_scratch(levels):
            raise MemoryError

        monkeypatch.setattr(solver, "_size_scratch", size_scratch)
    with pytest.raises(MemoryError):
        solver.ensure_variables(40)
    monkeypatch.undo()
    assert solver.num_variables == 2 and _table_lengths(solver) == lengths
    assert solver.add_clauses([[-2, 3], [-3, -2]])
    assert solver.solve().is_unsat
