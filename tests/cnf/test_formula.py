"""Unit tests for CnfFormula."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cnf.formula import CnfFormula, unsatisfied_clause


def test_empty_formula():
    formula = CnfFormula()
    assert formula.num_variables == 0
    assert formula.num_clauses == 0
    assert formula.evaluate({})


def test_add_clause_grows_variables():
    formula = CnfFormula()
    formula.add_clause([3, -7])
    assert formula.num_variables == 7
    assert formula.num_clauses == 1


def test_add_clause_rejects_zero():
    formula = CnfFormula()
    with pytest.raises(ValueError):
        formula.add_clause([1, 0])


def test_add_clause_rejects_non_int():
    formula = CnfFormula()
    with pytest.raises(ValueError):
        formula.add_clause(["x"])


def test_new_variable_allocates_fresh():
    formula = CnfFormula([[1, 2]])
    assert formula.new_variable() == 3
    assert formula.new_variable() == 4


def test_copy_is_deep():
    formula = CnfFormula([[1, 2]])
    duplicate = formula.copy()
    duplicate.clauses[0].append(3)
    duplicate.add_clause([4])
    assert formula.clauses == [[1, 2]]
    assert formula.num_variables == 2


def test_evaluate_and_falsified():
    formula = CnfFormula([[1, 2], [-1, 2], [-2, 1]])
    assert formula.evaluate({1: True, 2: True})
    assert not formula.evaluate({1: False, 2: False})
    assert formula.falsified_clauses({1: False, 2: False}) == [[1, 2]]


def test_evaluate_requires_complete_assignment():
    formula = CnfFormula([[1, 2]])
    with pytest.raises(KeyError):
        formula.evaluate({1: False})


def test_variables_and_literal_count():
    formula = CnfFormula([[1, -3], [3]])
    assert formula.variables() == {1, 3}
    assert formula.literal_count() == 3


def test_negative_num_variables_rejected():
    with pytest.raises(ValueError):
        CnfFormula(num_variables=-1)


@given(
    st.lists(
        st.lists(
            st.integers(min_value=1, max_value=6).flatmap(
                lambda v: st.sampled_from([v, -v])
            ),
            min_size=1,
            max_size=4,
        ),
        max_size=10,
    ),
    st.dictionaries(st.integers(1, 6), st.booleans()),
)
def test_evaluate_matches_python_semantics(clauses, partial_model):
    formula = CnfFormula(clauses)
    model = {variable: partial_model.get(variable, False) for variable in range(1, 7)}
    expected = all(
        any(model[abs(literal)] == (literal > 0) for literal in clause)
        for clause in clauses
    )
    assert formula.evaluate(model) == expected


def _unsatisfied_by_expression(clauses, model):
    """The per-literal model check both checkers ran before the set."""
    for clause in clauses:
        if not any(model.get(abs(lit), False) == (lit > 0) for lit in clause):
            return clause
    return None


def test_unsatisfied_clause_matches_the_per_literal_expression():
    """Differential over random models: besides booleans, values that are
    ints, floats, None or strings, negative keys, absent variables, and
    clauses naming variables past ``num_variables`` or literal 0."""
    rng = random.Random(7)
    values = (True, False, 1, 0, 1.0, 0.0, 2, -1, None, "x", "", 0.5)
    checked = 0
    for _ in range(3000):
        num_variables = rng.randint(0, 8)
        reach = num_variables + 2
        clauses = [
            [rng.choice((1, -1)) * rng.randint(0, reach) for _ in range(rng.randint(0, 4))]
            for _ in range(rng.randint(0, 6))
        ]
        model = {}
        for variable in range(-reach, reach + 1):
            if rng.random() < 0.6:
                model[variable] = rng.choice(values)
        expected = _unsatisfied_by_expression(clauses, model)
        found = unsatisfied_clause(clauses, model, num_variables)
        assert found is expected, (clauses, model, num_variables)
        checked += expected is not None
    assert checked > 500  # both verdicts occur often
