"""Unit tests for the DIMACS reader/writer."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cnf.dimacs import DimacsError, parse_dimacs, write_dimacs
from repro.cnf.formula import CnfFormula

BASIC = """\
c a comment
p cnf 3 2
1 -2 0
2 3 -1 0
"""


def test_parse_basic():
    formula = parse_dimacs(BASIC)
    assert formula.num_variables == 3
    assert formula.clauses == [[1, -2], [2, 3, -1]]
    assert "a comment" in formula.comment


def test_parse_multiline_clause():
    formula = parse_dimacs("p cnf 3 1\n1\n-2\n3 0\n")
    assert formula.clauses == [[1, -2, 3]]


def test_parse_multiple_clauses_per_line():
    formula = parse_dimacs("p cnf 2 2\n1 0 -2 0\n")
    assert formula.clauses == [[1], [-2]]


def test_parse_missing_terminator_tolerated():
    formula = parse_dimacs("p cnf 2 1\n1 2\n")
    assert formula.clauses == [[1, 2]]


def test_parse_headerless():
    formula = parse_dimacs("1 2 0\n-1 0\n")
    assert formula.num_variables == 2
    assert formula.clauses == [[1, 2], [-1]]


def test_parse_percent_end_marker():
    formula = parse_dimacs("p cnf 2 1\n1 2 0\n%\n0\n")
    assert formula.clauses == [[1, 2]]


def test_parse_clause_count_mismatch_recorded():
    formula = parse_dimacs("p cnf 2 5\n1 0\n")
    assert "declared 5" in formula.comment


def _error(text: str) -> str:
    with pytest.raises(DimacsError) as caught:
        parse_dimacs(text)
    return str(caught.value)


def test_parse_rejects_bad_header():
    assert _error("p cnf 2\n1 0\n") == "line 1: malformed header 'p cnf 2'"
    assert _error("c x\np dnf 2 1\n1 0\n") == "line 2: malformed header 'p dnf 2 1'"
    assert _error("p cnf -1 1\n1 0\n") == "line 1: negative header field"
    assert _error("\np cnf two 1\n1 0\n") == "line 2: non-integer header field"


def test_parse_rejects_duplicate_header():
    assert _error("p cnf 1 1\np cnf 1 1\n1 0\n") == "line 2: duplicate problem header"


def test_parse_rejects_garbage_token():
    assert _error("p cnf 1 1\n1 x 0\n") == "line 2: bad token 'x'"
    assert _error("p cnf 2 2\n1 0\n\n2 -1.5 0\n") == "line 4: bad token '-1.5'"


def test_parse_reports_the_first_error_in_file_order():
    # A bad token before a bad header is reported first, and vice versa.
    assert _error("p cnf 2 1\n1 y 0\np cnf 2 1\n") == "line 2: bad token 'y'"
    assert _error("p cnf 2 1\n1 0\np cnf 2 1\n2 y 0\n") == (
        "line 3: duplicate problem header"
    )


def test_parse_lone_zero_is_the_empty_clause():
    formula = parse_dimacs("p cnf 2 2\n1 2 0\n0\n")
    assert formula.clauses == [[1, 2], []]
    assert formula.num_variables == 2


def test_parse_header_may_declare_unused_variables():
    formula = parse_dimacs("p cnf 9 1\n1 -2 0\n")
    assert formula.num_variables == 9
    assert formula.clauses == [[1, -2]]


def test_parse_comment_after_percent_is_kept():
    formula = parse_dimacs("p cnf 2 1\n1 2 0\n%\nc trailer\n0\n")
    assert formula.clauses == [[1, 2]]
    assert formula.comment == "trailer"


def test_write_contains_header_and_comments():
    formula = CnfFormula([[1, -2]], comment="hello")
    text = write_dimacs(formula)
    assert "c hello" in text
    assert "p cnf 2 1" in text
    assert "1 -2 0" in text


def test_file_roundtrip(tmp_path):
    from repro.cnf.dimacs import parse_dimacs_file, write_dimacs_file

    formula = CnfFormula([[1, -2], [2]], comment="roundtrip")
    path = tmp_path / "x.cnf"
    write_dimacs_file(formula, path)
    loaded = parse_dimacs_file(path)
    assert loaded.clauses == formula.clauses
    assert loaded.num_variables == formula.num_variables


clauses_strategy = st.lists(
    st.lists(
        st.integers(min_value=1, max_value=9).flatmap(lambda v: st.sampled_from([v, -v])),
        min_size=1,
        max_size=5,
    ),
    max_size=12,
)


@given(clauses_strategy)
def test_roundtrip_property(clauses):
    formula = CnfFormula(clauses)
    reparsed = parse_dimacs(write_dimacs(formula))
    assert reparsed.clauses == formula.clauses
    assert reparsed.num_variables == formula.num_variables
