"""The words reader against the line-by-line reader it replaced.

``dimacs_oracle.oracle_parse`` is the parser ``parse_dimacs`` was until
the reader learned to convert an all-integer body as a whole.  On random
and malformed DIMACS both must give the same clauses, ``num_variables``
and comment, or the same :class:`DimacsError` text.  The accepted inputs
and every default-suite member are then loaded three ways: by the kernel
from the parser's words, under ``REPRO_SAT_PURE=1``, and one
``add_clause`` at a time over the oracle's lists; all three must leave
the same solver.
"""

from __future__ import annotations

import pickle
import random
from array import array

import pytest

from repro.cnf import dimacs
from repro.cnf.dimacs import DimacsError, parse_dimacs, write_dimacs
from repro.cnf.formula import CnfFormula
from repro.cnf.literals import MAX_VARIABLES
from repro.solver import solver as solver_module
from repro.solver.config import berkmin_config
from repro.solver.solver import Solver, solve_formula

from dimacs_oracle import oracle_parse
from tests.conftest import loaded_state

#: Line ends ``str.splitlines`` cuts at, the common ones most often.
_LINE_ENDS = ("\n",) * 6 + ("\r\n",) * 3 + ("\r", "\x0b", "\x0c", "\x1c", "\x85", " ")
#: Literals at and past the bounds: the variable bound and int32.
_EXTREME = (
    MAX_VARIABLES, -MAX_VARIABLES, MAX_VARIABLES + 1, -(MAX_VARIABLES + 1),
    2**31 - 1, -(2**31), 2**31, -(2**31) - 1, 2**40,
)
_BAD_TOKENS = ("x", "1.5", "--2", "p", "c", "%", "0x1", "1e3")
_BAD_HEADERS = (
    "p cnf 3", "p dnf 3 4", "p cnf x 3", "p cnf -1 2", "p cnf 3 -2",
    f"p cnf {MAX_VARIABLES + 1} 1", "p  cnf  3  4  5",
)


def _outcome(parse):
    try:
        return parse()
    except DimacsError as error:
        return ("error", str(error))


def _new(text: str):
    def parse():
        formula = parse_dimacs(text)
        counted = (formula.num_clauses, len(formula))
        assert formula.words is not None  # counting built no lists
        assert counted == (len(formula.clauses),) * 2
        return formula.clauses, formula.num_variables, formula.comment

    return parse


def _clause_tokens(rng: random.Random, variables: int) -> list[str]:
    size = rng.choice((0, 1, 2, 2, 3, 3, 3, 4, 6))
    literals = [str(rng.choice((1, -1)) * rng.randint(1, variables)) for _ in range(size)]
    if rng.random() < 0.05:
        literals.insert(rng.randint(0, size), str(rng.choice(_EXTREME)))
    if rng.random() < 0.03:
        literals.insert(rng.randint(0, size), rng.choice(_BAD_TOKENS))
    return literals + ["0"]


def _random_dimacs(rng: random.Random) -> str:
    """DIMACS text with what the reader must sort out: comments before
    the header, between clauses and inside a split clause, ``%``
    markers with comments after them, missing or repeated or malformed
    headers, odd line ends, tabs and blank lines, several clauses on a
    line, lone ``0``\\ s, a missing final ``0``, bad tokens and values at
    and past the bounds."""
    variables = rng.randint(1, 12)
    lines = [f"c comment {index}" for index in range(rng.randint(0, 2))]
    if rng.random() < 0.1:
        lines.append("")
    if rng.random() < 0.8:
        if rng.random() < 0.08:
            lines.append(rng.choice(_BAD_HEADERS))
        else:
            lines.append(f"p cnf {variables} {rng.randint(0, 12)}")
    tokens: list[str] = []
    for _ in range(rng.randint(0, 12)):
        tokens += _clause_tokens(rng, variables + 2)
    if tokens and rng.random() < 0.15:
        tokens.pop()  # the final 0
    line: list[str] = []
    for token in tokens:
        line.append(token)
        if rng.random() < 0.35:
            lines.append(rng.choice((" ", "\t", "  ")).join(line))
            line = []
            roll = rng.random()
            if roll < 0.06:
                lines.append("c between " + rng.choice(("lines", "1 2 0")))
            elif roll < 0.08:
                lines.append("")
            elif roll < 0.095:
                lines.append(rng.choice(_BAD_HEADERS + (f"p cnf {variables} 3",)))
    if line:
        lines.append(" ".join(line))
    if rng.random() < 0.1:
        lines += ["%", "0", "c after the end", "1 2 x"][: rng.randint(1, 4)]
    text = ""
    for entry in lines:
        if rng.random() < 0.1:
            entry = rng.choice((" ", "\t")) + entry + rng.choice(("", " ", "\t"))
        text += entry + rng.choice(_LINE_ENDS)
    if text and rng.random() < 0.3:
        text = text.rstrip("\n")
    return text


#: Inputs written by hand: each edge the random ones may only brush.
_CASES = (
    "",
    "\n\n",
    "c only a comment",
    "p cnf 0 0\n",
    "0\n",
    "0 0 0",
    "1 2\n",
    "1 -2 0 3 0",
    "p cnf 3 2\r\n1 -2 0\r\n2 3 0\r\n",
    "c a\np cnf 3 2\nc b\n1 -2\nc inside\n3 0\n2 0\n",
    "p cnf 3 1\n1 2 0\n%\n0\nc after\n",
    "%\n1 2 0\nc still read\n",
    "p cnf 3 1\np cnf 3 1\n1 0\n",
    "1 x 0\np cnf 3 1\n",
    "p cnf 3\n1 x 0\n",
    "1 2 0\np cnf 3\n",
    "\t1\t-2\t0\n\n\t3 0",
    "1 2 0\x0b3 0\x1c\x85-1 0 2 0 ",
    f"p cnf {MAX_VARIABLES} 1\n{MAX_VARIABLES} -{MAX_VARIABLES} 0\n",
    f"p cnf {MAX_VARIABLES + 1} 1\n1 0\n",
    f"p cnf 2000000000 1\n1 -2000000000 0\n",
    f"1 0\n{MAX_VARIABLES + 1} 0\n",
    f"1 0\n{-(2**31)} 0\n",
    f"1 0\n{2**31} 0\n",
    f"{2**31} x 0\n",
    f"x {2**31} 0\n",
    f"{2**40} 0\np cnf 3\n",
    "1 2 0\nc done\n3 4 0 p cnf 4 2\n",
)


def test_reader_matches_the_oracle():
    rng = random.Random(32)
    texts = list(_CASES) + [_random_dimacs(rng) for _ in range(3000)]
    errors = accepted = 0
    for text in texts:
        expected = _outcome(lambda: oracle_parse(text))
        assert _outcome(_new(text)) == expected, repr(text)
        errors += expected[0] == "error"
        accepted += expected[0] != "error"
    assert errors > 300 and accepted > 1500  # both sides are exercised


def test_bound_errors_name_their_line():
    cases = {
        "p cnf 2000000000 1\n1 -2000000000 0\n": (
            f"line 1: 2000000000 variables, past the largest, {MAX_VARIABLES}"
        ),
        "p cnf 2 1\n1 -2000000000 0\n": (
            f"line 2: variable 2000000000 is past the largest, {MAX_VARIABLES}"
        ),
        f"c\n1 0\n\n{2**31} 0\n": f"line 4: variable {2**31} is past the largest, {MAX_VARIABLES}",
        f"1 0\nc x\n{-(2**40)} 0\n": (
            f"line 3: variable {2**40} is past the largest, {MAX_VARIABLES}"
        ),
    }
    for text, message in cases.items():
        with pytest.raises(DimacsError) as raised:
            parse_dimacs(text)
        assert str(raised.value) == message
    formula = parse_dimacs(f"{MAX_VARIABLES} -1 0\n")
    assert formula.num_variables == MAX_VARIABLES


def test_lists_are_built_on_first_read_only():
    formula = parse_dimacs("c note\np cnf 4 3\n1 -2 0\n3 0\n0\n")
    words = formula.words
    assert words.tolist() == [1, -2, 0, 3, 0, 0]
    assert (len(formula), formula.num_clauses, formula.num_variables) == (3, 3, 4)
    assert formula.words is words
    clauses = formula.clauses
    assert clauses == [[1, -2], [3], []]
    assert formula.words is None and formula.clauses is clauses
    formula.clauses.append([4, -1])
    formula.add_clause([5])
    assert len(formula) == 5 and formula.num_variables == 5
    solver = Solver(formula)
    assert solver.stats.initial_clauses == 5
    assert solver.solve().is_unsat  # the empty clause
    formula.clauses = [[1], [-1, 2]]
    model = Solver(formula).solve().model
    assert model[1] and model[2]


def test_a_parsed_formula_pickles_as_lists():
    formula = parse_dimacs("p cnf 3 2\n1 -2 0\n2 3 0\n")
    restored = pickle.loads(pickle.dumps(formula))
    assert restored.words is None and formula.words is None
    state = (3, "", [[1, -2], [2, 3]])
    assert formula.__getstate__() == state
    assert (restored.num_variables, restored.comment, restored.clauses) == state


def test_solving_a_parsed_formula_builds_no_clause_lists():
    """``solve_formula(parse_dimacs(text))`` never reads the formula's
    lists, and the solver keeps its input as words, not one list per
    clause."""
    text = write_dimacs(CnfFormula([[1, 2], [-1, 2], [-2, 3], [1, -3, 4]]))
    formula = parse_dimacs(text)
    assert solve_formula(formula).is_sat
    assert formula.words is not None
    solver = Solver(formula)
    assert formula.words is not None
    assert type(solver._pristine) is array
    assert solver._pristine == formula.words and solver._pristine is not formula.words
    for name, value in vars(solver).items():
        assert not (isinstance(value, list) and value and isinstance(value[0], list)), name


def _suite_texts() -> list[str]:
    from repro.cnf.shuffle import shuffle_formula
    from repro.experiments.suites import paper_suite

    return [
        write_dimacs(shuffle_formula(instance.build(), seed))
        for benchmark in paper_suite("default")
        for instance in benchmark.instances
        for seed in (1, 2)
    ]


def _assert_three_loads_agree(monkeypatch, text: str) -> None:
    clauses, num_variables, _ = oracle_parse(text)
    for proof_logging in (False, True):
        config = berkmin_config(proof_logging=proof_logging, seed=3)
        kernel = Solver(parse_dimacs(text), config)
        with monkeypatch.context() as patch:
            patch.setenv("REPRO_SAT_PURE", "1")
            pure = Solver(parse_dimacs(text), config)
        assert pure._kernel_load is None
        one_by_one = Solver(config=config)
        one_by_one.ensure_variables(num_variables)
        for clause in clauses:
            one_by_one.add_clause(clause)
        expected = loaded_state(one_by_one)
        assert loaded_state(kernel) == expected, repr(text[:200])
        assert loaded_state(pure) == expected, repr(text[:200])


def test_parse_then_load_identical(monkeypatch):
    """The parser's words, loaded by the kernel or the pure loader, leave
    the solver one ``add_clause`` per oracle clause leaves."""
    rng = random.Random(7)
    accepted = [
        text
        for text in list(_CASES) + [_random_dimacs(rng) for _ in range(600)]
        if _outcome(lambda: oracle_parse(text))[0] != "error"
        and oracle_parse(text)[1] <= 1000
    ]
    assert len(accepted) > 300
    for text in _suite_texts() + accepted:
        _assert_three_loads_agree(monkeypatch, text)


def test_parse_then_load_at_the_variable_bound(monkeypatch):
    """With the bound made small, literals at it load the same three ways,
    and one past it is refused by the parser and by the solver."""
    monkeypatch.setattr(dimacs, "MAX_VARIABLES", 40)
    monkeypatch.setattr(solver_module, "MAX_VARIABLES", 40)
    for text in ("40 -40 0\n1 40 0\n-40 0\n0\n", "p cnf 40 2\n-40 1 2 0\n40 3\n"):
        _assert_three_loads_agree(monkeypatch, text)
    with pytest.raises(DimacsError, match="line 2: variable 41 is past the largest, 40"):
        parse_dimacs("40 0\n1 -41 0\n")
    with pytest.raises(ValueError, match="variable 41 is past the largest"):
        Solver().add_clauses([[40], [1, -41]])
