"""Conflict analysis: the paper's Section 2 worked example, 1UIP
properties, and activity bookkeeping (Section 4)."""

from repro.cnf.formula import CnfFormula
from repro.cnf.literals import decode_literal, encode_literal
from repro.solver import Solver
from repro.solver.config import berkmin_config, less_sensitivity_config


def _paper_example_solver():
    """The running example of Section 2.

    F = (a + ~b)(b + ~c + y)(c + ~d + x)(c + d), with x and y assigned 0
    earlier and the decision a = 0 triggering the conflict on (c + d).
    Variables: a=1, b=2, c=3, d=4, x=5, y=6.
    """
    formula = CnfFormula(
        [
            [1, -2],
            [2, -3, 6],
            [3, -4, 5],
            [3, 4],
        ]
    )
    solver = Solver(formula)
    assert solver._propagate() is None
    # Decisions: x = 0, y = 0, then a = 0.
    for literal in (-5, -6, -1):
        solver.trail_limits.append(len(solver.trail))
        solver._enqueue(encode_literal(literal), None)
        conflict = solver._propagate()
        if literal != -1:
            assert conflict is None
    return solver, conflict


def test_paper_example_conflict_clause():
    """Reverse BCP must deduce the conflict clause c + x = {3, 5}."""
    solver, conflict = _paper_example_solver()
    assert conflict is not None
    # (c + d) implies d = 1 before the long clause (c + ~d + x) is
    # examined, and the conflict surfaces there.  (The paper's narrative
    # examines the long clause first and conflicts on (c + d); either way
    # the same resolution happens and the learnt clause below is the
    # paper's c + x.)
    literals = solver._ref_literals(conflict)
    assert sorted(abs(decode_literal(lit)) for lit in literals) == [3, 4, 5]
    learnt, backtrack_level = solver._analyze(conflict)
    dimacs = sorted(
        (lit >> 1) * (-1 if lit & 1 else 1) for lit in learnt
    )
    # Conflict assignment {c = 0, x = 0} -> conflict clause (c + x).
    assert dimacs == [3, 5]
    # x was assigned at level 1, so the solver backjumps there
    # (non-chronological: skipping the y level entirely).
    assert backtrack_level == 1


def test_paper_example_responsible_clause_activities():
    """BerkMin bumps variables of *all* clauses responsible for the conflict.

    The resolution chain uses (c + d), (c + ~d + x); BerkMin-style
    activity must therefore credit d (absent from the learned clause),
    while the Chaff-style ablation must not.
    """
    solver, conflict = _paper_example_solver()
    solver._analyze(conflict)
    assert solver.var_activity[4] > 0  # d: in responsible clauses only
    assert solver.var_activity[3] >= 2  # c: occurs in both responsible clauses

    chaff_solver, chaff_conflict = _paper_example_solver()
    chaff_solver.config = less_sensitivity_config()
    chaff_solver._analyze(chaff_conflict)
    assert chaff_solver.var_activity[4] == 0  # d overlooked by Chaff's rule
    assert chaff_solver.var_activity[3] == 1
    assert chaff_solver.var_activity[5] == 1  # x: in the conflict clause


def test_lit_activity_counts_learned_clause_literals():
    solver, conflict = _paper_example_solver()
    learnt, _ = solver._analyze(conflict)
    for literal in learnt:
        assert solver.lit_activity[literal] == 1
        assert solver.lit_activity[literal ^ 1] == 0


def test_learnt_clause_asserts_after_backjump():
    """The first literal of the learnt clause must be unit after backjumping."""
    solver, conflict = _paper_example_solver()
    learnt, backtrack_level = solver._analyze(conflict)
    solver._backtrack(backtrack_level)
    assert solver._value(learnt[0]) == -1  # unassigned
    for literal in learnt[1:]:
        assert solver._value(literal) == 0  # false


def test_clause_activity_counts_responsibility():
    """clause_activity(C) counts conflicts C was responsible for."""
    from repro.generators.pigeonhole import pigeonhole_formula

    solver = Solver(pigeonhole_formula(5), config=berkmin_config())
    solver.solve()
    # At least some learned clause participated in a later conflict.
    assert solver.stats.conflicts > 10
