"""BCP and watched-literal invariants."""

import random

from repro.cnf.formula import CnfFormula
from repro.cnf.literals import FALSE, TRUE, UNASSIGNED
from repro.solver import Solver
from repro.solver.config import berkmin_config


def test_unit_clauses_are_asserted_at_load_time():
    """add_clause reduces against level-0 assignments eagerly."""
    formula = CnfFormula([[1], [-1, 2], [-2, 3], [-3, 4]])
    solver = Solver(formula)
    for variable in (1, 2, 3, 4):
        assert solver.assigns[variable] == TRUE
    assert solver.clauses == []  # everything satisfied at level 0


def test_unit_chain_propagates():
    formula = CnfFormula([[-1, 2], [-2, 3], [-3, 4]])
    solver = Solver(formula)
    solver.trail_limits.append(len(solver.trail))
    solver._enqueue(2 * 1, None)  # decide 1 = True
    assert solver._propagate() is None
    for variable in (1, 2, 3, 4):
        assert solver.assigns[variable] == TRUE
    assert solver.stats.propagations >= 3


def test_conflict_is_detected():
    formula = CnfFormula([[-1, 2], [-1, -2]])
    solver = Solver(formula)
    solver.trail_limits.append(len(solver.trail))
    solver._enqueue(2 * 1, None)  # decide 1 = True
    conflict = solver._propagate()
    assert conflict is not None
    falsified = [solver._value(lit) for lit in solver._ref_literals(conflict)]
    assert all(value == FALSE for value in falsified)


def test_contradictory_units_refute_at_load_time():
    solver = Solver(CnfFormula([[1], [-1, 2], [-2]]))
    assert not solver.ok


def test_propagation_respects_decision():
    formula = CnfFormula([[-1, 2], [-2, 3]])
    solver = Solver(formula)
    assert solver._propagate() is None
    solver.trail_limits.append(len(solver.trail))
    solver._enqueue(2 * 1, None)  # decide 1 = True
    assert solver._propagate() is None
    assert solver.assigns[2] == TRUE
    assert solver.assigns[3] == TRUE
    assert solver.levels[3] == 1


def _check_watch_invariants(solver):
    """Every live record is watched on its first two literals, once per
    watch slot; binary records appear exactly once in each of their
    literals' implication arrays."""
    from collections import Counter

    from repro.solver.solver import _DEAD

    arena = solver.arena
    watched = Counter()
    for literal in range(len(solver.watch_head)):
        node = solver.watch_head[literal]
        while node != -1:
            ref, slot = node >> 1, node & 1
            if not arena[ref + 1] & _DEAD:  # dead records unlink lazily
                assert arena[ref + 8 + slot] == literal, "watch not on its slot's literal"
                watched[node] += 1
            node = arena[ref + 4 + 2 * slot]
    expected_entries = Counter()  # (falsified literal -> implied literal) edges
    for ref in list(solver.clauses) + list(solver.learned):
        assert watched[ref << 1] == 1 and watched[(ref << 1) | 1] == 1, (
            "record must have exactly two watches"
        )
        if arena[ref] == 2:
            first, second = solver._ref_literals(ref)
            expected_entries[(first, second)] += 1
            expected_entries[(second, first)] += 1
    assert sum(watched.values()) == 2 * (len(solver.clauses) + len(solver.learned))
    actual_entries = Counter(
        (literal, implied)
        for literal, implied_list in enumerate(solver.binary_implications)
        for implied in implied_list
    )
    assert actual_entries == expected_entries
    # binary_count is the per-literal total of implication entries.
    for literal in range(len(solver.binary_count)):
        assert solver.binary_count[literal] == len(solver.binary_implications[literal])


def test_watch_invariants_after_solving():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(2, 9)
        clauses = []
        for _ in range(rng.randint(2, 30)):
            arity = min(rng.randint(2, 4), n)
            variables = rng.sample(range(1, n + 1), arity)
            clauses.append([v * rng.choice((1, -1)) for v in variables])
        solver = Solver(
            CnfFormula(clauses, num_variables=n),
            config=berkmin_config(restart_interval=5),
        )
        solver.solve()
        _check_watch_invariants(solver)


def test_trail_is_consistent_after_backtrack():
    formula = CnfFormula([[-1, 2], [-2, 3], [4, 5]])
    solver = Solver(formula)
    solver._propagate()
    solver.trail_limits.append(len(solver.trail))
    solver._enqueue(2, None)  # 1 = True
    solver._propagate()
    assert solver.current_level() == 1
    solver._backtrack(0)
    assert solver.current_level() == 0
    assert len(solver.trail) == 0
    for variable in range(1, 6):
        assert solver.assigns[variable] == UNASSIGNED
        assert solver.reasons[variable] == -1  # no reason
    assert solver.qhead == 0


def test_binary_occurrence_maps_track_attachments():
    formula = CnfFormula([[1, 2], [-1, 3], [1, 2, 3]])
    solver = Solver(formula)
    # Two binary clauses -> four directed entries.
    positive_one = 2
    assert solver.binary_count[positive_one] == 1
    negative_one = 3
    assert solver.binary_count[negative_one] == 1
    total_entries = sum(solver.binary_count)
    assert total_entries == 4


def test_satisfied_clause_is_skipped_on_load():
    solver = Solver(CnfFormula([[1]]))
    solver._propagate()
    before = len(solver.clauses)
    solver.add_clause([1, 2])  # satisfied at level 0: not stored
    assert len(solver.clauses) == before


def test_false_literals_removed_on_load():
    solver = Solver(CnfFormula([[1]]))
    solver._propagate()
    solver.add_clause([-1, 2, 3])
    stored = solver.clauses[-1]
    assert len(solver._ref_literals(stored)) == 2  # -1 stripped
