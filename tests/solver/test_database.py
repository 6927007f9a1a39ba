"""Clause-database management (Section 8): the young/old keep rules,
anti-looping protection, GRASP-style limited keeping, and level-0
compaction."""

import pytest

from repro.cnf.formula import CnfFormula
from repro.cnf.literals import decode_literal, encode_literal
from repro.solver import Solver
from repro.solver.config import (
    berkmin_config,
    chaff_config,
    limited_keeping_config,
)
from repro.solver.solver import _DEAD, _LEARNED, _PROTECTED


def _fresh_solver(config=None, num_variables=80):
    formula = CnfFormula(num_variables=num_variables)
    formula.add_clause([num_variables - 1, num_variables])
    return Solver(formula, config=config or berkmin_config())


def _chain(solver, literal):
    """The watch nodes ``(ref << 1) | slot`` on ``literal``'s chain."""
    nodes = []
    node = solver.watch_head[literal]
    while node != -1:
        nodes.append(node)
        node = solver.arena[(node >> 1) + 4 + 2 * (node & 1)]
    return nodes


def test_berkmin_young_clause_rules(push_learned):
    """Young clauses survive iff short (<= 42) or active (> 7)."""
    solver = _fresh_solver(berkmin_config(young_length_limit=5, young_activity_limit=7))
    short = push_learned(solver, [1, 2, 3])
    long_passive = push_learned(solver, list(range(1, 10)), activity=3)
    long_active = push_learned(solver, list(range(1, 10)), activity=8)
    topmost = push_learned(solver, list(range(1, 10)), activity=0)
    solver._reduce_database()
    kept = set(solver.learned)
    assert short in kept
    assert long_passive not in kept
    assert long_active in kept
    assert topmost in kept  # anti-looping: topmost never removed


def test_berkmin_old_clause_rules_and_growing_threshold(push_learned):
    config = berkmin_config(
        young_fraction=0.5,
        young_length_limit=42,
        old_length_limit=2,
        old_activity_threshold=10,
        old_threshold_increment=5,
    )
    solver = _fresh_solver(config)
    # With young_fraction = 0.5 and 4 clauses, distances 2, 3 are "old".
    old_active = push_learned(solver, [1, 2, 3], activity=11)
    old_passive = push_learned(solver, [4, 5, 6], activity=9)
    push_learned(solver, [7, 8, 9])
    push_learned(solver, [10, 11, 12])
    initial_threshold = solver.old_threshold
    solver._reduce_database()
    kept = set(solver.learned)
    assert old_active in kept  # activity 11 > threshold 10
    assert old_passive not in kept  # length 3 > 2 and activity 9 <= 10
    assert solver.old_threshold == initial_threshold + 5


def test_protected_clauses_survive(push_learned):
    solver = _fresh_solver(berkmin_config(young_length_limit=1, young_activity_limit=99))
    doomed = push_learned(solver, [1, 2, 3])
    saved = push_learned(solver, [4, 5, 6])
    solver.arena[saved + 1] |= _PROTECTED
    push_learned(solver, [7, 8, 9])  # topmost
    solver._reduce_database()
    kept = set(solver.learned)
    assert doomed not in kept
    assert saved in kept


def test_limited_keeping_drops_by_length_only(push_learned):
    solver = _fresh_solver(limited_keeping_config(limited_keeping_length=4))
    long_active = push_learned(solver, [1, 2, 3, 4, 5], activity=1000)
    short_passive = push_learned(solver, [6, 7])
    push_learned(solver, [8, 9])  # topmost
    solver._reduce_database()
    kept = set(solver.learned)
    assert long_active not in kept  # GRASP ignores activity
    assert short_passive in kept


def test_level0_satisfied_clauses_removed_and_literals_stripped():
    solver = Solver(CnfFormula([[1], [1, 2], [-1, 2, 3], [2, 3, 4]]))
    assert solver._propagate() is None  # 1 = True at level 0
    solver._reduce_database()
    remaining = [
        [decode_literal(lit) for lit in solver._ref_literals(ref)]
        for ref in solver.clauses
    ]
    # [1, 2] satisfied -> gone; [-1, 2, 3] stripped to [2, 3].
    assert sorted(map(sorted, remaining)) == [[2, 3], [2, 3, 4]]


def test_reduction_rebuilds_watches_and_binaries():
    solver = Solver(CnfFormula([[1], [-1, 2, 3], [3, 4, 5]]))
    solver._propagate()
    solver._reduce_database()
    # [-1, 2, 3] became the binary [2, 3]: the implication arrays the
    # nb_two heuristic scores with must know.
    assert solver.binary_count[encode_literal(2)] == 1
    assert solver.binary_count[encode_literal(3)] == 1
    assert solver.binary_implications[encode_literal(2)] == [encode_literal(3)]
    assert solver.binary_implications[encode_literal(3)] == [encode_literal(2)]
    for ref in solver.clauses:
        first, second = solver._ref_literals(ref)[:2]
        if solver.arena[ref] == 2:
            assert second in solver.binary_implications[first]
            assert first in solver.binary_implications[second]
        # Every record is watched by both slots, on its first two literals.
        assert ref << 1 in _chain(solver, first)
        assert (ref << 1) | 1 in _chain(solver, second)


def test_deleted_count_in_stats(push_learned):
    solver = _fresh_solver(berkmin_config(young_length_limit=1, young_activity_limit=99))
    for start in range(1, 9):
        push_learned(solver, [start, start + 1, start + 2])
    solver._reduce_database()
    assert solver.stats.learned_deleted == 7  # all but the topmost


def test_mark_every_n_restarts_protects_clauses():
    from repro.generators.pigeonhole import pigeonhole_formula

    config = berkmin_config(
        restart_interval=20, mark_every_n_restarts=1, young_length_limit=1,
        young_activity_limit=0,
    )
    solver = Solver(pigeonhole_formula(6), config=config)
    solver.solve(max_conflicts=2_000)
    assert any(solver.arena[ref + 1] & _PROTECTED for ref in solver.learned)


def test_reduction_requires_level_zero():
    solver = _fresh_solver()
    solver.trail_limits.append(len(solver.trail))
    solver._enqueue(encode_literal(1), None)
    with pytest.raises(AssertionError):
        solver._reduce_database()


def test_solving_continues_correctly_after_reductions():
    """End-to-end: frequent restarts + aggressive deletion stay correct."""
    from repro.baselines.brute import brute_force_satisfiable
    import random

    rng = random.Random(3)
    config = berkmin_config(
        restart_interval=4, young_length_limit=1, young_activity_limit=0,
        old_length_limit=1, old_activity_threshold=0,
    )
    for _ in range(40):
        n = rng.randint(2, 8)
        clauses = []
        for _ in range(rng.randint(3, 26)):
            arity = min(rng.randint(1, 3), n)
            variables = rng.sample(range(1, n + 1), arity)
            clauses.append([v * rng.choice((1, -1)) for v in variables])
        formula = CnfFormula(clauses, num_variables=n)
        result = Solver(formula, config=config).solve(max_conflicts=50_000)
        assert not result.is_unknown
        assert result.is_sat == brute_force_satisfiable(formula)


def test_chaff_config_uses_limited_keeping():
    assert chaff_config().db_management == "limited_keeping"


def test_forced_binary_deletion_updates_implication_arrays(push_learned):
    """A policy-deleted learned binary clause must vanish from the binary
    indexes (paper defaults always keep length-2 clauses, but
    limited_keeping_length=1 forces the case)."""
    solver = _fresh_solver(limited_keeping_config(limited_keeping_length=1))
    binary = push_learned(solver, [5, 6])
    push_learned(solver, [7, 8, 9])  # topmost (never removed) shields the binary
    lit5, lit6 = encode_literal(5), encode_literal(6)
    assert solver.binary_implications[lit5] == [lit6]
    assert solver.binary_count[lit5] == 1

    solver._reduce_database()

    assert binary not in solver.learned
    assert solver.arena[binary + 1] & _DEAD
    assert solver.binary_implications[lit5] == []
    assert solver.binary_implications[lit6] == []
    assert solver.binary_count[lit5] == 0
    assert solver.binary_count[lit6] == 0
    chains = _chain(solver, lit5) + _chain(solver, lit6)
    assert not any(node >> 1 == binary for node in chains)


def test_solves_correctly_after_forced_binary_deletions(monkeypatch):
    """End-to-end regression: dropping learned binaries mid-search must not
    corrupt propagation.  The glue floor is switched off: it would keep
    every learned binary (LBD <= 2), which is the opposite of the case
    under test."""
    from repro.generators.pigeonhole import pigeonhole_formula

    deleted_binaries = {"count": 0}
    original = Solver.log_proof_delete

    def spy(self, ref):
        if self.arena[ref + 1] & _LEARNED and self.arena[ref] == 2:
            deleted_binaries["count"] += 1
        return original(self, ref)

    monkeypatch.setattr(Solver, "log_proof_delete", spy)
    config = limited_keeping_config(
        limited_keeping_length=1, restart_interval=10, glue_keep_max_lbd=0
    )
    result = Solver(pigeonhole_formula(4), config=config).solve()
    assert result.is_unsat
    assert deleted_binaries["count"] > 0, "no binary clause was ever deleted"
