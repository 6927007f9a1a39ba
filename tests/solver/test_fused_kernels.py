"""The fused C kernels against the pure-Python reference, mid-run.

The conflict call (analysis through backtrack) and the decision call
read the solver's per-variable and per-literal buffers through one
cached address table.  Every test here runs only with the kernels
loaded.  Each kernel that reads the table is wrapped so that every call
first checks each cached address against the live buffer's
``buffer_info()[0]``; a refresh missing after a buffer moved fails
there, before the kernel can write through a stale address.  The
scenarios move the buffers mid-run (growth by ``add_clause``, a
snapshot restore, arena GC during search), and each must end in the
same state as a ``REPRO_SAT_PURE=1`` solver that ran the same steps.
Records move too, so the proof hints logged after the move are checked
to still name the clauses that make each step RUP: the checker must
follow every one of them without falling back.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.cnf.formula import CnfFormula
from repro.generators import pigeonhole_formula
from repro.solver._kernel import TABLE_FIELDS, load_arena_kernel
from repro.solver.config import berkmin_config
from repro.solver.result import SolveStatus
from repro.solver.solver import Solver

from test_proof_hints import fallback_steps

pytestmark = pytest.mark.skipif(
    load_arena_kernel() is None, reason="the C kernels did not load"
)

#: The kernels that take the address table.
_TABLE_KERNELS = ("_kernel", "_kernel_conflict", "_kernel_decide", "_kernel_backtrack")
#: Every kernel entry point a solver holds.
_ALL_KERNELS = _TABLE_KERNELS + ("_kernel_load", "_kernel_attach")


def _count_calls(solver: Solver, attributes, calls: Counter, check_tables: bool) -> None:
    for attribute in attributes:

        def wrapped(*args, _kernel=getattr(solver, attribute), _name=attribute):
            if check_tables and _name in _TABLE_KERNELS:
                live = [getattr(solver, name).buffer_info()[0] for name in TABLE_FIELDS]
                cached = list(solver._tables.slots)
                stale = [
                    name
                    for name, old, new in zip(TABLE_FIELDS, cached, live)
                    if old != new
                ]
                assert not stale, f"{_name} called with stale addresses for {stale}"
            calls[_name] += 1
            return _kernel(*args)

        setattr(solver, attribute, wrapped)


def _pair(monkeypatch, config):
    """A kernel solver with guarded kernels, and a pure-Python one."""
    kernel = Solver(config=config)
    calls = Counter()
    _count_calls(kernel, _TABLE_KERNELS, calls, check_tables=True)
    with monkeypatch.context() as patch:
        patch.setenv("REPRO_SAT_PURE", "1")
        pure = Solver(config=config)
    assert pure._kernel_conflict is None
    return kernel, pure, calls


def _search_state(solver: Solver) -> dict:
    return {
        "stats": {
            key: value
            for key, value in vars(solver.stats).items()
            if not key.endswith("_seconds")
        },
        "proof": solver.proof,
        "hints": solver.proof_hints,
        "clause_id": solver.clause_id.tolist(),
        "trail": solver.trail.tolist(),
        "arena": solver.arena.tolist(),
        "learned": solver.learned.tolist(),
        "lbds": solver._learned_lbds(),
        "var_activity": solver.var_activity.tolist(),
        "lit_activity": solver.lit_activity.tolist(),
        "vsids": solver.vsids.tolist(),
        "clause_act": solver.clause_act.tolist(),
        "eliminated": solver._eliminated_mark.tolist(),
    }


def _assert_same(kernel: Solver, pure: Solver) -> None:
    expected = _search_state(pure)
    for field, value in _search_state(kernel).items():
        assert value == expected[field], f"kernel and pure solvers diverged in {field}"


def test_growth_between_solves(monkeypatch):
    """``add_clause`` naming new variables grows every table between two
    solves; the second solve must read the grown ones."""
    config = berkmin_config(restart_interval=50, proof_logging=True, seed=2)
    kernel, pure, calls = _pair(monkeypatch, config)
    formula = pigeonhole_formula(6)
    base = formula.num_variables
    for solver in (kernel, pure):
        solver.add_formula(formula)
        assert solver.solve(max_conflicts=300).status is SolveStatus.UNKNOWN
        # Thousands of new variables: the tables reallocate.
        solver.add_clause([base + 1, base + 4000])
        solver.add_clause([-(base + 1), base + 2])
        assert solver.solve().status is SolveStatus.UNSAT
    assert kernel.num_variables == base + 4000
    assert calls["_kernel_conflict"] > 300 and calls["_kernel_decide"] > 0
    _assert_same(kernel, pure)
    grown = CnfFormula(kernel._pristine)
    assert fallback_steps(grown, kernel.proof, kernel.proof_hints) == []


def test_snapshot_restore_then_solve(monkeypatch):
    """A restore swaps in a new database and watch chains and assigns
    the activity vectors in place; the solve after it must read them."""
    config = berkmin_config(
        restart_interval=40, inprocess_interval=1, proof_logging=True, seed=3
    )
    formula = pigeonhole_formula(6)
    source = Solver(formula, config=config)
    assert source.solve(max_conflicts=400).status is SolveStatus.UNKNOWN
    snapshot = source.snapshot()
    assert snapshot.arena is not None and snapshot.learned
    kernel, pure, calls = _pair(monkeypatch, config)
    for solver in (kernel, pure):
        solver.add_formula(formula)
        assert solver.resume(snapshot)
        assert solver.solve().status is SolveStatus.UNSAT
    assert calls["_kernel_conflict"] > 0
    _assert_same(kernel, pure)
    # The hints after the resume name restored records by the ids the
    # snapshot carried.
    assert len(kernel.proof) > len(snapshot.proof)
    assert fallback_steps(formula, kernel.proof, kernel.proof_hints) == []


def test_arena_gc_during_search(monkeypatch):
    """A low ``arena_gc_fraction`` compacts the arena (and rebuilds the
    watch chains) at many restarts of one solve."""
    config = berkmin_config(
        restart_interval=20,
        inprocess_interval=1,
        arena_gc_fraction=0.01,
        proof_logging=True,
        seed=4,
    )
    kernel, pure, calls = _pair(monkeypatch, config)
    formula = pigeonhole_formula(6)
    for solver in (kernel, pure):
        solver.add_formula(formula)
        assert solver.solve().status is SolveStatus.UNSAT
    assert kernel.stats.arena_collections >= 10
    assert calls["_kernel_conflict"] > 0 and calls["_kernel_backtrack"] > 0
    _assert_same(kernel, pure)
    assert fallback_steps(formula, kernel.proof, kernel.proof_hints) == []


def test_repeated_assumptions_push_levels_past_the_variable_count(monkeypatch):
    """A repeated assumption opens an empty decision level each time, so
    conflicts happen at levels above the variable count; the conflict
    call's per-level LBD marks must cover them."""
    config = berkmin_config(proof_logging=True, seed=5)
    kernel, pure, calls = _pair(monkeypatch, config)
    formula = pigeonhole_formula(5)
    free = formula.num_variables + 1  # named by no clause
    for solver in (kernel, pure):
        solver.add_formula(formula)
        result = solver.solve(assumptions=[free] * 3 * free)
        assert result.status is SolveStatus.UNSAT
        assert solver.stats.max_decision_level > 3 * free
    assert calls["_kernel_conflict"] > 0
    _assert_same(kernel, pure)


@pytest.mark.parametrize(
    "overrides", [{}, dict(restart_interval=20, inprocess_interval=1)]
)
def test_two_kernel_calls_per_conflict_and_per_decision(overrides):
    """hole6 under ``berkmin``: one conflict call and one propagate per
    conflict, one decision call and one propagate per decision, plus a
    fixed few per restart (its backtrack, watch rebuilds after reduction,
    elimination and GC) and the load."""
    solver = Solver(config=berkmin_config(**overrides))
    calls = Counter()
    _count_calls(solver, _ALL_KERNELS, calls, check_tables=False)
    solver.add_formula(pigeonhole_formula(6))
    assert solver.solve().status is SolveStatus.UNSAT
    stats = solver.stats
    assert calls["_kernel_conflict"] == stats.conflicts - 1  # the last is at level 0
    assert calls["_kernel_decide"] == stats.decisions
    assert calls["_kernel"] <= stats.conflicts + stats.decisions + stats.restarts + 1
    total = sum(calls.values())
    assert total <= 2 * (stats.conflicts + stats.decisions) + 6 * stats.restarts + 2, (
        dict(calls),
        stats.conflicts,
        stats.decisions,
        stats.restarts,
    )
