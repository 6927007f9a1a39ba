"""The C search loop and kernels against the pure-Python reference, mid-run.

The search loop (``arena_search``), propagation and backtracking read
the solver's per-variable and per-literal buffers through one cached
address table, and the loop appends to the buffers of a second one,
padded with room the solver reserves.  Every test here runs only with
the kernels loaded.  Each kernel that reads a table is wrapped so that
every call first checks each cached address against the live buffer's
``buffer_info()[0]``; a refresh missing after a buffer moved fails
there, before the kernel can write through a stale address.  After
every search call the wrapper also checks that each length the loop
reports stays within the room the solver reserved: a write past it
lands inside the array's own allocation, where AddressSanitizer cannot
see it.  The scenarios move the buffers mid-run (growth by
``add_clause``, a snapshot restore, arena GC during search, room that
runs out at every few conflicts), and each must end in the same state
as a ``REPRO_SAT_PURE=1`` solver that ran the same steps.  Records move
too, so the proof hints logged after the move are checked to still name
the clauses that make each step RUP: the checker must follow every one
of them without falling back.
"""

from __future__ import annotations

import re
from collections import Counter

import pytest

from repro.cnf.formula import CnfFormula, words_to_clauses
from repro.generators import pigeonhole_formula
from repro.solver import _kernel
from repro.solver import solver as solver_module
from repro.solver._kernel import ROOM_FIELDS, TABLE_FIELDS, load_arena_kernel
from repro.solver.config import berkmin_config
from repro.solver.result import SolveStatus
from repro.solver.solver import Solver

from test_proof_hints import fallback_steps

pytestmark = pytest.mark.skipif(
    load_arena_kernel() is None, reason="the C kernels did not load"
)

#: The kernels that take the address table.
_TABLE_KERNELS = ("_kernel", "_kernel_search", "_kernel_backtrack")
#: Every kernel entry point a solver holds.
_ALL_KERNELS = _TABLE_KERNELS + ("_kernel_load", "_kernel_attach")
#: The search-state words of each room buffer's used length and room.
_LENGTHS_AND_ROOMS = {
    "trail": (_kernel.S_TRAIL_LEN, _kernel.S_TRAIL_ROOM),
    "trail_limits": (_kernel.S_LEVELS, _kernel.S_LEVEL_ROOM),
    "learned": (_kernel.S_LEARNED_LEN, _kernel.S_LEARNED_ROOM),
    "arena": (_kernel.S_ARENA_LEN, _kernel.S_ARENA_ROOM),
    "clause_act": (_kernel.S_RECORDS, _kernel.S_RECORD_ROOM),
    "clause_id": (_kernel.S_RECORDS, _kernel.S_RECORD_ROOM),
    "clause_birth": (_kernel.S_RECORDS, _kernel.S_RECORD_ROOM),
    "_proof_log": (_kernel.S_LOG_LEN, _kernel.S_LOG_ROOM),
    "_skin_log": (_kernel.S_SKIN_LEN, _kernel.S_SKIN_ROOM),
}


def _stale(solver: Solver, table, fields) -> list[str]:
    live = [getattr(solver, name).buffer_info()[0] for name in fields]
    # A NULL c_void_p slot reads back as None; an empty buffer's address is 0.
    cached = [address or 0 for address in table.slots]
    return [name for name, old, new in zip(fields, cached, live) if old != new]


def _check_room(solver: Solver, when: str) -> None:
    """Every room fits its buffer, and every length fits its room."""
    state = solver._state
    for name, (length, room) in _LENGTHS_AND_ROOMS.items():
        buffer = getattr(solver, name)
        assert state[room] <= len(buffer), f"{name}'s room runs past the buffer {when}"
        assert state[length] <= state[room], f"{name} ran past its room {when}"


def _count_calls(
    solver: Solver, attributes, calls: Counter, check_tables: bool, exits: Counter | None = None
) -> None:
    for attribute in attributes:

        def wrapped(*args, _entry=getattr(solver, attribute), _name=attribute):
            if check_tables and _name in _TABLE_KERNELS:
                stale = _stale(solver, solver._tables, TABLE_FIELDS)
                assert not stale, f"{_name} called with stale addresses for {stale}"
            if check_tables and _name == "_kernel_search":
                stale = _stale(solver, solver._room, ROOM_FIELDS)
                assert not stale, f"{_name} called with stale room addresses for {stale}"
                _check_room(solver, "before the call")
            calls[_name] += 1
            result = _entry(*args)
            if _name == "_kernel_search":
                if check_tables:
                    _check_room(solver, "after the call")
                if exits is not None:
                    exits[result] += 1
            return result

        setattr(solver, attribute, wrapped)


def _note_choices(solver: Solver) -> Counter:
    """Count what each EXIT_CHOOSE of ``solver``'s search loop asks for."""
    choices = Counter()
    search = solver._kernel_search

    def noted_search(*args):
        code = search(*args)
        if code == _kernel.EXIT_CHOOSE:
            choices[solver._state[_kernel.S_CHOICE]] += 1
        return code

    solver._kernel_search = noted_search
    return choices


def _pair(monkeypatch, config, exits: Counter | None = None):
    """A kernel solver with guarded kernels, and a pure-Python one."""
    kernel = Solver(config=config)
    calls = Counter()
    _count_calls(kernel, _TABLE_KERNELS, calls, check_tables=True, exits=exits)
    with monkeypatch.context() as patch:
        patch.setenv("REPRO_SAT_PURE", "1")
        pure = Solver(config=config)
    assert pure._kernel_search is None
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
        "clause_birth": solver.clause_birth.tolist(),
        "trail": solver.trail.tolist(),
        "trail_limits": solver.trail_limits.tolist(),
        "arena": solver.arena.tolist(),
        "learned": solver.learned.tolist(),
        "search_cursor": solver.search_cursor,
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
    _growth_between_solves(monkeypatch, proof_logging=True)


def test_growth_between_solves_without_proof_logging(monkeypatch):
    """The same with the proof log empty: its NULL slot is not stale."""
    _growth_between_solves(monkeypatch, proof_logging=False)


def _growth_between_solves(monkeypatch, proof_logging: bool) -> None:
    config = berkmin_config(restart_interval=50, proof_logging=proof_logging, seed=2)
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
    assert kernel.stats.conflicts > 300 and calls["_kernel_search"] > 0
    _assert_same(kernel, pure)
    if proof_logging:
        grown = CnfFormula(words_to_clauses(kernel._pristine))
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
    assert calls["_kernel_search"] > 0
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
    assert calls["_kernel_search"] > 0 and calls["_kernel_backtrack"] > 0
    _assert_same(kernel, pure)
    assert fallback_steps(formula, kernel.proof, kernel.proof_hints) == []


def test_repeated_assumptions_push_levels_past_the_variable_count(monkeypatch):
    """A repeated assumption opens an empty decision level each time, so
    conflicts happen at levels above the variable count; the conflict
    step's per-level LBD marks and the level limits' room must cover
    them."""
    config = berkmin_config(proof_logging=True, seed=5)
    kernel, pure, calls = _pair(monkeypatch, config)
    formula = pigeonhole_formula(5)
    free = formula.num_variables + 1  # named by no clause
    for solver in (kernel, pure):
        solver.add_formula(formula)
        result = solver.solve(assumptions=[free] * 3 * free)
        assert result.status is SolveStatus.UNSAT
        assert solver.stats.max_decision_level > 3 * free
    assert calls["_kernel_search"] > 0
    _assert_same(kernel, pure)


@pytest.mark.parametrize("words, records", [(1, 64), (1 << 16, 1)])
def test_room_that_runs_out_every_few_conflicts(monkeypatch, words, records):
    """The least room the solver may reserve: two worst-case records in
    the arena and the proof log, or one learned-stack entry.  The loop
    exits for room every few conflicts, and the solver pads the buffers
    again, moving them."""
    monkeypatch.setattr(Solver, "_ROOM_WORDS", words)
    monkeypatch.setattr(Solver, "_ROOM_RECORDS", records)
    config = berkmin_config(restart_interval=30, inprocess_interval=2, proof_logging=True)
    exits = Counter()
    kernel, pure, calls = _pair(monkeypatch, config, exits)
    formula = pigeonhole_formula(6)
    for solver in (kernel, pure):
        solver.add_formula(formula)
        assert solver.solve().status is SolveStatus.UNSAT
    assert exits[_kernel.EXIT_ROOM] > kernel.stats.conflicts / 8, exits
    _assert_same(kernel, pure)
    assert fallback_steps(formula, kernel.proof, kernel.proof_hints) == []


@pytest.mark.parametrize(
    "overrides", [{}, dict(restart_interval=20, inprocess_interval=1)]
)
def test_search_calls_are_bounded_by_exits(monkeypatch, overrides):
    """hole7 under ``berkmin``: the loop returns to Python only for a
    symmetrize tie, an nb_two tie (the only formula-level decisions it
    hands over), a progress mark (the hook counts them), a restart, an
    activity decay, or room, plus the last answer; and no step runs in
    the pure-Python engine."""
    config = berkmin_config(**overrides)
    solver = Solver(config=config)
    calls = Counter()
    exits = Counter()
    _count_calls(solver, _ALL_KERNELS, calls, check_tables=False, exits=exits)
    ties = Counter()
    phase = solver._top_clause_literal

    def counted_phase(*args):
        ties["ties"] += 1
        return phase(*args)

    def counted_tie(*args, _tie=solver_module.nb_two_tie):
        ties["nb_two"] += 1
        return _tie(*args)

    choices = _note_choices(solver)
    solver._top_clause_literal = counted_phase
    monkeypatch.setattr(solver_module, "nb_two_tie", counted_tie)
    solver._run_pure = None  # any call fails
    marks = []
    solver.add_formula(pigeonhole_formula(7))
    result = solver.solve(on_progress=lambda stats: marks.append(stats.conflicts))
    assert result.status is SolveStatus.UNSAT
    stats = solver.stats
    formula_exits = choices[_kernel.CHOOSE_FORMULA] + choices[_kernel.CHOOSE_TIE]
    assert formula_exits == ties["nb_two"] < stats.formula_decisions
    decays = stats.conflicts // config.activity_decay_interval
    bound = (
        ties["nb_two"]
        + ties["ties"]
        + len(marks)
        + stats.restarts
        + decays
        + exits[_kernel.EXIT_ROOM]
        + 1
    )
    assert calls["_kernel_search"] <= bound, (dict(exits), bound)
    assert calls["_kernel_search"] < (stats.conflicts + stats.decisions) / 10


def test_nb_two_past_the_kernels_partner_scratch_is_scored_in_python(monkeypatch):
    """A literal with more binary partners than the loop keeps
    (``num_variables + 2``; repeated clauses here) below the threshold
    goes back to Python, which scores it the same way; the loop branches
    on every other formula-level decision itself."""
    kernel, pure, _ = _pair(monkeypatch, berkmin_config(seed=1, proof_logging=True))
    choices = _note_choices(kernel)
    # Literal 1 has 16 partners, past the 12 the loop keeps for ten
    # variables.
    formula = CnfFormula(
        [[1, 2]] * 16
        + [[-1, 3], [-3, 4], [-4, -2], [2, 3, 4], [5, -6], [5, 7], [-6, 8]]
        + [[6, 9, 10], [-8, -9, 7], [9, -10]]
    )
    for solver in (kernel, pure):
        solver.add_formula(formula)
        assert solver.solve().status is SolveStatus.SAT
    assert choices == {_kernel.CHOOSE_FORMULA: 1}
    assert kernel.stats.formula_decisions > 1
    _assert_same(kernel, pure)


def test_search_contract_matches_the_kernel_source():
    """``_kernel.py`` numbers the search-state words, exits, resume points
    and choices in the order of the C enums, and gives the option bits
    the C values."""
    with open(_kernel._SOURCE) as handle:
        source = handle.read()
    code = re.sub(r"/\*.*?\*/", "", source, flags=re.S)
    enums = re.findall(r"enum\s*{(.*?)}", code, flags=re.S)
    assert len(enums) == 4
    for body in enums:
        names = [name.strip() for name in body.split(",") if name.strip()]
        assert [getattr(_kernel, name) for name in names] == list(range(len(names)))
    options = re.findall(r"#define (OPT_\w+) (\d+)", code)
    assert len(options) == 9
    for name, value in options:
        assert getattr(_kernel, name) == int(value), name
