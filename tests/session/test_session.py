"""Lifecycle, retention, and snapshot behavior of SolverSession."""

import random

import pytest

from repro.checkpoint.snapshot import canonical_fingerprint
from repro.cnf.formula import CnfFormula, words_to_clauses
from repro.observability import RingBufferSink
from repro.session import (
    DEFAULT_RETAIN_MAX_LBD,
    AnswerCache,
    SessionClosedError,
    SolverSession,
)
from repro.solver.config import berkmin_config, config_by_name
from repro.solver.result import SolveStatus

XOR_CHAIN = [
    [1, 2], [-1, -2],          # x1 != x2
    [2, 3], [-2, -3],          # x2 != x3
]


def test_session_basic_sat_then_unsat_growth():
    with SolverSession([[1, 2]]) as session:
        first = session.solve()
        assert first.status is SolveStatus.SAT
        assert first.model[1] or first.model[2]
        session.add_clause([-2])
        second = session.solve()
        assert second.status is SolveStatus.SAT
        assert second.model == {1: True, 2: False}
        session.add_clause([-1])
        third = session.solve()
        assert third.status is SolveStatus.UNSAT
        assert session.calls == 3
        assert session.stats.session_calls == 3


def test_unsat_core_under_assumptions():
    with SolverSession(XOR_CHAIN) as session:
        result = session.solve(assumptions=[1, -3])
        assert result.status is SolveStatus.UNSAT
        core = session.unsat_core()
        assert core is not None
        assert set(core) <= {1, -3}
        # The core is sound: the formula plus the core alone is UNSAT.
        check = CnfFormula([list(c) for c in XOR_CHAIN] + [[lit] for lit in core])
        with SolverSession(check, cache=None) as oracle:
            assert oracle.solve().status is SolveStatus.UNSAT
        # And the same query stays answerable after the formula grows.
        session.add_clause([1, 2, 3])
        again = session.solve(assumptions=[1, -3])
        assert again.status is SolveStatus.UNSAT


def test_closed_session_raises():
    session = SolverSession([[1]])
    session.close()
    with pytest.raises(SessionClosedError):
        session.add_clause([2])
    with pytest.raises(SessionClosedError):
        session.solve()


def test_fingerprint_is_order_insensitive_and_invalidated():
    fp_a = canonical_fingerprint([[1, 2], [-1, 3]])
    fp_b = canonical_fingerprint([[3, -1], [2, 1]])
    assert fp_a == fp_b
    # Duplicate clauses must not cancel out (a XOR-combined hash would).
    assert canonical_fingerprint([[1, 2], [1, 2]]) != canonical_fingerprint([[1, 2]])
    with SolverSession([[1, 2]]) as session:
        before = session.fingerprint
        session.add_clause([-1, 3])
        assert session.fingerprint != before
        assert session.fingerprint == fp_a


def test_incremental_fingerprint_matches_canonical_fingerprint(tmp_path):
    """The session encodes each clause once and re-sorts; its fingerprint
    must stay byte-identical to ``canonical_fingerprint`` over every
    clause added so far, through duplicates, reorderings and a restore."""
    rng = random.Random(28)
    for case in range(40):
        session = SolverSession(None, cache=None)
        assert session.fingerprint == canonical_fingerprint([])
        added: list[list[int]] = []
        for step in range(rng.randint(1, 6)):
            batch = []
            for _ in range(rng.randint(0, 5)):
                if added and rng.random() < 0.3:
                    clause = list(rng.choice(added))
                    rng.shuffle(clause)  # a duplicate, literals reordered
                else:
                    clause = [
                        rng.choice((1, -1)) * rng.randint(1, 9)
                        for _ in range(rng.randint(0, 4))
                    ]
                batch.append(clause)
            if rng.random() < 0.5:
                session.add_clauses(batch)
            else:
                for clause in batch:
                    session.add_clause(clause)
            added += batch
            assert session.fingerprint == canonical_fingerprint(added), (case, step)
            if rng.random() < 0.3:
                session.solve(max_conflicts=50)
        path = tmp_path / f"case{case}.rsck"
        session.save(path)
        restored = SolverSession.load(path, cache=None)
        assert restored.fingerprint == session.fingerprint
        restored.add_clause([1, -2])
        assert restored.fingerprint == canonical_fingerprint(added + [[1, -2]])


def test_rejected_clause_leaves_no_trace(tmp_path):
    """A clause with literal 0 raises before it changes anything: the
    batch keeps the clauses before it, and the saved session loads."""
    with SolverSession(XOR_CHAIN, berkmin_config(proof_logging=True)) as session:
        with pytest.raises(ValueError):
            session.add_clauses([[3, 4], [1, 0, -2], [5]])
        with pytest.raises(ValueError):
            session.add_clause([0])
        assert words_to_clauses(session.solver._pristine) == XOR_CHAIN + [[3, 4]]
        assert session.stats.initial_clauses == len(XOR_CHAIN) + 1
        assert session.fingerprint == canonical_fingerprint(XOR_CHAIN + [[3, 4]])
        session.add_clause([-3, -4])
        proof_ids = sorted(session.solver.clause_id)
        assert proof_ids == [-6, -5, -4, -3, -2, -1]
        path = tmp_path / "session.rsck"
        session.save(path)
    resumed = SolverSession.load(path)
    try:
        assert resumed.fingerprint == session.fingerprint
        assert resumed.solve(assumptions=[1, 3]).status is SolveStatus.SAT
    finally:
        resumed.close()


def test_session_whose_top_variable_is_in_a_tautology_reloads_warm(tmp_path):
    """Loading and re-adding size the solver alike: the tables cover a
    variable that only a tautology names either way, so the saved
    snapshot fits the reloaded session."""
    import warnings

    path = tmp_path / "session.rsck"
    with SolverSession([[2, 3], [4, -4]]) as session:
        session.solve()
        session.save(path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        resumed = SolverSession.load(path)
    assert resumed.solver.num_variables == session.solver.num_variables == 4
    resumed.close()


def test_session_grown_by_an_assumption_reloads_warm(tmp_path):
    """An assumption naming a variable no clause names grows the
    solver past the clauses; the reloaded session grows to match."""
    import warnings

    path = tmp_path / "session.rsck"
    with SolverSession([[1, 2], [-1, 2]]) as session:
        session.solve(assumptions=[5])
        session.save(path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        resumed = SolverSession.load(path)
    assert resumed.solver.num_variables == session.solver.num_variables == 5
    assert resumed.solve(assumptions=[-5]).is_sat
    resumed.close()


def test_bmc_step_loads_through_the_kernel():
    """A BMC step added to a session that has searched and eliminated
    variables is one ``arena_load`` batch: only a clause naming a
    variable still eliminated when the kernel reaches it goes to the
    per-clause reference, which restores that variable."""
    from repro.bench import _bmc_steps
    from repro.circuits.sequential import counter_circuit

    steps = _bmc_steps(counter_circuit(4, 12, with_enable=True), 11)
    config = berkmin_config(restart_interval=10, inprocess_interval=1, seed=3)
    with SolverSession(None, config, cache=None) as session:
        for clauses, activation in steps[:-1]:
            session.add_clauses(clauses)
            session.solve([activation])
        solver = session.solver
        if solver._kernel_load is None:
            pytest.skip("the C kernels did not load")
        clauses, activation = steps[-1]
        eliminated = {variable for variable, _, _ in solver._eliminated}
        naming = [c for c in clauses if any(abs(lit) in eliminated for lit in c)]
        assert naming, "test premise: the step names eliminated variables"
        loads, fallbacks = [], []
        load, reference = solver._kernel_load, solver._add_clause

        def counted_load(*args):
            loads.append(args)
            return load(*args)

        def counted_reference(clause):
            mark = solver._eliminated_mark
            fallbacks.append(any(mark[abs(literal)] for literal in clause))
            return reference(clause)

        solver._kernel_load = counted_load
        solver._add_clause = counted_reference
        session.add_clauses(clauses)
        assert loads and fallbacks and all(fallbacks)
        assert len(fallbacks) <= len(naming) < len(clauses)
        assert not any(solver._eliminated_mark[abs(lit)] for c in naming for lit in c)
        assert session.solve([activation]).status is SolveStatus.UNSAT


def test_retention_filters_by_lbd(queens_clauses):
    config = berkmin_config()
    with SolverSession(queens_clauses, config, cache=None, retain_max_lbd=0) as strict:
        strict.solve()
        strict_kept = len(strict.solver.learned)
        strict_dropped = strict.stats.learned_deleted
    with SolverSession(queens_clauses, config, cache=None, retain_max_lbd=None) as lax:
        lax.solve()
        lax_kept = len(lax.solver.learned)
    # Same config and seed, so both runs learn the same stack;
    # retain_max_lbd=None then keeps everything while 0 keeps only the
    # unmeasured/protected/topmost clauses.
    assert strict_kept < lax_kept
    assert strict_kept + strict_dropped == lax_kept
    assert lax.stats.retained_clauses == lax_kept
    assert lax.stats.learned_deleted == 0


def test_retention_skipped_once_refuted():
    from repro.generators import pigeonhole_formula

    with SolverSession(pigeonhole_formula(5), cache=None, retain_max_lbd=0) as session:
        assert session.solve().status is SolveStatus.UNSAT
        # Outright refutation: nothing is filtered (the session is spent
        # anyway) and re-querying still answers UNSAT.
        assert session.stats.learned_deleted == 0
        assert session.solve().status is SolveStatus.UNSAT


def test_retention_keeps_solver_reusable(queens_clauses):
    with SolverSession(queens_clauses, cache=None, retain_max_lbd=0) as session:
        first = session.solve()
        assert first.status is SolveStatus.SAT
        # Pin one queen placement from the model; the shrunken learned
        # stack must still support a correct re-solve.
        anchor = next(var for var, value in sorted(first.model.items()) if value)
        session.add_clause([anchor])
        second = session.solve()
        assert second.status is SolveStatus.SAT
        assert second.model[anchor] is True
        assert session.stats.session_calls == 2


def test_session_save_load_roundtrip(tmp_path):
    path = tmp_path / "session.rsck"
    with SolverSession(XOR_CHAIN, config_by_name("berkmin")) as session:
        assert session.solve(assumptions=[1]).status is SolveStatus.SAT
        session.save(path)
    resumed = SolverSession.load(path)
    try:
        assert resumed.calls == 1
        assert resumed.config.name == "berkmin"
        assert resumed.retain_max_lbd == DEFAULT_RETAIN_MAX_LBD
        assert resumed.solve(assumptions=[1]).status is SolveStatus.SAT
        assert resumed.solve(assumptions=[1, -3]).status is SolveStatus.UNSAT
    finally:
        resumed.close()


def test_session_trace_events():
    sink = RingBufferSink(256)
    config = berkmin_config(trace=sink)
    cache = AnswerCache()
    with SolverSession(XOR_CHAIN, config, cache=cache) as session:
        session.solve(assumptions=[1])
        session.solve(assumptions=[1])  # exact cache hit
    kinds = [event["type"] for event in sink.events]
    assert kinds[0] == "session_start"
    solves = [event for event in sink.events if event["type"] == "session_solve"]
    assert [event["served_by"] for event in solves] == ["search", "exact"]
    assert all(event["assumptions"] == 1 for event in solves)


def test_result_repr_shows_assumptions_and_core():
    with SolverSession(XOR_CHAIN, cache=None) as session:
        result = session.solve(assumptions=[1, -3])
    text = repr(result)
    assert "assumptions=2" in text
    assert "core=" in text
    sat = SolverSession(XOR_CHAIN, cache=None).solve()
    assert "assumptions=" not in repr(sat)
    assert "core=" not in repr(sat)


@pytest.fixture
def queens_clauses():
    from repro.generators import queens_formula

    return queens_formula(8)
