"""Capturing and restoring solver state (the warm-resume core)."""

import warnings

import pytest

from repro.checkpoint.snapshot import (
    CheckpointWarning,
    capture_snapshot,
    checkpoint_conflicts,
    formula_fingerprint,
    load_checkpoint,
    restore_snapshot,
    save_checkpoint,
    try_load_checkpoint,
)
from repro.generators.pigeonhole import pigeonhole_formula
from repro.generators.random_ksat import planted_ksat
from repro.solver.config import config_by_name
from repro.solver.solver import Solver


def _partial_solver(formula, conflicts=150, **config_overrides):
    """A solver stopped mid-search after a conflict budget."""
    solver = Solver(formula, config_by_name("berkmin", **config_overrides))
    result = solver.solve(max_conflicts=conflicts)
    assert result.is_unknown
    return solver


def test_fingerprint_is_order_sensitive():
    a = formula_fingerprint([[1, 2], [-1, 3]])
    assert a == formula_fingerprint([[1, 2], [-1, 3]])
    assert a != formula_fingerprint([[-1, 3], [1, 2]])
    assert a != formula_fingerprint([[1, 2]])


def test_snapshot_roundtrips_through_payload():
    solver = _partial_solver(pigeonhole_formula(5), conflicts=100)
    snapshot = capture_snapshot(solver)
    clone = type(snapshot).from_payload(snapshot.to_payload())
    assert clone == snapshot
    assert clone.conflicts == 100


def test_resume_reaches_same_answer_with_fewer_new_conflicts():
    formula = pigeonhole_formula(6)
    cold = Solver(formula, config_by_name("berkmin")).solve()
    assert cold.is_unsat

    budget = cold.stats.conflicts // 2
    snapshot = capture_snapshot(_partial_solver(formula, conflicts=budget))

    resumed_solver = Solver(formula, config_by_name("berkmin"))
    assert restore_snapshot(resumed_solver, snapshot) is True
    assert resumed_solver.stats.conflicts == budget
    assert resumed_solver.stats.resumes == 1
    assert len(resumed_solver.learned) == len(snapshot.learned)

    resumed = resumed_solver.solve()
    assert resumed.status == cold.status
    # The acceptance bar: the inherited learned clauses/activities must
    # make the post-resume search measurably cheaper than a cold restart.
    post_resume_conflicts = resumed.stats.conflicts - budget
    assert post_resume_conflicts < cold.stats.conflicts


def test_resume_restores_heuristic_state():
    solver = _partial_solver(pigeonhole_formula(5), conflicts=120)
    snapshot = capture_snapshot(solver)
    fresh = Solver(pigeonhole_formula(5), config_by_name("berkmin"))
    assert fresh.resume(snapshot) is True
    assert list(fresh.var_activity) == snapshot.var_activity
    assert list(fresh.lit_activity) == snapshot.lit_activity
    assert list(fresh.vsids) == snapshot.vsids
    assert fresh.birth_counter == snapshot.birth_counter
    assert fresh.rng.getstate() == tuple(snapshot.rng_state)
    assert [sorted(fresh._ref_literals(ref)) for ref in fresh.learned] == [
        sorted(literals) for literals, _, _, _ in snapshot.learned
    ]


def test_resume_is_deterministic():
    formula = pigeonhole_formula(5)
    snapshot = capture_snapshot(_partial_solver(formula, conflicts=100))
    outcomes = []
    for _ in range(2):
        solver = Solver(formula, config_by_name("berkmin"))
        assert solver.resume(snapshot)
        result = solver.solve()
        outcomes.append((result.status, result.stats.conflicts, result.stats.decisions))
    assert outcomes[0] == outcomes[1]


def test_formula_mismatch_degrades_to_cold_start():
    snapshot = capture_snapshot(_partial_solver(pigeonhole_formula(5)))
    other = Solver(pigeonhole_formula(4), config_by_name("berkmin"))
    with pytest.warns(CheckpointWarning):
        assert other.resume(snapshot) is False
    assert other.stats.resumes == 0
    assert other.solve().is_unsat  # the cold start is genuinely clean


def test_sat_instance_resume():
    formula = planted_ksat(30, 126, 3, seed=5)
    cold = Solver(formula, config_by_name("berkmin")).solve()
    assert cold.is_sat
    solver = Solver(formula, config_by_name("berkmin"))
    budget = max(cold.stats.conflicts // 2, 1)
    partial = solver.solve(max_conflicts=budget)
    snapshot = capture_snapshot(solver)
    if partial.is_unknown:
        fresh = Solver(formula, config_by_name("berkmin"))
        assert fresh.resume(snapshot)
        result = fresh.solve()
        assert result.is_sat
        assert formula.evaluate(result.model)


def test_resume_requires_fresh_solver():
    formula = pigeonhole_formula(4)
    snapshot = capture_snapshot(_partial_solver(formula, conflicts=10))
    used = Solver(formula, config_by_name("berkmin"))
    used.solve()
    with pytest.raises(ValueError):
        restore_snapshot(used, snapshot)


def test_proof_trace_survives_resume(monkeypatch):
    from repro.proof import check_rup_proof, rup

    formula = pigeonhole_formula(5)
    config = config_by_name("berkmin", proof_logging=True, inprocess_interval=1)
    solver = Solver(formula, config)
    assert solver.solve(max_conflicts=80).is_unknown
    snapshot = capture_snapshot(solver)
    assert snapshot.proof  # the partial trace rides in the snapshot
    assert len(snapshot.proof_hints) == len(snapshot.proof)
    assert snapshot.learned_ids and "active_ids" in snapshot.arena
    snapshot = type(snapshot).from_payload(snapshot.to_payload())  # as from a file

    fresh = Solver(formula, config)
    assert fresh.resume(snapshot)
    result = fresh.solve()
    assert result.is_unsat
    check_rup_proof(formula, result.proof)  # end-to-end checkable across the seam
    # The resumed solver's hints name the restored clauses correctly:
    # the checker follows every one without falling back.
    fallbacks = []
    full_check = rup._Database._full_check

    def recording(database, literals):
        fallbacks.append(len(database.step_cids))
        return full_check(database, literals)

    monkeypatch.setattr(rup._Database, "_full_check", recording)
    check_rup_proof(formula, result.proof, hints=result.proof_hints)
    assert fallbacks == []


def test_proofless_snapshot_disables_proof_logging_with_warning():
    formula = pigeonhole_formula(4)
    snapshot = capture_snapshot(_partial_solver(formula, conflicts=10))
    assert snapshot.proof is None
    wants_proof = Solver(formula, config_by_name("berkmin", proof_logging=True))
    with pytest.warns(CheckpointWarning):
        assert wants_proof.resume(snapshot) is True
    assert wants_proof.proof is None


def test_save_and_load_checkpoint_files(tmp_path):
    path = tmp_path / "solver.ckpt"
    solver = _partial_solver(pigeonhole_formula(5), conflicts=60)
    saved = save_checkpoint(solver, path)
    loaded = load_checkpoint(path)
    assert loaded == saved
    assert checkpoint_conflicts(path) == 60


def test_try_load_missing_file_is_silent(tmp_path):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert try_load_checkpoint(tmp_path / "absent.ckpt") is None
    assert caught == []


def test_try_load_corrupt_file_warns(tmp_path):
    path = tmp_path / "solver.ckpt"
    save_checkpoint(_partial_solver(pigeonhole_formula(4), conflicts=10), path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.warns(CheckpointWarning):
        assert try_load_checkpoint(path) is None
    assert checkpoint_conflicts(path) is None  # the quiet peek stays quiet


def test_resume_from_path_degrades_on_corruption(tmp_path):
    formula = pigeonhole_formula(4)
    path = tmp_path / "solver.ckpt"
    save_checkpoint(_partial_solver(formula, conflicts=10), path)
    path.write_bytes(b"RSCKgarbage")
    solver = Solver(formula, config_by_name("berkmin"))
    with pytest.warns(CheckpointWarning):
        assert solver.resume(str(path)) is False
    assert solver.solve().is_unsat


def test_snapshot_of_a_solver_grown_by_an_assumption_resumes_warm():
    """An assumption naming a variable past the formula's grows the
    solver; a fresh solver for the formula grows to match on resume."""
    formula = pigeonhole_formula(7)
    solver = Solver(formula, config_by_name("berkmin"))
    assert solver.solve(assumptions=[59], max_conflicts=300).is_unknown
    snapshot = capture_snapshot(solver)
    assert snapshot.num_variables == 59 > formula.num_variables
    fresh = Solver(formula, config_by_name("berkmin"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert fresh.resume(snapshot)
    assert fresh.num_variables == 59
    assert fresh.solve().is_unsat


def test_snapshot_with_too_few_or_too_many_variables_cold_starts():
    from dataclasses import replace

    from repro.solver.solver import MAX_VARIABLES

    formula = pigeonhole_formula(5)
    snapshot = capture_snapshot(_partial_solver(formula))
    for count in (formula.num_variables - 1, MAX_VARIABLES + 1):
        fresh = Solver(formula, config_by_name("berkmin"))
        with pytest.warns(CheckpointWarning, match="variable count mismatch"):
            assert fresh.resume(replace(snapshot, num_variables=count)) is False
        assert fresh.num_variables == formula.num_variables
        assert fresh.solve().is_unsat
