"""Inprocessing coverage: elimination, arena GC, and the checkpoint seam.

Bounded variable elimination rewrites the live formula mid-search, so
three things must keep working across it: SAT models must extend over
eliminated variables and still satisfy the *original* formula, the
arena's mark-and-compact GC must reclaim the words that elimination and
clause sweeps kill without corrupting the live records, and a
checkpoint captured after a compaction must restore into an equivalent
solver (same answer, eliminated stack intact).  The C kernels and their
pure-Python fallbacks must agree bit-for-bit on whole trajectories —
``REPRO_SAT_PURE=1`` is the fallback's audit switch.
"""

from __future__ import annotations

import os
import subprocess
import sys

from repro.generators import pigeonhole_formula
from repro.reliability.verify import verify_result
from repro.solver.config import berkmin_config
from repro.solver.result import SolveStatus
from repro.solver.solver import Solver

#: Aggressive knobs: inprocess on every restart, restart early, collect
#: the arena as soon as 5% of its words are dead.
_AGGRESSIVE = dict(restart_interval=20, inprocess_interval=1, arena_gc_fraction=0.05)


def test_eliminated_variable_model_reconstruction():
    # A square pigeonhole instance: satisfiable (a perfect matching),
    # and its at-most-one ladders give elimination plenty of
    # low-occurrence candidates.
    formula = pigeonhole_formula(8, 8)
    solver = Solver(formula, config=berkmin_config(**_AGGRESSIVE))
    result = solver.solve()  # verify=True re-checks the model internally
    assert result.status is SolveStatus.SAT
    assert solver.stats.eliminated_variables > 0
    # The model must cover every variable — including eliminated ones,
    # which only reconstruction can value — and satisfy every original
    # clause (the arena's live database no longer contains them all).
    assert set(result.model) == set(range(1, formula.num_variables + 1))
    for clause in formula.clauses:
        assert any(result.model[abs(lit)] == (lit > 0) for lit in clause)


def test_arena_gc_fires_under_forced_reduce_and_answers_hold():
    for name, formula, expected in [
        ("hole6", pigeonhole_formula(6), SolveStatus.UNSAT),
        ("hole8x8", pigeonhole_formula(8, 8), SolveStatus.SAT),
    ]:
        solver = Solver(formula, config=berkmin_config(**_AGGRESSIVE))
        result = solver.solve()
        assert result.status is expected, name
        assert solver.stats.inprocess_passes > 0, name
        assert solver.stats.arena_collections > 0, name
        # After GC the dead-word ledger must match a fresh scan: fewer
        # dead words than the collection threshold implies.
        assert solver.arena_dead <= len(solver.arena)


def test_unsat_proof_rup_checks_across_inprocessing():
    formula = pigeonhole_formula(5)
    solver = Solver(
        formula, config=berkmin_config(proof_logging=True, **_AGGRESSIVE)
    )
    result = solver.solve()
    assert result.status is SolveStatus.UNSAT
    assert solver.stats.eliminated_variables > 0
    assert verify_result(formula, result) == "proof"


def test_checkpoint_roundtrip_across_compaction(tmp_path):
    from repro.checkpoint.snapshot import save_checkpoint, try_load_checkpoint

    formula = pigeonhole_formula(7)
    solver = Solver(formula, config=berkmin_config(seed=9, **_AGGRESSIVE))
    partial = solver.solve(max_conflicts=2000)
    assert partial.status is SolveStatus.UNKNOWN
    assert solver.stats.arena_collections > 0  # a compaction already ran
    assert solver.stats.eliminated_variables > 0
    path = tmp_path / "arena.ckpt"
    save_checkpoint(solver, path)

    resumed = Solver(formula, config=berkmin_config(seed=9, **_AGGRESSIVE))
    snapshot = try_load_checkpoint(path)
    assert snapshot is not None and snapshot.arena is not None
    assert resumed.resume(snapshot)
    # The eliminated stack must survive the round trip: those variables
    # stay out of the search and reconstruct at model-extraction time.
    assert len(resumed._eliminated) == len(solver._eliminated)
    result = resumed.solve()
    assert result.status is SolveStatus.UNSAT


def test_snapshot_without_arena_payload_resumes_over_pristine_formula(tmp_path):
    """A checkpoint with no inprocessed-database payload (as written
    before the payload existed) restores its learned clauses over the
    pristine formula — which implies every clause the payload would
    carry — and still answers correctly."""
    from dataclasses import replace

    from repro.checkpoint.snapshot import save_checkpoint, try_load_checkpoint

    formula = pigeonhole_formula(6)
    donor = Solver(formula, config=berkmin_config(seed=4, **_AGGRESSIVE))
    donor.solve(max_conflicts=500)
    path = tmp_path / "old.ckpt"
    save_checkpoint(donor, path)

    receiver = Solver(formula, config=berkmin_config(seed=4))
    snapshot = replace(try_load_checkpoint(path), arena=None)
    assert receiver.resume(snapshot)
    assert not receiver._eliminated  # nothing installed from a payload
    assert len(receiver.learned) == len(donor.learned)
    assert receiver.solve().status is SolveStatus.UNSAT


def test_inject_lemma_rejects_eliminated_variables():
    formula = pigeonhole_formula(6)
    solver = Solver(formula, config=berkmin_config(**_AGGRESSIVE))
    solver.solve(max_conflicts=2000)
    assert solver._eliminated, "test premise: elimination must have fired"
    variable = solver._eliminated[0][0]
    assert solver.inject_lemma([variable, -(variable % formula.num_variables + 1)], 2) is False


def test_kernel_and_pure_fallback_trajectories_identical():
    """REPRO_SAT_PURE=1 must not change a single counter.

    The pure-Python propagate/analyze/backtrack paths are the semantics
    reference for the C kernels; a divergence in conflicts, decisions,
    or propagations means the kernel took a different search path.
    Run in a subprocess because kernel loading is cached per-process.
    """
    script = r"""
import json, sys
from repro.generators import pigeonhole_formula, planted_ksat
from repro.solver.config import berkmin_config
from repro.solver.solver import Solver

rows = []
for formula in (pigeonhole_formula(6), planted_ksat(40, 160, 3, seed=2)):
    solver = Solver(
        formula,
        config=berkmin_config(restart_interval=20, inprocess_interval=1, seed=1),
    )
    result = solver.solve()
    rows.append(
        [
            result.status.name,
            solver.stats.conflicts,
            solver.stats.decisions,
            solver.stats.propagations,
            solver.stats.eliminated_variables,
        ]
    )
print(json.dumps(rows))
"""
    outputs = {}
    for pure in ("0", "1"):
        env = dict(os.environ, REPRO_SAT_PURE=pure)
        env["PYTHONPATH"] = os.pathsep.join(sys.path)
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        outputs[pure] = proc.stdout.strip()
    assert outputs["0"] == outputs["1"], (
        f"kernel vs pure fallback diverged:\n{outputs['0']}\n{outputs['1']}"
    )


def test_arena_session_retention_and_incremental_adds():
    """The session seam: retention sweeps and later add_clause calls on
    a solver whose database has been through elimination."""
    formula = pigeonhole_formula(6)
    solver = Solver(formula, config=berkmin_config(**_AGGRESSIVE))
    solver.solve(max_conflicts=1500)
    kept, dropped = solver.retain_learned_by_lbd(3)
    assert kept >= 0 and dropped >= 0
    # A new clause naming an eliminated variable restores it.
    if solver._eliminated:
        variable = solver._eliminated[-1][0]
        assert solver.add_clause([variable]) in (True, False)
        assert not solver._eliminated_mark[variable]
    result = solver.solve()
    assert result.status is SolveStatus.UNSAT
