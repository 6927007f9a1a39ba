"""Capturing and restoring the resumable search state of a solver.

BerkMin's most valuable asset is the state it *accumulates*: the
learned-clause stack, the variable/literal/clause activities that drive
mobility branching, and the aging counters (paper Sections 5-8).  A
:class:`SolverSnapshot` captures exactly that state — everything a
fresh solver on the same formula needs to continue the search rather
than restart it:

* the level-0 trail (permanent assignments, including learned units);
* every learned clause with its activity, birth stamp, and protection
  mark;
* ``var_activity`` / ``lit_activity`` / ``vsids`` counters (the phase
  heuristics of Section 7 read ``lit_activity`` directly, so restoring
  it restores the solver's branch-polarity memory);
* the database-aging state (``old_threshold``, ``birth_counter``);
* the RNG state, so tie-breaking continues the interrupted trajectory;
* the inprocessed clause database (live original clauses and the
  eliminated-variable stack);
* the full :class:`~repro.solver.stats.SolverStats` snapshot (captured
  and restored by dataclass-field introspection, so new counters ride
  along automatically);
* the DRUP proof trace, when the producing solver logged one — a
  resumed UNSAT answer stays checkable end to end.

Restoring is *defensive by construction*: the snapshot names the
formula it belongs to by fingerprint, and every mismatch — wrong
formula, wrong table sizes, undecodable RNG state — degrades to a
clean cold start with a :class:`CheckpointWarning`, never an exception.
Trust in the snapshot's semantic content (trail + learned clauses) is
exactly the trust already placed in the solver's own memory; the
trusted-results gate (:mod:`repro.reliability.verify`) remains the
arbiter of answers either way.
"""

from __future__ import annotations

import hashlib
import os
import warnings
from array import array
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING

from repro.checkpoint.envelope import (
    CheckpointError,
    read_checkpoint_file,
    write_checkpoint_file,
)
from repro.cnf.literals import FALSE, TRUE, UNASSIGNED
from repro.solver.stats import SolverStats

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.solver.solver import Solver


class CheckpointWarning(UserWarning):
    """Emitted when a checkpoint is skipped and the solve cold-starts."""


def formula_fingerprint(clauses) -> str:
    """A stable hex fingerprint of a formula's clause list.

    Hashes the clauses in order (the order determines the solver's unit
    enqueue order, so two differently-ordered loads of the same clause
    set are deliberately *different* formulas for resume purposes).
    """
    digest = hashlib.blake2b(digest_size=16)
    for clause in clauses:
        digest.update(" ".join(str(literal) for literal in clause).encode())
        digest.update(b";")
    return digest.hexdigest()


def canonical_fingerprint(clauses) -> str:
    """An order-*insensitive* hex fingerprint of a clause set.

    Unlike :func:`formula_fingerprint` (which keys *resume* state and
    must distinguish clause orderings because they change propagation
    order), this keys *answers*: satisfiability does not depend on
    clause or literal order, so the session answer cache
    (:mod:`repro.session`) uses this form to recognise the same query
    arriving with its clauses shuffled.

    Each clause is canonicalised (literals sorted, duplicates kept) and
    the canonical encodings are sorted before hashing — NOT combined
    with XOR, which would cancel duplicated clauses against each other.
    """
    encodings = sorted(
        " ".join(str(literal) for literal in sorted(clause)).encode()
        for clause in clauses
    )
    digest = hashlib.blake2b(digest_size=16)
    for encoding in encodings:
        digest.update(encoding)
        digest.update(b";")
    return digest.hexdigest()


def _stats_to_payload(stats: SolverStats) -> dict:
    """Every dataclass field of the stats, by introspection."""
    payload = {}
    for spec in fields(SolverStats):
        value = getattr(stats, spec.name)
        payload[spec.name] = dict(value) if isinstance(value, dict) else value
    return payload


def _stats_from_payload(payload: dict) -> SolverStats:
    """Rebuild stats, ignoring unknown keys and defaulting missing ones."""
    known = {spec.name for spec in fields(SolverStats)}
    return SolverStats(**{key: value for key, value in payload.items() if key in known})


@dataclass
class SolverSnapshot:
    """The resumable state of one solver, decoupled from live objects."""

    formula_hash: str
    config_name: str
    seed: int
    num_variables: int
    #: Encoded literals of the level-0 trail, in assignment order.
    level0_trail: list[int]
    #: ``(encoded_literals, activity, birth, protected)`` per learned clause,
    #: oldest first (stack order).
    learned: list[tuple[list[int], int, int, bool]]
    var_activity: list[int]
    lit_activity: list[int]
    vsids: list[int]
    old_threshold: int
    birth_counter: int
    #: ``random.Random.getstate()`` of the producing solver.
    rng_state: tuple
    #: Dataclass-field dump of the producing solver's stats.
    stats: dict
    #: DRUP trace carried across the resume (``None`` when logging was off).
    proof: list[tuple[str, list[int]]] | None
    #: LBD stamped on each learned clause at conflict time, parallel to
    #: :attr:`learned` (0 = never measured).  Checkpoints written before
    #: LBD tracking restore as all zeros.
    learned_lbd: list[int] = field(default_factory=list)
    #: The live post-inprocessing original database and the
    #: eliminated-variable stack for model reconstruction.  ``None`` in
    #: checkpoints written without it; those restore over the pristine
    #: formula, which implies every clause the payload would carry, so
    #: the resume stays sound, just cold on the inprocessing work.
    arena: dict | None = None

    @property
    def conflicts(self) -> int:
        """Lifetime conflicts at capture time (the resume progress marker)."""
        return int(self.stats.get("conflicts", 0))

    def to_payload(self) -> dict:
        """The plain-builtins dictionary stored inside the envelope."""
        return {
            "formula_hash": self.formula_hash,
            "config_name": self.config_name,
            "seed": self.seed,
            "num_variables": self.num_variables,
            "level0_trail": list(self.level0_trail),
            "learned": [
                (list(literals), activity, birth, protected)
                for literals, activity, birth, protected in self.learned
            ],
            "var_activity": list(self.var_activity),
            "lit_activity": list(self.lit_activity),
            "vsids": list(self.vsids),
            "old_threshold": self.old_threshold,
            "birth_counter": self.birth_counter,
            "rng_state": self.rng_state,
            "stats": dict(self.stats),
            "proof": self.proof,
            "learned_lbd": list(self.learned_lbd),
            "arena": self.arena,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "SolverSnapshot":
        """Validate and rebuild a snapshot from an envelope payload."""
        try:
            return cls(
                formula_hash=str(payload["formula_hash"]),
                config_name=str(payload["config_name"]),
                seed=int(payload["seed"]),
                num_variables=int(payload["num_variables"]),
                level0_trail=[int(lit) for lit in payload["level0_trail"]],
                learned=[
                    ([int(lit) for lit in literals], int(activity), int(birth), bool(protected))
                    for literals, activity, birth, protected in payload["learned"]
                ],
                var_activity=[int(v) for v in payload["var_activity"]],
                lit_activity=[int(v) for v in payload["lit_activity"]],
                vsids=[int(v) for v in payload["vsids"]],
                old_threshold=int(payload["old_threshold"]),
                birth_counter=int(payload["birth_counter"]),
                rng_state=payload["rng_state"],
                stats=dict(payload["stats"]),
                proof=payload.get("proof"),
                learned_lbd=[int(v) for v in payload.get("learned_lbd") or []],
                arena=payload.get("arena"),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise CheckpointError(f"malformed snapshot payload: {error}") from error


# ---------------------------------------------------------------------------
# Capture
# ---------------------------------------------------------------------------
def capture_snapshot(solver: "Solver") -> SolverSnapshot:
    """Snapshot the resumable state of ``solver``.

    Safe to call from an ``on_progress`` hook mid-search: only the
    level-0 prefix of the trail is captured (assignments above it belong
    to the abandoned search tree), and every mutable list is copied, so
    the snapshot stays valid while the search moves on.
    """
    limits = solver.trail_limits
    level0_end = limits[0] if limits else len(solver.trail)
    proof = (
        [(op, list(literals)) for op, literals in solver.proof]
        if solver.proof is not None
        else None
    )
    return SolverSnapshot(
        formula_hash=formula_fingerprint(solver._pristine),
        config_name=solver.config.name,
        seed=solver.config.seed,
        num_variables=solver.num_variables,
        level0_trail=list(solver.trail[:level0_end]),
        learned=solver._learned_snapshot_rows(),
        var_activity=[int(v) for v in solver.var_activity],
        lit_activity=[int(v) for v in solver.lit_activity],
        vsids=[int(v) for v in solver.vsids],
        old_threshold=solver.old_threshold,
        birth_counter=solver.birth_counter,
        rng_state=solver.rng.getstate(),
        stats=_stats_to_payload(solver.stats),
        proof=proof,
        learned_lbd=solver._learned_lbds(),
        arena=solver._arena_snapshot_payload(),
    )


# ---------------------------------------------------------------------------
# Restore
# ---------------------------------------------------------------------------
def _cold_start(reason: str) -> bool:
    warnings.warn(
        f"checkpoint skipped, cold-starting: {reason}",
        CheckpointWarning,
        stacklevel=3,
    )
    return False


def restore_snapshot(solver: "Solver", snapshot: SolverSnapshot) -> bool:
    """Restore ``snapshot`` onto a freshly loaded ``solver``.

    Returns True on a warm resume; returns False — after a
    :class:`CheckpointWarning` — whenever the snapshot does not fit
    (wrong formula, wrong sizes, undecodable RNG state), leaving the
    solver in its pristine cold-start state.  Raises :class:`ValueError`
    only for caller errors: resuming onto a solver that has already
    searched or carries foreign learned clauses.
    """
    if solver.learned or solver.stats.conflicts or solver.stats.decisions:
        raise ValueError(
            "resume requires a fresh solver (no prior search); "
            "build a new Solver for the formula and resume that"
        )
    if solver.current_level() != 0:
        raise ValueError("resume requires decision level 0")

    # ---- validate everything before mutating anything ----------------
    if snapshot.formula_hash != formula_fingerprint(solver._pristine):
        return _cold_start(
            "checkpoint belongs to a different formula "
            f"(hash {snapshot.formula_hash[:12]}…)"
        )
    if snapshot.num_variables != solver.num_variables:
        return _cold_start(
            f"variable count mismatch ({snapshot.num_variables} in checkpoint, "
            f"{solver.num_variables} in formula)"
        )
    per_variable = solver.num_variables + 1
    per_literal = 2 * per_variable
    if (
        len(snapshot.var_activity) != per_variable
        or len(snapshot.lit_activity) != per_literal
        or len(snapshot.vsids) != per_literal
    ):
        return _cold_start("activity table sizes do not match the formula")
    maximum_literal = per_literal - 1
    for literal in snapshot.level0_trail:
        if not 2 <= literal <= maximum_literal:
            return _cold_start(f"trail literal {literal} out of range")
    for literals, _, _, _ in snapshot.learned:
        if len(literals) < 2:
            return _cold_start("learned clause shorter than two literals")
        if any(not 2 <= literal <= maximum_literal for literal in literals):
            return _cold_start("learned clause literal out of range")
    try:
        probe = solver.rng.__class__()
        probe.setstate(_as_rng_state(snapshot.rng_state))
    except (TypeError, ValueError) as error:
        return _cold_start(f"undecodable RNG state ({error})")
    install_arena = snapshot.arena is not None
    if install_arena:
        defect = _validate_arena_payload(snapshot.arena, maximum_literal)
        if defect is not None:
            return _cold_start(defect)

    # ---- inprocessed database ----------------------------------------
    # The snapshot's database may differ from the pristine formula's
    # (inprocessing eliminated variables and swapped in resolvents);
    # swap it in before any clause-dependent work below.
    if install_arena:
        solver._install_arena_state(snapshot.arena)

    # ---- heuristic memory --------------------------------------------
    # Slice-assign in place: anything holding a reference to these
    # vectors keeps seeing the live data.
    solver.var_activity[:] = array("d", snapshot.var_activity)
    solver.lit_activity[:] = array("d", snapshot.lit_activity)
    solver.vsids[:] = array("d", snapshot.vsids)
    solver._refresh_tables()  # the C kernels read these through cached addresses
    solver.old_threshold = snapshot.old_threshold
    solver.birth_counter = snapshot.birth_counter
    solver.rng.setstate(_as_rng_state(snapshot.rng_state))

    # ---- counters -----------------------------------------------------
    stats = _stats_from_payload(snapshot.stats)
    stats.resumes += 1
    solver.stats = stats

    # ---- proof trace --------------------------------------------------
    if solver.proof is not None:
        if snapshot.proof is None:
            warnings.warn(
                "proof logging is enabled but the checkpoint carries no "
                "proof trace; disabling proof logging for the resumed solve",
                CheckpointWarning,
                stacklevel=2,
            )
            solver.proof = None
        else:
            solver.proof = [(op, list(literals)) for op, literals in snapshot.proof]

    # ---- permanent assignments ---------------------------------------
    # The snapshot's level-0 trail is a propagation fixpoint of the
    # formula plus the learned clauses below; the fresh solver's own
    # unit enqueues are a prefix-subset of it.
    for literal in snapshot.level0_trail:
        value = solver.lit_value[literal]
        if value == TRUE:
            continue
        if value == FALSE:
            # The restored state contradicts itself at level 0: the
            # formula plus the checkpoint's derived clauses is refuted.
            solver.ok = False
            solver.log_proof_add([])
            break
        solver._enqueue(literal, None)
    solver.qhead = 0  # let the next solve() re-propagate from scratch

    # ---- learned clauses ---------------------------------------------
    lit_value = solver.lit_value
    lbds = snapshot.learned_lbd
    if len(lbds) != len(snapshot.learned):  # pre-LBD checkpoint
        lbds = [0] * len(snapshot.learned)
    for position, (literals, activity, birth, protected) in enumerate(snapshot.learned):
        ordered = list(literals)
        # Records watch positions 0 and 1; under the restored
        # level-0 assignments those must not both be false unless the
        # clause genuinely is unit/satisfied, so surface two non-false
        # literals first (the clause's literal *set* is preserved — no
        # stripping, no proof divergence).
        front = [
            position
            for position, literal in enumerate(ordered)
            if lit_value[literal] != FALSE
        ][:2]
        for target, source in enumerate(front):
            ordered[target], ordered[source] = ordered[source], ordered[target]
        solver._restore_learned_clause(
            ordered, activity, birth, protected, lbds[position]
        )
        if len(front) == 1 and lit_value[ordered[0]] == UNASSIGNED:
            # Unit under the restored assignments (only possible when the
            # trail restore above stopped early on a conflict).
            solver._enqueue(ordered[0], None)
        elif not front:
            solver.ok = False
            solver.log_proof_add([])
    solver.search_cursor = len(solver.learned) - 1
    solver.stats.peak_clauses = max(
        solver.stats.peak_clauses, len(solver.clauses) + len(solver.learned)
    )
    if solver.trace is not None:
        solver.trace.emit(
            {
                "type": "checkpoint",
                "action": "resume",
                "conflicts": solver.stats.conflicts,
                "resumed_from": snapshot.conflicts,
            }
        )
    return True


def _as_rng_state(state):
    """Recursively tuple-ify an RNG state (JSON/pickle may yield lists)."""
    if isinstance(state, (list, tuple)):
        return tuple(_as_rng_state(item) for item in state)
    return state


def _validate_arena_payload(payload, maximum_literal: int) -> str | None:
    """Shape-check an arena snapshot payload; a defect string or ``None``.

    Runs before any mutation so a malformed payload degrades to a clean
    cold start instead of leaving the solver half-installed.
    """
    if not isinstance(payload, dict):
        return "arena payload is not a dict"
    active = payload.get("active")
    eliminated = payload.get("eliminated")
    if not isinstance(active, list) or not isinstance(eliminated, list):
        return "arena payload is missing its active/eliminated lists"
    for literals in active:
        if not isinstance(literals, list) or len(literals) < 2:
            return "arena active clause is not a list of two or more literals"
        if any(
            not isinstance(literal, int) or not 2 <= literal <= maximum_literal
            for literal in literals
        ):
            return "arena active clause literal out of range"
    for entry in eliminated:
        if not (isinstance(entry, (list, tuple)) and len(entry) == 2):
            return "arena eliminated entry is not a (variable, clauses) pair"
        variable, stored = entry
        if not isinstance(variable, int) or not 1 <= 2 * variable <= maximum_literal:
            return "arena eliminated variable out of range"
        if not isinstance(stored, list):
            return "arena eliminated clause list malformed"
    return None


# ---------------------------------------------------------------------------
# Files
# ---------------------------------------------------------------------------
def save_checkpoint(solver: "Solver", path: str | os.PathLike) -> SolverSnapshot:
    """Capture ``solver`` and write the snapshot to ``path`` atomically."""
    snapshot = capture_snapshot(solver)
    write_checkpoint_file(path, snapshot.to_payload())
    return snapshot


def load_checkpoint(path: str | os.PathLike) -> SolverSnapshot:
    """Read the checkpoint at ``path``; raises :class:`CheckpointError`/``OSError``."""
    return SolverSnapshot.from_payload(read_checkpoint_file(path))


def try_load_checkpoint(path: str | os.PathLike) -> SolverSnapshot | None:
    """Graceful read: ``None`` (plus a warning) instead of an exception.

    A missing file is the normal first-run case and stays silent;
    corruption, a stale version, or an unreadable file warns with the
    reason and returns ``None`` so the caller cold-starts.
    """
    try:
        return load_checkpoint(path)
    except FileNotFoundError:
        return None
    except (CheckpointError, OSError) as error:
        warnings.warn(
            f"unreadable checkpoint {os.fspath(path)!r}, cold-starting: {error}",
            CheckpointWarning,
            stacklevel=2,
        )
        return None


def checkpoint_conflicts(
    path: str | os.PathLike, *, require_proof: bool = False
) -> int | None:
    """Peek at a checkpoint's conflict counter without warnings.

    Used by the supervising parents to stamp
    ``AttemptRecord.resumed_from_conflicts`` on relaunches; any defect
    simply reads as "no checkpoint" (the worker will warn if it
    matters).  ``require_proof=True`` applies the worker's rule for
    proof-obligated launches: a snapshot without a proof trace cannot
    be resumed (the resumed run could never justify its answer), so it
    too reads as "no checkpoint".
    """
    try:
        snapshot = load_checkpoint(path)
    except (CheckpointError, OSError):
        return None
    if require_proof and snapshot.proof is None:
        return None
    return snapshot.conflicts
