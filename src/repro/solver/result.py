"""Solve outcomes.

A solve call returns :class:`SolveResult`, which carries the status, a
verified model for SAT answers, the statistics snapshot, and (when proof
logging is enabled) a DRUP-style proof trace for UNSAT answers, with the
hints that let the checker follow it.

``UNKNOWN`` is a first-class status: BerkMin's database management makes
the solver incomplete in principle (Section 8 of the paper), and the
reproduction harness replaces the paper's wall-clock timeouts with
machine-independent conflict budgets — exhausting a budget yields
``UNKNOWN``, never a wrong answer.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.solver.stats import SolverStats


class SolveStatus(enum.Enum):
    """Tri-state answer of a solve call."""

    SAT = "SAT"
    UNSAT = "UNSAT"
    UNKNOWN = "UNKNOWN"

    def __bool__(self) -> bool:
        raise TypeError(
            "SolveStatus has three values; compare against SolveStatus.SAT explicitly"
        )


@dataclass
class AttemptRecord:
    """One supervised launch of a worker, as recorded by the parallel engine.

    The reliability layer (``repro.reliability``) relaunches crashed,
    hung, or corrupted workers under a
    :class:`~repro.reliability.retry.RetryPolicy`; every launch —
    including the final successful one — leaves one of these records on
    :attr:`SolveResult.attempts` so the full failure/recovery history of
    an answer is auditable.
    """

    #: 0-based attempt index (0 = the first launch).
    attempt: int
    #: Name of the configuration used for this attempt.
    config_name: str
    #: Seed used for this attempt (retries reseed by default).
    seed: int
    #: ``"ok"`` for a successful attempt, else the failure reason
    #: (``"worker crashed (SIGKILL)"``, ``"stalled"``, ``"corrupted
    #: result"``, ...) — the same string the degraded result's
    #: ``limit_reason`` carries when no retry succeeds.
    outcome: str
    #: Wall-clock seconds between this attempt's launch and its end.
    wall_seconds: float = 0.0
    #: Optional elaboration (e.g. the verification failure message).
    detail: str | None = None
    #: When this attempt warm-resumed from a checkpoint: the conflict
    #: count the checkpoint carried (i.e. the progress inherited instead
    #: of redone).  ``None`` for cold starts.
    resumed_from_conflicts: int | None = None


@dataclass
class SolveResult:
    """Outcome of :meth:`repro.solver.Solver.solve`."""

    status: SolveStatus
    model: dict[int, bool] | None = None
    stats: SolverStats = field(default_factory=SolverStats)
    #: DRUP-style trace: ("a", clause) additions and ("d", clause) deletions
    #: in DIMACS literals; populated when proof logging is enabled and the
    #: answer is UNSAT.
    proof: list[tuple[str, list[int]]] | None = None
    #: Why the answer is UNKNOWN ("conflict budget", "time budget", ...).
    limit_reason: str | None = None
    #: True when an UNSAT answer only refutes the formula *under the
    #: assumptions* passed to solve(), not the formula itself.
    under_assumptions: bool = False
    #: For UNSAT-under-assumptions answers: a subset of the assumption
    #: literals that already contradicts the formula (a failed-assumption
    #: core, MiniSat-style).  None otherwise.
    core: list[int] | None = None
    #: Number of assumption literals the producing solve call received
    #: (0 for unconditional solves).  Kept even on SAT/UNKNOWN answers so
    #: session traffic is readable in logs.
    num_assumptions: int = 0
    #: Name of the :class:`SolverConfig` that produced this answer.  For
    #: portfolio solves this identifies the winning configuration.
    config_name: str | None = None
    #: Wall-clock seconds of the producing ``solve`` call.
    wall_seconds: float = 0.0
    #: Supervised-attempt history recorded by the parallel engine when a
    #: :class:`~repro.reliability.retry.RetryPolicy` is active.  ``None``
    #: for plain sequential solves.
    attempts: list[AttemptRecord] | None = None
    #: How the trusted-results gate checked this answer: ``"model"``
    #: (SAT answer model-checked against the original formula),
    #: ``"proof"`` (UNSAT answer RUP-checked), or ``None`` when no check
    #: ran.  Set by :func:`repro.reliability.verify_result` callers.
    verified: str | None = None
    #: Parallel to :attr:`proof`: per step, the ids of the clauses that
    #: make an addition RUP, in propagation order, or ``None``.  An id
    #: ``-1 - i`` names input clause ``i``, an id ``s >= 0`` the clause
    #: proof step ``s`` added.  The checker treats them as advice only
    #: (see :mod:`repro.proof.rup`).
    proof_hints: list[list[int] | None] | None = None

    @property
    def is_sat(self) -> bool:
        """True iff the status is SAT."""
        return self.status is SolveStatus.SAT

    @property
    def is_unsat(self) -> bool:
        """True iff the status is UNSAT."""
        return self.status is SolveStatus.UNSAT

    @property
    def is_unknown(self) -> bool:
        """True iff a budget stopped the search."""
        return self.status is SolveStatus.UNKNOWN

    @property
    def degraded(self) -> bool:
        """True when this UNKNOWN came from worker failure, not a budget.

        A budget-stopped UNKNOWN is the solver's honest "ran out of
        conflicts/seconds"; a *degraded* UNKNOWN means the supervising
        engine burned every retry on a crashing/hanging/corrupting
        worker and gave up.  The distinction matters operationally —
        degraded answers point at infrastructure, not at the instance.
        """
        return (
            self.is_unknown
            and bool(self.attempts)
            and self.attempts[-1].outcome != "ok"
        )

    @property
    def degradation(self) -> str | None:
        """One-line failure story for a degraded UNKNOWN, else ``None``.

        E.g. ``"worker crashed (SIGKILL) after 3 attempts"`` — the final
        attempt's outcome plus how many supervised launches were burned,
        without digging through :attr:`attempts`.
        """
        if not self.degraded:
            return None
        assert self.attempts is not None
        reason = self.limit_reason or self.attempts[-1].outcome
        count = len(self.attempts)
        return f"{reason} after {count} attempt{'s' if count != 1 else ''}"

    def __repr__(self) -> str:
        parts = [self.status.value]
        if self.config_name:
            parts.append(f"config={self.config_name!r}")
        parts.append(f"decisions={self.stats.decisions}")
        parts.append(f"conflicts={self.stats.conflicts}")
        if self.num_assumptions:
            parts.append(f"assumptions={self.num_assumptions}")
        if self.core is not None:
            parts.append(f"core={len(self.core)}")
        if self.wall_seconds:
            parts.append(f"wall={self.wall_seconds:.3f}s")
        if self.degraded:
            parts.append(f"degraded={self.degradation!r}")
        elif self.is_unknown and self.limit_reason:
            parts.append(f"limit_reason={self.limit_reason!r}")
        if self.verified:
            parts.append(f"verified={self.verified!r}")
        if self.attempts and len(self.attempts) > 1 and not self.degraded:
            parts.append(f"attempts={len(self.attempts)}")
        return f"SolveResult({', '.join(parts)})"
