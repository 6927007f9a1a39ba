"""The trusted-results gate: no answer leaves the engine unchecked.

:func:`verify_result` re-derives confidence in a :class:`SolveResult`
from first principles, in the *parent* process — workers are treated as
untrusted (they may have been corrupted, OOM-killed mid-write, or fault
-injected):

* SAT answers are model-checked against the **original,
  pre-simplification** formula, clause by clause;
* UNSAT answers (at level ``"full"``) are checked by running the
  DRUP/RUP proof checker (:func:`repro.proof.check_rup_proof`) over the
  recorded trace, following the hints recorded beside it (advice the
  checker verifies, never trusts);
* UNKNOWN answers assert nothing and need no check.

Verification levels (see :data:`repro.solver.config.VERIFICATION_LEVELS`):
``"off"`` skips the gate, ``"sat"`` checks models only, ``"full"``
checks models and proofs.  The parallel engines treat a gate failure
exactly like a crashed worker: the attempt is recorded as ``"corrupted
result"`` and retried under the active
:class:`~repro.reliability.retry.RetryPolicy`.
"""

from __future__ import annotations

from repro.cnf.formula import CnfFormula, unsatisfied_clause
from repro.proof import ProofError, check_rup_proof
from repro.solver.config import VERIFY_FULL, VERIFY_OFF, check_verification
from repro.solver.result import SolveResult, SolveStatus


class VerificationError(ValueError):
    """Raised when an answer fails the trusted-results gate."""


def check_result_shape(payload) -> str | None:
    """Structural sanity of a worker's posted payload; cheap and always on.

    Returns ``None`` for a well-formed :class:`SolveResult`, else a
    description of the defect.  This catches truncated or mistyped
    payloads before any semantic verification runs.
    """
    if not isinstance(payload, SolveResult):
        return f"payload is {type(payload).__name__}, not SolveResult"
    if not isinstance(payload.status, SolveStatus):
        return f"status is {payload.status!r}, not a SolveStatus"
    if payload.status is SolveStatus.SAT and not isinstance(payload.model, dict):
        return "SAT answer carries no model"
    return None


def verify_result(
    formula: CnfFormula,
    result: SolveResult,
    level: str = VERIFY_FULL,
    *,
    deadline: float | None = None,
) -> str | None:
    """Check ``result`` against ``formula``; return what was verified.

    Returns ``"model"`` when a SAT model was checked, ``"proof"`` when
    an UNSAT proof was checked, and ``None`` when the level (or the
    result's nature) called for no check.  Raises
    :class:`VerificationError` when a check *ran and failed* — including
    an UNSAT answer that should carry a proof but does not.

    UNSAT-under-assumptions answers carry no standalone refutation of
    the formula, so they pass the gate unchecked (their ``core`` is the
    caller's to validate).  ``deadline`` (a ``time.monotonic()``
    instant) bounds the proof check; past it,
    :class:`~repro.proof.ProofCheckTimeout` propagates — the answer is
    then neither verified nor refuted.
    """
    check_verification(level)
    if level == VERIFY_OFF:
        return None
    shape = check_result_shape(result)
    if shape is not None:
        raise VerificationError(shape)

    if result.status is SolveStatus.SAT:
        clause = unsatisfied_clause(formula.clauses, result.model, formula.num_variables)
        if clause is not None:
            raise VerificationError(f"model does not satisfy clause {clause}")
        return "model"

    if result.status is SolveStatus.UNSAT and level == VERIFY_FULL:
        if result.under_assumptions:
            return None
        if result.proof is None:
            raise VerificationError(
                "UNSAT answer carries no proof "
                "(enable proof_logging or verification='full')"
            )
        try:
            check_rup_proof(
                formula, result.proof, hints=result.proof_hints, deadline=deadline
            )
        except ProofError as error:
            raise VerificationError(f"proof check failed: {error}") from error
        return "proof"

    return None
