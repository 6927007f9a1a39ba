"""Proof checking for UNSAT answers.

BerkMin's clause deletion makes the solver incomplete in principle
(paper Section 8), so trusting its UNSAT answers warrants independent
evidence.  When :attr:`SolverConfig.proof_logging` is on, the solver
emits a DRUP-style trace (clause additions and deletions);
:func:`check_rup_proof` replays it forward, verifying every added clause
by the reverse-unit-propagation criterion and that the trace ends with
the empty clause.  The checker loads the formula in bulk and uses
watched literals, a persistent top-level trail and hashed deletion (see
:mod:`repro.proof.rup`); it is pure Python and imports nothing from the
solver it checks.

Beside the trace the solver records *hints*: for each addition it can
justify, the ids of the clauses that make it RUP, in propagation order
(BerkMin's responsible clauses, for a learned clause).  An id ``-1 - i``
names input clause ``i`` and an id ``s >= 0`` the clause proof step
``s`` added.  The checker treats hints as untrusted advice: it follows
them while each hinted clause is unit, accepts on a falsified one, and
otherwise propagates in full, so hints speed a check up without
changing what it accepts.
"""

from repro.proof.rup import ProofCheckTimeout, ProofError, check_rup_proof

__all__ = ["ProofCheckTimeout", "ProofError", "check_rup_proof"]
