"""Proof checking for UNSAT answers.

BerkMin's clause deletion makes the solver incomplete in principle
(paper Section 8), so trusting its UNSAT answers warrants independent
evidence.  When :attr:`SolverConfig.proof_logging` is on, the solver
emits a DRUP-style trace (clause additions and deletions);
:func:`check_rup_proof` replays it forward, verifying every added clause
by the reverse-unit-propagation criterion and that the trace ends with
the empty clause.  The checker uses watched literals, a persistent
top-level trail and hashed deletion (see :mod:`repro.proof.rup`); it is
pure Python and imports nothing from the solver it checks.
"""

from repro.proof.rup import ProofCheckTimeout, ProofError, check_rup_proof

__all__ = ["ProofCheckTimeout", "ProofError", "check_rup_proof"]
