"""Branch (phase) selection heuristics — Section 7 of the paper.

Once a branching *variable* is chosen, the phase heuristic decides
which of its two assignments to explore first, returning the encoded
literal to enqueue (the literal made *true* by the decision).

The paper treats two situations differently.  Top-clause decisions
(some conflict clause is unsatisfied) *symmetrize* the database; they
read the clause record, so they live with the engine as
:meth:`repro.solver.solver.Solver._top_clause_literal`.  Formula-level
decisions (every conflict clause satisfied), implemented here, maximize
expected BCP power through the ``nb_two`` cost function — a count of
binary clauses in the literal's neighbourhood — and falsify the literal
with the larger value, read off the watch chains
(:meth:`repro.solver.solver.Solver._binary_partners`).  This is the
pure-Python reference of the C search loop's own ``nb_two`` phase.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.solver import config as cfg

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.solver.solver import Solver


def formula_literal(solver: "Solver", variable: int) -> int:
    """Choose the first branch for a formula-level decision."""
    heuristic = solver.config.formula_phase
    positive = 2 * variable
    negative = positive + 1

    if heuristic == cfg.FORMULA_PHASE_NB_TWO:
        positive_score = nb_two(solver, positive)
        negative_score = nb_two(solver, negative)
        if positive_score == negative_score:
            return nb_two_tie(solver, variable)
        falsified = positive if positive_score > negative_score else negative
        # Assign the value that sets the chosen literal to 0, i.e. make its
        # complement true: that is what maximizes immediate BCP.
        return falsified ^ 1

    if heuristic == cfg.FORMULA_PHASE_TAKE_0:
        return negative
    if heuristic == cfg.FORMULA_PHASE_TAKE_1:
        return positive
    if heuristic == cfg.FORMULA_PHASE_TAKE_RAND:
        return solver.rng.choice((positive, negative))
    raise ValueError(f"unknown formula phase heuristic {heuristic!r}")


def nb_two_tie(solver: "Solver", variable: int) -> int:
    """The first branch on ``variable`` when its literals' ``nb_two`` tie:
    falsify one drawn from the solver's rng."""
    positive = 2 * variable
    return solver.rng.choice((positive, positive + 1)) ^ 1


def nb_two(solver: "Solver", literal: int) -> int:
    """BerkMin's binary-clause neighbourhood cost function.

    ``nb_two(l)`` counts the binary clauses containing ``l`` and, for each
    binary clause ``(l v v)``, the binary clauses containing ``not v`` —
    a one-step estimate of the unit propagations triggered by setting
    ``l`` to 0.  Computation stops once the paper's threshold (default
    100) is exceeded, since past that point the exact value no longer
    changes the comparison; that exit makes the value depend on the
    order of the sum, oldest record first in both engines.
    """
    threshold = solver.config.nb_two_threshold
    partners = solver._binary_partners(literal)
    total = len(partners)
    if total > threshold:
        return total
    for other in partners:
        total += len(solver._binary_partners(other ^ 1))
        if total > threshold:
            return total
    return total
