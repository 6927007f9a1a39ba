"""A DRUP proof checker (reverse unit propagation).

A clause C is a *RUP consequence* of a clause set F when asserting the
negation of C and running unit propagation over F derives a conflict.
Every clause a CDCL solver learns has this property, as do the
strengthened clauses produced by level-0 literal stripping (the paper's
database compaction), so the solver's whole trace is checkable.

The checker is intentionally straightforward — clause lists and counters
rather than watched literals — because its job is to be obviously
correct, not fast.  Tests apply it to small and medium UNSAT instances.
"""

from __future__ import annotations

import time
from collections.abc import Iterable, Sequence

from repro.cnf.formula import CnfFormula


class ProofError(ValueError):
    """Raised when a proof step fails verification."""


class ProofCheckTimeout(TimeoutError):
    """Raised when the check's deadline passes before it finishes.

    The proof is then neither accepted nor rejected.
    """


def check_rup_proof(
    formula: CnfFormula,
    proof: Sequence[tuple[str, list[int]]],
    *,
    require_empty_clause: bool = True,
    deadline: float | None = None,
) -> bool:
    """Verify a DRUP trace against ``formula``.

    ``proof`` entries are ``("a", clause)`` additions or ``("d", clause)``
    deletions in DIMACS literals, in solver order.  Every addition must
    be RUP with respect to the clauses currently in the database;
    deletions must name present clauses.  Returns True on success and
    raises :class:`ProofError` otherwise.  ``deadline``, a
    ``time.monotonic()`` instant, bounds the check: once it passes,
    :class:`ProofCheckTimeout` is raised before the next step.
    """
    database: list[list[int]] = [list(clause) for clause in formula.clauses]
    empty_seen = any(not clause for clause in database)

    for step_number, (kind, clause) in enumerate(proof):
        if deadline is not None and time.monotonic() >= deadline:
            raise ProofCheckTimeout(
                f"deadline passed at proof step {step_number} of {len(proof)}"
            )
        if kind == "a":
            if not _is_rup(database, clause):
                raise ProofError(
                    f"step {step_number}: clause {clause} is not a RUP consequence"
                )
            database.append(list(clause))
            if not clause:
                empty_seen = True
        elif kind == "d":
            _delete(database, clause, step_number)
        else:
            raise ProofError(f"step {step_number}: unknown proof action {kind!r}")

    if require_empty_clause and not empty_seen:
        raise ProofError("proof does not derive the empty clause")
    return True


def _delete(database: list[list[int]], clause: list[int], step_number: int) -> None:
    target = sorted(clause)
    for index, present in enumerate(database):
        if sorted(present) == target:
            del database[index]
            return
    raise ProofError(f"step {step_number}: deleted clause {clause} not in database")


def _is_rup(database: Iterable[list[int]], clause: list[int]) -> bool:
    """Does asserting ``not clause`` propagate to a conflict over ``database``?"""
    assignment: dict[int, bool] = {}
    for literal in clause:
        negated_value = literal < 0  # literal false -> its variable = not sign
        variable = abs(literal)
        if assignment.get(variable, negated_value) != negated_value:
            return True  # the negation is self-contradictory: trivially RUP
        assignment[variable] = negated_value

    changed = True
    while changed:
        changed = False
        for present in database:
            unassigned: list[int] = []
            satisfied = False
            for literal in present:
                variable = abs(literal)
                if variable not in assignment:
                    # Deduplicate: [26, 26, -31] must still become unit
                    # once -31 is false (input clauses may repeat
                    # literals; the solver dedupes, the checker must too).
                    if literal not in unassigned:
                        unassigned.append(literal)
                elif assignment[variable] == (literal > 0):
                    satisfied = True
                    break
            if satisfied:
                continue
            if not unassigned:
                return True  # conflict reached
            if len(unassigned) == 1:
                unit = unassigned[0]
                assignment[abs(unit)] = unit > 0
                changed = True
    return False
