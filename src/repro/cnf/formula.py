"""The public CNF container.

:class:`CnfFormula` stores clauses as lists of signed DIMACS integers —
the representation users see, and the one generators and encoders
produce.  The solver converts to its internal encoded representation
when clauses are attached.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping


class CnfFormula:
    """A CNF formula over variables ``1..num_variables``.

    Clauses are lists of nonzero signed integers.  The variable count
    grows automatically as clauses mentioning new variables are added,
    and can also be raised explicitly via :meth:`new_variable` (used by
    the Tseitin encoder and the planning encoders to allocate fresh
    auxiliary variables).
    """

    def __init__(
        self,
        clauses: Iterable[Iterable[int]] = (),
        num_variables: int = 0,
        comment: str = "",
    ) -> None:
        if num_variables < 0:
            raise ValueError("num_variables must be nonnegative")
        self.num_variables = num_variables
        self.comment = comment
        self.clauses: list[list[int]] = []
        for clause in clauses:
            self.add_clause(clause)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_clause(self, clause: Iterable[int]) -> None:
        """Append one clause, widening the variable range as needed."""
        literals = list(clause)
        for literal in literals:
            if not isinstance(literal, int) or literal == 0:
                raise ValueError(f"invalid DIMACS literal: {literal!r}")
            variable = abs(literal)
            if variable > self.num_variables:
                self.num_variables = variable
        self.clauses.append(literals)

    def add_clauses(self, clauses: Iterable[Iterable[int]]) -> None:
        """Append many clauses."""
        for clause in clauses:
            self.add_clause(clause)

    def new_variable(self) -> int:
        """Allocate and return a fresh variable index."""
        self.num_variables += 1
        return self.num_variables

    def copy(self) -> "CnfFormula":
        """Return a deep copy (clause lists are copied)."""
        duplicate = CnfFormula(num_variables=self.num_variables, comment=self.comment)
        duplicate.clauses = [list(clause) for clause in self.clauses]
        return duplicate

    # ------------------------------------------------------------------
    # Pickling (formulas cross process boundaries in the parallel engine)
    # ------------------------------------------------------------------
    def __getstate__(self) -> tuple[int, str, list[list[int]]]:
        # A fixed tuple rather than __dict__: skips per-clause revalidation
        # on unpickling and keeps the wire format stable across versions.
        return (self.num_variables, self.comment, self.clauses)

    def __setstate__(self, state: tuple[int, str, list[list[int]]]) -> None:
        self.num_variables, self.comment, self.clauses = state

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def num_clauses(self) -> int:
        """Number of clauses currently in the formula."""
        return len(self.clauses)

    def variables(self) -> set[int]:
        """Return the set of variables actually mentioned by a clause."""
        return {abs(literal) for clause in self.clauses for literal in clause}

    def literal_count(self) -> int:
        """Total number of literal occurrences across all clauses."""
        return sum(len(clause) for clause in self.clauses)

    def __len__(self) -> int:
        return len(self.clauses)

    def __iter__(self) -> Iterator[list[int]]:
        return iter(self.clauses)

    def __repr__(self) -> str:
        return f"CnfFormula(num_variables={self.num_variables}, num_clauses={self.num_clauses})"

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate(self, assignment: Mapping[int, bool]) -> bool:
        """Return True iff ``assignment`` satisfies every clause.

        ``assignment`` maps variables to booleans; it must cover every
        variable occurring in the formula (a :class:`KeyError` signals an
        incomplete assignment).
        """
        for clause in self.clauses:
            if not self.clause_satisfied(clause, assignment):
                return False
        return True

    @staticmethod
    def clause_satisfied(clause: Iterable[int], assignment: Mapping[int, bool]) -> bool:
        """Return True iff some literal of ``clause`` is true under ``assignment``."""
        return any(assignment[abs(literal)] == (literal > 0) for literal in clause)

    def falsified_clauses(self, assignment: Mapping[int, bool]) -> list[list[int]]:
        """Return the clauses not satisfied by a complete ``assignment``."""
        return [clause for clause in self.clauses if not self.clause_satisfied(clause, assignment)]


def unsatisfied_clause(
    clauses: Iterable[list[int]], model: Mapping, num_variables: int
) -> list[int] | None:
    """The first clause ``model`` leaves unsatisfied, or ``None``.

    A literal is true when ``model.get(abs(literal), False) == (literal >
    0)``: a variable the model does not name reads false, and a value
    that equals neither ``True`` nor ``False`` makes both of its literals
    false.  The set of literals this calls true over variables
    ``1..num_variables`` is built once, and a clause that meets it is
    satisfied; every other clause is tested literal by literal as above,
    so literals outside that range get the same verdict.
    """
    true: set[int] = set()
    for variable in range(1, num_variables + 1):
        value = model.get(variable, False)
        if value == True:  # noqa: E712 - the per-literal test's comparison
            true.add(variable)
        if value == False:  # noqa: E712
            true.add(-variable)
    for clause in clauses:
        if true.isdisjoint(clause) and not any(
            model.get(abs(literal), False) == (literal > 0) for literal in clause
        ):
            return clause
    return None
