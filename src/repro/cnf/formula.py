"""The public CNF container.

:class:`CnfFormula` stores clauses as lists of signed DIMACS integers —
the representation users see, and the one generators and encoders
produce.  The solver converts to its internal encoded representation
when clauses are attached.

The other clause form is *words*: one ``array('i')`` of int32 values
holding each clause's literals followed by a ``0``, the DIMACS body
itself (``1 -2 0 3 4 0``).  The DIMACS reader produces it, the solver's
loader reads it as it is, and the solver keeps its own copy of its
input in it.  This module owns the form: :func:`clauses_to_words` and
:func:`words_to_clauses` convert, and :func:`unsatisfied_word_clause`
model-checks it.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Iterator, Mapping


def clauses_to_words(clauses: Iterable[Iterable[int]]) -> array:
    """The words of ``clauses``: every clause's literals, then a ``0``.

    One pass.  A literal that is not an integer raises
    :class:`TypeError`, one past int32 :class:`OverflowError`; a literal
    ``0`` is not caught here, and reads back as a clause end.
    """
    words = array("i")
    extend, end = words.extend, words.append
    for clause in clauses:
        extend(clause)
        end(0)
    return words


def words_to_clauses(words: array) -> list[list[int]]:
    """The clause lists of ``words`` (zero-terminated clauses)."""
    flat = words.tolist()
    clauses: list[list[int]] = []
    append, find = clauses.append, flat.index
    start = 0
    for _ in range(flat.count(0)):
        end = find(0, start)
        append(flat[start:end])
        start = end + 1
    return clauses


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
        self._clauses: list[list[int]] = []
        self._words: array | None = None
        self._word_clauses = 0
        for clause in clauses:
            self.add_clause(clause)

    @classmethod
    def from_words(
        cls, words: array, num_clauses: int, num_variables: int, comment: str = ""
    ) -> "CnfFormula":
        """A formula that keeps ``words`` (not a copy) until its lists are read.

        The caller vouches for them: ``num_clauses`` zero-terminated
        clauses whose literals name variables up to ``num_variables``.
        """
        formula = cls(num_variables=num_variables, comment=comment)
        formula._words = words
        formula._word_clauses = num_clauses
        return formula

    @property
    def clauses(self) -> list[list[int]]:
        """The clauses as lists of DIMACS literals.

        A formula made from words builds them on the first read and
        drops the words; from then on the lists are the formula.
        """
        if self._words is not None:
            self._clauses = words_to_clauses(self._words)
            self._words = None
        return self._clauses

    @clauses.setter
    def clauses(self, clauses: list[list[int]]) -> None:
        self._clauses = clauses
        self._words = None

    @property
    def words(self) -> array | None:
        """The words the formula keeps until its lists are read, else ``None``.

        Read-only: a reader copies them rather than change them.
        """
        return self._words

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
        self.num_variables, self.comment, self._clauses = state
        self._words = None
        self._word_clauses = 0

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def num_clauses(self) -> int:
        """Number of clauses currently in the formula (builds no lists)."""
        return len(self._clauses) if self._words is None else self._word_clauses

    def variables(self) -> set[int]:
        """Return the set of variables actually mentioned by a clause."""
        return {abs(literal) for clause in self.clauses for literal in clause}

    def literal_count(self) -> int:
        """Total number of literal occurrences across all clauses."""
        return sum(len(clause) for clause in self.clauses)

    def __len__(self) -> int:
        return self.num_clauses

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


def unsatisfied_word_clause(
    words: array, model: Mapping, num_variables: int
) -> list[int] | None:
    """:func:`unsatisfied_clause` over words: the first clause ``model``
    leaves unsatisfied, as a list, or ``None``.

    Every literal of ``words`` must name a variable in
    ``1..num_variables``.  Each word is looked up once in a table of the
    literals' truth values, with no per-clause object: the marks (0
    false, 1 true, 2 clause end) lose their false marks, and then an end
    mark follows another one, or the start, exactly where a clause has
    no true literal.
    """
    marks = [0] * (2 * num_variables + 1)  # by literal; negative ones count from the end
    marks[0] = 2
    for variable in range(1, num_variables + 1):
        value = model.get(variable, False)
        if value == True:  # noqa: E712 - unsatisfied_clause's comparison
            marks[variable] = 1
        if value == False:  # noqa: E712
            marks[-variable] = 1
    ends = b"\x02" + bytes(map(marks.__getitem__, words)).translate(None, b"\x00")
    found = ends.find(b"\x02\x02")
    if found < 0:
        return None
    return words_to_clauses(words)[ends.count(b"\x02", 0, found + 1) - 1]
