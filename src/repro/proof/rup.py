"""A DRUP proof checker (reverse unit propagation).

A clause C is a *RUP consequence* of a clause set F when asserting the
negation of C and running unit propagation over F derives a conflict.
Every clause a CDCL solver learns has this property, as do the
strengthened clauses produced by level-0 literal stripping (the paper's
database compaction), so the solver's whole trace is checkable.

The checker replays the trace forward and checks *every* added clause,
including lemmas the final refutation never uses, so it accepts exactly
the traces that propagating each negated lemma from scratch over the
clauses present at that step would accept.  Its speed comes from the
techniques of DRAT-trim (Wetzler, Heule & Hunt, SAT 2014):

* **Watched literals.**  Clauses are stored with duplicate literals
  removed; every clause of two or more literals watches two of them, so
  propagation visits only the clauses whose watch just became false.
* **A persistent top-level trail.**  The unit-propagation fixpoint of
  the current database is kept between steps, with the clause that set
  each literal.  A lemma is checked by asserting its negation on top of
  that trail, propagating, and backtracking to the mark.  Unit
  propagation is confluent, so this reaches a conflict exactly when
  propagating from scratch does.
* **Hashed deletion.**  Each clause is filed under its sorted literal
  tuple, the same multiset match a linear scan would make.  Deleted
  clauses leave the watch lists lazily.

A deletion keeps the trail unless it removes the recorded reason of a
top-level literal, or happens while the database is already
inconsistent; then the trail is rebuilt from the live clauses.  A unit
lemma whose literal is already true becomes that literal's reason, so
the solver's habit of logging its level-0 units before any deletion
keeps rebuilds rare.

The module is pure Python and shares no code with the solver it checks.
"""

from __future__ import annotations

import time
from collections.abc import Sequence

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
    database = _Database(formula.num_variables)
    for clause in formula.clauses:
        database.add(clause, tuple(sorted(clause)))
    empty_seen = database.empty_clauses > 0

    for step_number, (kind, clause) in enumerate(proof):
        if deadline is not None and time.monotonic() >= deadline:
            raise ProofCheckTimeout(
                f"deadline passed at proof step {step_number} of {len(proof)}"
            )
        if kind == "a":
            key = tuple(sorted(clause))
            if not database.implies(clause, key):
                raise ProofError(
                    f"step {step_number}: clause {clause} is not a RUP consequence"
                )
            database.add(clause, key)
            if not key:
                empty_seen = True
        elif kind == "d":
            if not database.delete(tuple(sorted(clause))):
                raise ProofError(
                    f"step {step_number}: deleted clause {clause} not in database"
                )
        else:
            raise ProofError(f"step {step_number}: unknown proof action {kind!r}")

    if require_empty_clause and not empty_seen:
        raise ProofError("proof does not derive the empty clause")
    return True


class _Database:
    """The checker's clause database and its top-level trail.

    Literals are signed integers, and the per-literal tables are indexed
    by the literal itself: ``1..n`` directly and ``-n..-1`` through
    Python's negative indexing (positions ``n+1..2n``), so ``value[-lit]``
    is the complement's entry with no offset arithmetic.  ``value`` holds
    1 (true), -1 (false) or 0 (unassigned).  The formula's variables are
    their own indices; see :meth:`_internal` for any other.

    Clause ids index ``clauses``; a deleted clause's slot becomes None.
    A clause of two or more literals watches its first two, and the
    watch lists are kept so that, at the top-level fixpoint, a false
    watched literal has a true partner.  Units and empty clauses are not
    watched: units sit in ``units`` and go straight onto the trail,
    empty clauses only count.
    """

    def __init__(self, num_variables: int) -> None:
        self.formula_variables = num_variables
        self.extra: dict[int, int] = {}  # variable past the formula -> its index
        self.capacity = 0  # variables the tables hold
        self.value: list[int] = [0]
        self.reason: list[int] = [0]  # by true literal: the clause id that set it
        self.watches: list[list[int]] = [[]]
        self.clauses: list[list[int] | None] = []
        self.index: dict[tuple[int, ...], list[int]] = {}
        self.units: dict[int, int] = {}  # live unit clause id -> its literal
        self.empty_clauses = 0
        self.trail: list[int] = []
        self.inconsistent = False
        # range(2, size) per clause size, for the scan for a new watch:
        # building the range on every visit cost about 15% of a check.
        self.spans: list[range] = []
        self._grow(num_variables)

    # ------------------------------------------------------------------
    # Variable range
    # ------------------------------------------------------------------
    def _internal(self, clause: Sequence[int], key: tuple[int, ...]) -> Sequence[int]:
        """``clause`` (sorted: ``key``) over table indices.

        A variable past the formula's range gets the next free index, so
        the tables grow with the number of such variables a proof names,
        never with how large their numbers are.
        """
        if not key or max(key[-1], -key[0]) <= self.formula_variables:
            return clause
        internal = []
        for literal in clause:
            variable = abs(literal)
            if variable > self.formula_variables:
                index = self.extra.get(variable)
                if index is None:
                    index = self.formula_variables + len(self.extra) + 1
                    self.extra[variable] = index
                    if index > self.capacity:
                        self._grow(2 * index)
                variable = index
            internal.append(variable if literal > 0 else -variable)
        return internal

    def _grow(self, capacity: int) -> None:
        old = self.capacity
        if capacity <= old:
            return
        added = 2 * (capacity - old)
        self.value = self.value[: old + 1] + [0] * added + self.value[old + 1 :]
        self.reason = self.reason[: old + 1] + [0] * added + self.reason[old + 1 :]
        self.watches = (
            self.watches[: old + 1]
            + [[] for _ in range(added)]
            + self.watches[old + 1 :]
        )
        self.capacity = capacity

    # ------------------------------------------------------------------
    # Proof steps
    # ------------------------------------------------------------------
    def add(self, clause: Sequence[int], key: tuple[int, ...]) -> None:
        """Insert ``clause`` (filed under ``key``) and restore the fixpoint."""
        literals = list(dict.fromkeys(self._internal(clause, key)))
        cid = len(self.clauses)
        self.clauses.append(literals)
        ids = self.index.get(key)
        if ids is None:
            self.index[key] = [cid]
        else:
            ids.append(cid)

        size = len(literals)
        while len(self.spans) <= size:
            self.spans.append(range(2, len(self.spans)))
        if size == 0:
            self.empty_clauses += 1
            self.inconsistent = True
            return
        if size == 1:
            self.units[cid] = literals[0]
            if not self.inconsistent:
                self._assert_unit(literals[0], cid)
            return

        value = self.value
        if self.inconsistent:
            free = 2  # no trail to respect; the next rebuild starts empty
        else:
            # Watch non-false literals where there are any.
            free = 0
            for position, literal in enumerate(literals):
                if value[literal] != -1:
                    literals[position] = literals[free]
                    literals[free] = literal
                    free += 1
                    if free == 2:
                        break
        self.watches[literals[0]].append(cid)
        self.watches[literals[1]].append(cid)
        if free == 0:
            self.inconsistent = True
        elif free == 1 and value[literals[0]] == 0:
            self._assign_and_propagate(literals[0], cid)

    def implies(self, clause: Sequence[int], key: tuple[int, ...]) -> bool:
        """Is ``clause`` (sorted: ``key``) RUP over the database?

        Leaves the trail unchanged.
        """
        if self.inconsistent:
            return True
        literals = self._internal(clause, key)  # may grow the tables
        value = self.value
        trail = self.trail
        mark = len(trail)
        rup = False
        for literal in literals:
            current = value[literal]
            if current == 1:
                rup = True  # true at top level, or the clause is a tautology
                break
            if current == 0:
                value[literal] = -1
                value[-literal] = 1
                trail.append(-literal)
        if not rup:
            rup = self._propagate(mark)
        self._backtrack(mark)
        return rup

    def delete(self, key: tuple[int, ...]) -> bool:
        """Remove one clause filed under ``key``; False when there is none."""
        ids = self.index.get(key)
        if ids is None:
            return False
        clauses = self.clauses
        cid = ids.pop()
        if ids and not self.inconsistent and self._supports(cid):
            cid, ids[-1] = ids[-1], cid  # delete a twin that sets nothing
        if not ids:
            del self.index[key]
        rebuild = self.inconsistent or self._supports(cid)
        size = len(clauses[cid])
        clauses[cid] = None
        if size == 0:
            self.empty_clauses -= 1
        elif size == 1:
            del self.units[cid]
        if rebuild:
            self._rebuild()
        return True

    # ------------------------------------------------------------------
    # The top-level trail
    # ------------------------------------------------------------------
    def _supports(self, cid: int) -> bool:
        """Is clause ``cid`` the recorded reason of a top-level literal?"""
        value = self.value
        reason = self.reason
        return any(
            value[literal] == 1 and reason[literal] == cid
            for literal in self.clauses[cid]
        )

    def _assert_unit(self, literal: int, cid: int) -> None:
        """Make unit clause ``cid`` hold at the top level.

        When ``literal`` is already true the unit becomes its reason, so
        deleting the clause that first set it needs no rebuild.
        """
        current = self.value[literal]
        if current == 1:
            self.reason[literal] = cid
        elif current == -1:
            self.inconsistent = True
        else:
            self._assign_and_propagate(literal, cid)

    def _assign_and_propagate(self, literal: int, cid: int) -> None:
        head = len(self.trail)
        self.value[literal] = 1
        self.value[-literal] = -1
        self.reason[literal] = cid
        self.trail.append(literal)
        if self._propagate(head):
            self.inconsistent = True

    def _backtrack(self, mark: int) -> None:
        """Unassign ``trail[mark:]``."""
        value = self.value
        for literal in self.trail[mark:]:
            value[literal] = 0
            value[-literal] = 0
        del self.trail[mark:]

    def _rebuild(self) -> None:
        """Recompute the top-level fixpoint from the live clauses."""
        self._backtrack(0)
        # With nothing assigned no watch is false, so every watch list
        # is valid again, including those of clauses added while the
        # database was inconsistent.
        self.inconsistent = self.empty_clauses > 0
        for cid, literal in self.units.items():
            if self.inconsistent:
                return
            self._assert_unit(literal, cid)

    def _propagate(self, head: int) -> bool:
        """Propagate ``trail[head:]`` to a fixpoint; True on a conflict.

        On a conflict the trail stops where it is and every watch list
        stays complete.
        """
        trail = self.trail
        value = self.value
        reason = self.reason
        watches = self.watches
        clauses = self.clauses
        spans = self.spans
        while head < len(trail):
            false_literal = -trail[head]
            head += 1
            watchers = watches[false_literal]
            kept = 0
            for position, cid in enumerate(watchers):
                literals = clauses[cid]
                if literals is None:
                    continue  # deleted: drop the watch
                other = literals[0]
                if other == false_literal:
                    other = literals[1]
                    literals[0] = other
                    literals[1] = false_literal
                if value[other] == 1:
                    watchers[kept] = cid
                    kept += 1
                    continue
                for index in spans[len(literals)]:
                    candidate = literals[index]
                    if value[candidate] != -1:
                        literals[1] = candidate
                        literals[index] = false_literal
                        watches[candidate].append(cid)
                        break
                else:
                    watchers[kept] = cid
                    kept += 1
                    if value[other] == -1:
                        del watchers[kept : position + 1]
                        return True
                    value[other] = 1
                    value[-other] = -1
                    reason[other] = cid
                    trail.append(other)
            del watchers[kept:]
        return False
