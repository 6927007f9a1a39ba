"""A DRUP proof checker (reverse unit propagation) that follows hints.

A clause C is a *RUP consequence* of a clause set F when asserting the
negation of C and running unit propagation over F derives a conflict.
Every clause a CDCL solver learns has this property, as do the
strengthened clauses produced by level-0 literal stripping (the paper's
database compaction), so the solver's whole trace is checkable.

The checker replays the trace forward and checks *every* added clause,
including lemmas the final refutation never uses, so it accepts exactly
the traces that propagating each negated lemma from scratch over the
clauses present at that step would accept.  Its speed comes from the
techniques of DRAT-trim (Wetzler, Heule & Hunt, SAT 2014) and from the
antecedent hints of LRAT-style checking (Cruz-Filipe, Heule, Hunt,
Kaufmann & Schneider-Kamp, *Efficient Certified RAT Verification*,
CADE 2017):

* **Hints.**  Beside an addition the caller may list the ids of the
  clauses that make it RUP, in propagation order.  For a learned clause
  these are BerkMin's *responsible clauses* (paper Section 4): the
  reasons resolved on and the conflicting clause.  The checker assumes
  the negated lemma on top of the top-level trail, then requires each
  hinted clause in turn to be unit, which derives its free literal, or
  falsified, which proves the lemma.  The walk keeps what it assumes
  and derives in a set, so it never touches the trail.  A deleted
  clause is stood in for by a live *twin*, a clause
  with the same literals, since a deletion names literals rather than
  ids.  Hints are untrusted advice: an id that names nothing, a deleted
  clause without a twin, a satisfied clause, a clause with two free
  literals, or a chain that ends without a conflict sends the lemma to
  full propagation.  A hint can make a check faster, never change its
  verdict, its error text or its step number.
* **Watched literals.**  Clauses are stored with duplicate literals
  removed; every clause of two or more literals watches two of them, so
  propagation visits only the clauses whose watch just became false.
* **A persistent top-level trail.**  The unit-propagation fixpoint of
  the current database is kept between steps, with the clause that set
  each literal.  A lemma without usable hints is checked by asserting
  its negation on top of that trail, propagating, and backtracking to
  the mark.  Unit propagation is confluent, so this reaches a conflict
  exactly when propagating from scratch does.
* **A bulk load.**  The formula's clauses all watch their first two
  literals, which is valid while nothing is assigned, and the fixpoint
  is reached once after the last of them.
* **Hashed deletion.**  Each clause is filed under its sorted literal
  tuple, the same multiset match a linear scan would make.  The index is
  built at the first deletion, so a proof without deletions never sorts
  a clause.  Deleted clauses leave the watch lists lazily.

A deletion keeps the trail unless it removes the recorded reason of a
top-level literal, or happens while the database is already
inconsistent; then the trail is rebuilt from the live clauses.  A unit
lemma whose literal is already true becomes that literal's reason, so
the solver's habit of logging its level-0 units before any deletion
keeps rebuilds rare.

Clause ids, as hints name them: ``-1 - i`` is the input clause at
position ``i`` of ``formula.clauses`` (so ``-1`` is the first), and a
non-negative ``s`` is the clause added by proof step ``s``.  Neither
depends on the other's count, so a solver can number clauses while its
formula still grows.

The module is pure Python and shares no code with the solver it checks.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from itertools import chain

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
    hints: Sequence[Sequence[int] | None] | None = None,
    require_empty_clause: bool = True,
    deadline: float | None = None,
) -> bool:
    """Verify a DRUP trace against ``formula``.

    ``proof`` entries are ``("a", clause)`` additions or ``("d", clause)``
    deletions in DIMACS literals, in solver order.  Every addition must
    be RUP with respect to the clauses currently in the database;
    deletions must name present clauses.  Returns True on success and
    raises :class:`ProofError` otherwise.  ``hints``, a list or tuple
    parallel to ``proof``, may give each addition the ids of the clauses
    that make it RUP (see the module docstring); ``None`` entries and
    missing or unusable hints fall back to full propagation.
    ``deadline``, a ``time.monotonic()`` instant, bounds the check: once
    it passes, :class:`ProofCheckTimeout` is raised before the next
    step.
    """
    database = _Database(formula.num_variables)
    database.load(formula.clauses)
    empty_seen = database.empty_clauses > 0
    if not isinstance(hints, (list, tuple)):
        hints = ()
    hinted = len(hints)
    step_cids = database.step_cids

    for step_number, (kind, clause) in enumerate(proof):
        if deadline is not None and time.monotonic() >= deadline:
            raise ProofCheckTimeout(
                f"deadline passed at proof step {step_number} of {len(proof)}"
            )
        if kind == "a":
            literals = database._internal(clause)
            step_hints = hints[step_number] if step_number < hinted else None
            if not database.implies(literals, step_hints):
                raise ProofError(
                    f"step {step_number}: clause {clause} is not a RUP consequence"
                )
            step_cids.append(database.add(clause, literals))
            if not clause:
                empty_seen = True
        elif kind == "d":
            if not database.delete(clause):
                raise ProofError(
                    f"step {step_number}: deleted clause {clause} not in database"
                )
            step_cids.append(-1)
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

    Clause ids index ``clauses``: the input clauses first, in order, then
    one per addition; a deleted clause's slot becomes None.
    ``step_cids`` maps each proof step checked so far to the id of the
    clause it added (-1 for a deletion), which is how hints are resolved.
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
        self.input_clauses = 0
        self.step_cids: list[int] = []
        # Sorted literal tuple -> ids.  Until the first deletion builds
        # it, ``sources`` keeps each clause as given, for its key.
        self.index: dict[tuple[int, ...], list[int]] | None = None
        self.sources: list[Sequence[int]] = []
        # Deleted id -> its key, for ids deleted while a twin stayed.
        self.deleted_keys: dict[int, tuple[int, ...]] = {}
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
    def _internal(self, clause: Sequence[int]) -> Sequence[int]:
        """``clause`` over table indices.

        A variable past the formula's range gets the next free index, so
        the tables grow with the number of such variables a proof names,
        never with how large their numbers are.
        """
        limit = self.formula_variables
        if not clause or (max(clause) <= limit and -min(clause) <= limit):
            return clause
        internal = []
        for literal in clause:
            variable = abs(literal)
            if variable > limit:
                index = self.extra.get(variable)
                if index is None:
                    index = limit + len(self.extra) + 1
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

    def _span(self, size: int) -> None:
        while len(self.spans) <= size:
            self.spans.append(range(2, len(self.spans)))

    # ------------------------------------------------------------------
    # The formula and the proof steps
    # ------------------------------------------------------------------
    def load(self, clauses: Sequence[Sequence[int]]) -> None:
        """Insert the input clauses, then reach the top-level fixpoint once.

        Leaves the state one :meth:`add` per clause would: every clause
        of two or more literals watches its first two literals, which is
        valid while nothing is assigned, and :meth:`_rebuild` then
        asserts the units and propagates.  Runs on an empty database.
        """
        limit = self.formula_variables
        internal = clauses
        named = set(chain.from_iterable(clauses))
        if named and (max(named) > limit or min(named) < -limit):
            internal = [self._internal(clause) for clause in clauses]  # grows the tables
        store = self.clauses
        store.extend(
            [
                list(clause) if len(set(clause)) == len(clause) else list(dict.fromkeys(clause))
                for clause in internal
            ]
        )
        watches = self.watches
        units = self.units
        for cid, literals in enumerate(store):
            if len(literals) > 1:
                watches[literals[0]].append(cid)
                watches[literals[1]].append(cid)
            elif literals:
                units[cid] = literals[0]
            else:
                self.empty_clauses += 1
        self.sources.extend(clauses)
        self.input_clauses = len(store)
        self._span(max(map(len, store), default=0))
        self._rebuild()

    def add(self, clause: Sequence[int], literals: Sequence[int]) -> int:
        """Insert ``clause`` (over table indices: ``literals``), restore
        the fixpoint and return its id."""
        literals = list(dict.fromkeys(literals))
        cid = len(self.clauses)
        self.clauses.append(literals)
        if self.index is None:
            self.sources.append(clause)
        else:
            self._file(tuple(sorted(clause)), cid)

        size = len(literals)
        self._span(size)
        if size == 0:
            self.empty_clauses += 1
            self.inconsistent = True
            return cid
        if size == 1:
            self.units[cid] = literals[0]
            if not self.inconsistent:
                self._assert_unit(literals[0], cid)
            return cid

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
        return cid

    def implies(self, literals: Sequence[int], hints=None) -> bool:
        """Is the clause ``literals`` (over table indices) RUP here?

        ``hints``, clause ids in propagation order, are tried first (see
        :meth:`_follow`), then :meth:`_full_check`.  Leaves the trail
        unchanged.
        """
        if self.inconsistent or 1 in map(self.value.__getitem__, literals):
            return True  # or a literal is true at top level
        if hints is not None and self._follow(set(literals), hints):
            return True
        return self._full_check(literals)

    def _follow(self, false: set[int], hints) -> bool:
        """Walk a lemma's hinted clauses; True when one ends falsified.

        ``false`` starts as the lemma's literals, false once its
        negation is asserted; the walk adds the complement of each
        literal it derives, and the top-level trail stays as it is.
        Each hint must name a live clause, or a deleted one with a live
        twin, that is unit, whose free literal is then derived, or
        falsified, which proves the lemma: every literal derived is a
        unit-propagation consequence.  Anything else (an id that names
        nothing, a deleted clause without a twin, a satisfied clause,
        one with two free literals, or hints that run out before a
        conflict) returns False.
        """
        value = self.value
        clauses = self.clauses
        step_cids = self.step_cids
        inputs = self.input_clauses
        try:
            for hint in hints:
                if hint < 0:
                    cid = -1 - hint
                    if cid >= inputs:
                        return False
                elif hint < len(step_cids):
                    cid = step_cids[hint]  # -1 for a deletion step
                    if cid < 0:
                        return False
                else:
                    return False  # this step or a later one
                literals = clauses[cid]
                if literals is None:
                    twins = self.index.get(self.deleted_keys.get(cid))
                    if not twins:
                        return False
                    literals = clauses[twins[-1]]
                free = None
                for literal in literals:
                    current = value[literal]
                    if current == 1:
                        return False
                    if current == 0 and literal not in false:
                        if free is not None or -literal in false:
                            return False
                        free = literal
                if free is None:
                    return True
                false.add(-free)
        except (TypeError, ValueError):
            return False  # hints that are not a sequence of integers
        return False

    def _full_check(self, literals: Sequence[int]) -> bool:
        """Assert the negated clause on the top-level trail, propagate
        over the whole database and backtrack; True on a conflict.

        How every lemma was checked before hints, and how a lemma without
        usable hints still is.
        """
        value = self.value
        trail = self.trail
        mark = len(trail)
        rup = False
        for literal in literals:
            current = value[literal]
            if current == 1:
                rup = True  # the clause is a tautology
                break
            if current == 0:
                value[literal] = -1
                value[-literal] = 1
                trail.append(-literal)
        if not rup:
            rup = self._propagate(mark)
        self._backtrack(mark)
        return rup

    def delete(self, clause: Sequence[int]) -> bool:
        """Remove one clause with the literals of ``clause``; False when there is none."""
        if self.index is None:
            self._build_index()
        key = tuple(sorted(clause))
        ids = self.index.get(key)
        if ids is None:
            return False
        clauses = self.clauses
        cid = ids.pop()
        if ids and not self.inconsistent and self._supports(cid):
            cid, ids[-1] = ids[-1], cid  # delete a twin that sets nothing
        if ids:
            self.deleted_keys[cid] = key  # the twins can stand in for it
        else:
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

    def _build_index(self) -> None:
        """File every clause so far under its key (the first deletion's work)."""
        self.index = {}
        for cid, clause in enumerate(self.sources):
            self._file(tuple(sorted(clause)), cid)
        self.sources = []

    def _file(self, key: tuple[int, ...], cid: int) -> None:
        ids = self.index.get(key)
        if ids is None:
            self.index[key] = [cid]
        else:
            ids.append(cid)

    # ------------------------------------------------------------------
    # The top-level trail
    # ------------------------------------------------------------------
    def _supports(self, cid: int) -> bool:
        """Is clause ``cid`` the recorded reason of a top-level literal?"""
        literals = self.clauses[cid]
        reason = self.reason
        if cid not in map(reason.__getitem__, literals):
            return False  # the common case, decided without a Python loop
        value = self.value
        return any(
            value[literal] == 1 and reason[literal] == cid for literal in literals
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
