"""The CDCL engine.

:class:`Solver` implements the search architecture shared by GRASP,
SATO, Chaff and BerkMin (paper Section 2): DPLL-style splitting, Boolean
constraint propagation over watched literals (the SATO/Chaff two-watch
scheme), first-UIP conflict analysis with conflict-clause recording and
non-chronological backtracking, restarts, and clause-database
management.  Every BerkMin novelty and every ablation the paper
evaluates is selected through :class:`repro.solver.config.SolverConfig`;
the engine itself is heuristic-agnostic.

Propagation is split by clause length: binary clauses live in flat
per-literal implication arrays (:attr:`Solver.binary_implications`) and
are drained by a tight loop with no clause-object traversal, while
clauses of three or more literals go through the two-watch scheme.  See
the "Boolean constraint propagation" section below and
``docs/BENCHMARKS.md`` for the layer's design and measured effect.

Usage::

    from repro import CnfFormula, Solver, berkmin_config

    formula = CnfFormula([[1, 2], [-1, 2], [-2]])
    solver = Solver(formula, config=berkmin_config())
    result = solver.solve()
    assert result.is_sat or result.is_unsat

The solver is incremental: clauses may be added between ``solve`` calls
and assumptions passed per call, MiniSat-style.
"""

from __future__ import annotations

import random
import time
from collections.abc import Iterable, Sequence

from repro.cnf.clause import Clause
from repro.cnf.formula import CnfFormula
from repro.cnf.literals import FALSE, TRUE, UNASSIGNED, decode_literal, encode_literal
from repro.cnf.simplify import clean_clause
from repro.solver.config import (
    PROPAGATION_ARENA,
    PROPAGATION_GENERAL,
    PROPAGATION_SPLIT,
    VERIFICATION_LEVELS,
    VERIFY_FULL,
    VERIFY_OFF,
    SolverConfig,
    berkmin_config,
)
from repro.solver.database import _rebuild_structures, reduce_database
from repro.solver.decision import choose_decision
from repro.solver.heap import VariableOrderHeap
from repro.solver.restart import RestartScheduler
from repro.solver.result import SolveResult, SolveStatus
from repro.solver.stats import SolverStats

#: Type of an entry in :attr:`Solver.reasons`.  ``None`` marks a decision
#: or assumption; a :class:`Clause` is the implying clause of a long
#: propagation; a plain ``int`` is the compact binary reason: the *other*
#: (falsified) literal of the binary clause that implied the assignment.
Reason = Clause | int | None


class SolverInternalError(RuntimeError):
    """Raised when an internal invariant is violated (e.g. a bad model)."""


class Solver:
    """A configurable CDCL SAT solver reproducing BerkMin and its ablations."""

    #: True on the flat-buffer subclass; layers that must branch on the
    #: engine (checkpointing, sessions) test this instead of importing
    #: the subclass.
    is_arena = False

    def __new__(cls, formula=None, config=None):
        # ``Solver(formula, config=arena_config())`` transparently builds
        # the arena engine, so every existing call site — workers,
        # sessions, the portfolio, checkpoint resume — gets the engine
        # the configuration names without knowing the subclass exists.
        if (
            cls is Solver
            and config is not None
            and config.propagation == PROPAGATION_ARENA
        ):
            from repro.solver.arena import ArenaSolver

            return super().__new__(ArenaSolver)
        return super().__new__(cls)

    def __init__(
        self,
        formula: CnfFormula | None = None,
        config: SolverConfig | None = None,
    ) -> None:
        self.config = config or berkmin_config()
        self.rng = random.Random(self.config.seed)
        self.stats = SolverStats()

        self.num_variables = 0
        # Per-variable state; index 0 is unused so variables index directly.
        self.assigns: list[int] = [UNASSIGNED]
        self.levels: list[int] = [0]
        self.reasons: list[Reason] = [None]
        self.var_activity: list[int] = [0]
        # Per-literal state, indexed by encoded literal (size 2 * (vars + 1)).
        self.watches: list[list[Clause]] = [[], []]
        # lit_value[q] is the truth value of encoded literal q — the same
        # TRUE/FALSE/UNASSIGNED encoding as ``assigns`` but resolved per
        # literal, so the BCP hot loop tests truth with one index and no
        # parity xor.  Kept in lockstep with ``assigns`` by the enqueue and
        # backtrack primitives.
        self.lit_value: list[int] = [UNASSIGNED, UNASSIGNED]
        self.lit_activity: list[int] = [0, 0]
        self.vsids: list[int] = [0, 0]
        self.binary_count: list[int] = [0, 0]
        # binary_implications[q] lists the literals implied true the moment
        # q becomes false — one flat int array per literal, the single
        # source of truth for binary clauses (it doubles as the occurrence
        # index behind the nb_two phase heuristic).
        self.binary_implications: list[list[int]] = [[], []]

        self.trail: list[int] = []  # encoded literals in assignment order
        self.trail_limits: list[int] = []  # trail index at each decision level
        self.qhead = 0  # propagation frontier within the trail

        self.clauses: list[Clause] = []  # original clauses
        self.learned: list[Clause] = []  # conflict-clause stack, oldest first
        self.search_cursor = -1  # where the top-clause scan resumes
        self.birth_counter = 0
        self.old_threshold = self.config.old_activity_threshold

        # BerkMin561 "strategy 3": heap-based most-active-variable lookup.
        self.order_heap: VariableOrderHeap | None = (
            VariableOrderHeap(self.var_activity)
            if self.config.global_selection == "heap"
            else None
        )

        propagation = self.config.propagation
        if propagation == PROPAGATION_SPLIT:
            self._propagate = self._propagate_split
        elif propagation == PROPAGATION_GENERAL:
            self._propagate = self._propagate_general
        elif propagation == PROPAGATION_ARENA and self.is_arena:
            self._propagate = self._propagate_arena
        else:
            raise ValueError(
                f"unknown propagation mode {propagation!r}; "
                f"expected {PROPAGATION_SPLIT!r}, {PROPAGATION_GENERAL!r} "
                f"or {PROPAGATION_ARENA!r}"
            )
        # True when binary clauses must also sit in the watch lists
        # (the "general" reference mode); attach_clause consults this.
        self._binary_in_watches = propagation == PROPAGATION_GENERAL

        if self.config.verification not in VERIFICATION_LEVELS:
            raise ValueError(
                f"unknown verification level {self.config.verification!r}; "
                f"expected one of {', '.join(VERIFICATION_LEVELS)}"
            )

        self.ok = True  # False once the formula is refuted outright
        self._interrupted = False  # set by interrupt(), honoured in solve()
        self._in_solve = False  # re-entrancy guard for solve()
        self._num_assumptions = 0  # of the current/most recent solve call
        self._solve_started = time.perf_counter()
        # "full" verification needs a DRUP trace to check, so it implies
        # proof logging even when the config flag is off.
        self.proof: list[tuple[str, list[int]]] | None = (
            []
            if self.config.proof_logging or self.config.verification == VERIFY_FULL
            else None
        )
        # Level-0 trail prefix already mirrored into the proof as unit
        # additions (see _flush_level0_proof_units).
        self._proof_level0_logged = 0
        # Pristine copies of every added clause, for model verification.
        self._pristine: list[list[int]] = []
        self._seen: list[bool] = [False]
        # Scratch buffers reused by _analyze so the per-conflict hot path
        # allocates nothing.  Their contents are only valid inside one
        # _analyze call; _record_learned copies what it keeps.
        self._learnt_buffer: list[int] = []
        self._to_clear_buffer: list[int] = []

        # Observability.  ``trace`` is the structured event sink (None =
        # disabled; every emission site guards on it, and the BCP loops
        # never consult it).  The decision heuristics stamp
        # ``last_decision_source`` / ``last_skin_distance`` — only when
        # tracing is on — for the decision event emitted by solve().
        self.trace = self.config.trace
        self.last_decision_source: str | None = None
        self.last_skin_distance: int | None = None
        self.metrics = None
        if self.config.metrics_interval > 0:
            from repro.observability.metrics import MetricsCollector

            self.metrics = MetricsCollector(self, self.config.metrics_interval)

        # Cooperative clause sharing (see repro.parallel.sharing).  The
        # parallel worker attaches a ShareClient here before solve();
        # None (the default) keeps both hooks inert for sequential use.
        # Exports fire on clause learning (glue tier only); imports are
        # drained at settled level-0 points (restarts and unit-learnt
        # backjumps), where the RUP probe makes every attachment provably
        # sound against this solver's own database.
        self.share = None
        # Imports whose RUP probe was inconclusive wait here and are
        # retried at later restarts (bounded TTL) — clauses often become
        # one-step derivable once more of the search has been explored.
        self._share_parking: list[list] = []

        if formula is not None:
            self.add_formula(formula)

    @property
    def binary_occurrences(self) -> list[list[int]]:
        """Backwards-compatible alias for :attr:`binary_implications`.

        The per-literal lists serve two readings: the literals *implied*
        when the index literal becomes false (propagation), and the
        partners the index literal *occurs with* in binary clauses
        (the nb_two phase heuristic).  Same data either way.
        """
        return self.binary_implications

    # ==================================================================
    # Clause loading
    # ==================================================================
    def ensure_variables(self, count: int) -> None:
        """Grow all per-variable and per-literal tables to hold ``count`` vars."""
        while self.num_variables < count:
            self.num_variables += 1
            self.assigns.append(UNASSIGNED)
            self.levels.append(0)
            self.reasons.append(None)
            self.var_activity.append(0)
            self._seen.append(False)
            if self.order_heap is not None:
                self.order_heap.push(self.num_variables)
            for _ in range(2):
                self.watches.append([])
                self.lit_value.append(UNASSIGNED)
                self.lit_activity.append(0)
                self.vsids.append(0)
                self.binary_count.append(0)
                self.binary_implications.append([])

    def add_formula(self, formula: CnfFormula) -> bool:
        """Load every clause of ``formula``; returns False if refuted outright."""
        self.ensure_variables(formula.num_variables)
        for clause in formula.clauses:
            self.add_clause(clause)
        return self.ok

    def add_clause(self, dimacs_literals: Iterable[int]) -> bool:
        """Add one clause given as signed DIMACS literals.

        Returns False when the clause (together with level-0 assignments)
        refutes the formula.  Clauses may be added between solve calls;
        the solver backtracks to level 0 first.
        """
        literals = list(dimacs_literals)
        if self.current_level() > 0:
            self._backtrack(0)
        self.stats.initial_clauses += 1
        self._pristine.append(literals)

        cleaned = clean_clause(literals)
        if cleaned is None:  # tautology
            return self.ok
        self.ensure_variables(max((abs(lit) for lit in cleaned), default=0))
        encoded = [encode_literal(lit) for lit in cleaned]

        # Reduce against permanent (level-0) assignments.
        remaining: list[int] = []
        for literal in encoded:
            value = self._value(literal)
            if value == TRUE:
                return self.ok  # already satisfied forever
            if value == UNASSIGNED:
                remaining.append(literal)
        if not remaining:
            # Refuted at add time: every literal is false under level-0
            # assignments, so the empty clause is RUP over the database.
            self.ok = False
            self.log_proof_add([])
            return False
        if len(remaining) == 1:
            self._enqueue(remaining[0], None)
            return self.ok
        clause = Clause(remaining)
        self.clauses.append(clause)
        self.attach_clause(clause)
        self.stats.peak_clauses = max(
            self.stats.peak_clauses, len(self.clauses) + len(self.learned)
        )
        return self.ok

    def attach_clause(self, clause: Clause) -> None:
        """Index the clause for propagation.

        Binary clauses go into the flat implication arrays; clauses of
        three or more literals watch their first two positions.  Under
        the ``"general"`` reference mode binary clauses are *additionally*
        kept at the front of each watch list, so the watch walk meets
        them in exactly the order the split path drains the implication
        arrays (the insert is O(list) but runs only at attach time).
        """
        literals = clause.literals
        if len(literals) == 2:
            first, second = literals
            self.binary_count[first] += 1
            self.binary_implications[first].append(second)
            self.binary_count[second] += 1
            self.binary_implications[second].append(first)
            if self._binary_in_watches:
                self.watches[first].insert(self.binary_count[first] - 1, clause)
                self.watches[second].insert(self.binary_count[second] - 1, clause)
        else:
            self.watches[literals[0]].append(clause)
            self.watches[literals[1]].append(clause)

    # ==================================================================
    # Assignment primitives
    # ==================================================================
    def current_level(self) -> int:
        """The current decision level (0 = no decisions)."""
        return len(self.trail_limits)

    def _value(self, literal: int) -> int:
        """TRUE / FALSE / UNASSIGNED value of an encoded literal."""
        return self.lit_value[literal]

    def value_of(self, dimacs_literal: int) -> int:
        """Public: current value of a DIMACS literal."""
        return self._value(encode_literal(dimacs_literal))

    def _enqueue(self, literal: int, reason: Reason) -> None:
        """Assign ``literal`` true at the current level.

        ``reason`` is ``None`` for decisions and assumptions, the
        implying :class:`Clause` for long propagations, or a compact int
        — the falsified partner literal — for binary implications (the
        conceptual reason clause is then ``(literal OR reason)``).
        """
        variable = literal >> 1
        self.assigns[variable] = (literal & 1) ^ 1
        self.lit_value[literal] = TRUE
        self.lit_value[literal ^ 1] = FALSE
        self.levels[variable] = len(self.trail_limits)
        self.reasons[variable] = reason
        self.trail.append(literal)
        if reason is not None:
            self.stats.propagations += 1

    def reason_literals(self, variable: int) -> list[int] | None:
        """The reason clause of ``variable`` as a literal list, implied first.

        Reconstructs the two-literal view of compact binary reasons;
        returns ``None`` for decisions and assumptions.  Only meaningful
        while ``variable`` is assigned.
        """
        reason = self.reasons[variable]
        if reason is None:
            return None
        if type(reason) is int:
            implied = (variable << 1) | (self.assigns[variable] ^ 1)
            return [implied, reason]
        return list(reason.literals)

    def _backtrack(self, target_level: int) -> None:
        """Undo every assignment above ``target_level``."""
        if self.current_level() <= target_level:
            return
        limit = self.trail_limits[target_level]
        assigns = self.assigns
        lit_value = self.lit_value
        reasons = self.reasons
        heap = self.order_heap
        for index in range(len(self.trail) - 1, limit - 1, -1):
            literal = self.trail[index]
            variable = literal >> 1
            assigns[variable] = UNASSIGNED
            lit_value[literal] = UNASSIGNED
            lit_value[literal ^ 1] = UNASSIGNED
            reasons[variable] = None
            if heap is not None:
                heap.push(variable)
        del self.trail[limit:]
        del self.trail_limits[target_level:]
        self.qhead = limit
        # Undoing assignments can unsatisfy clauses anywhere in the stack.
        self.search_cursor = len(self.learned) - 1

    # ==================================================================
    # Boolean constraint propagation
    # ==================================================================
    # Two implementations with identical observable behaviour — same
    # enqueue order, same conflicts, same learnt clauses — selected by
    # ``config.propagation`` in ``__init__``:
    #
    # * ``"split"`` (default): binary clauses are drained from the flat
    #   implication arrays first — a tight loop over plain ints with no
    #   clause objects, no watch compaction and no literal swaps — then
    #   the two-watch walk handles clauses of length >= 3.
    # * ``"general"``: every clause goes through the watch lists, with
    #   binary clauses pinned (read-only) at the front of each list so
    #   the propagation order matches the split path literal for
    #   literal.  This is the reference the differential tests and the
    #   bench harness compare against.
    #
    # Both paths report a binary conflict as a fresh two-literal Clause
    # view rather than the attached object: conflict analysis only reads
    # the literals, and the attached clause (if learned) stays eligible
    # for the activity policies through the reasons it produces.
    def _propagate_split(self) -> Clause | None:
        """Propagate to fixpoint; return the conflicting clause, if any."""
        trail = self.trail
        levels = self.levels
        reasons = self.reasons
        assigns = self.assigns
        watches = self.watches
        implications = self.binary_implications
        lit_value = self.lit_value
        level = len(self.trail_limits)  # constant: decisions happen outside
        propagations = 0
        qhead = self.qhead
        trail_append = trail.append
        while qhead < len(trail):
            propagated = trail[qhead]
            qhead += 1
            false_literal = propagated ^ 1
            # Phase 1: binary implications — flat ints, no clause objects.
            for other in implications[false_literal]:
                value = lit_value[other]
                if value < 0:  # unassigned: imply it
                    variable = other >> 1
                    assigns[variable] = (other & 1) ^ 1
                    lit_value[other] = TRUE
                    lit_value[other ^ 1] = FALSE
                    levels[variable] = level
                    reasons[variable] = false_literal
                    trail_append(other)
                    propagations += 1
                elif not value:  # FALSE: binary conflict
                    self.qhead = len(trail)
                    self.stats.propagations += propagations
                    return Clause((other, false_literal))
            # Phase 2: clauses of length >= 3 via the two-watch scheme.
            watch_list = watches[false_literal]
            keep = 0
            index = 0
            length = len(watch_list)
            while index < length:
                clause = watch_list[index]
                index += 1
                literals = clause.literals
                # Normalize: the falsified watch sits at position 1.
                if literals[0] == false_literal:
                    literals[0], literals[1] = literals[1], literals[0]
                first = literals[0]
                first_value = lit_value[first]
                if first_value == 1:  # TRUE: clause satisfied
                    watch_list[keep] = clause
                    keep += 1
                    continue
                for scan in range(2, len(literals)):
                    candidate = literals[scan]
                    if lit_value[candidate]:  # TRUE or UNASSIGNED: new watch
                        literals[1], literals[scan] = literals[scan], literals[1]
                        watches[candidate].append(clause)
                        break
                else:
                    # No replacement: the clause is unit or conflicting.
                    watch_list[keep] = clause
                    keep += 1
                    if not first_value:  # first is FALSE: conflict
                        while index < length:
                            watch_list[keep] = watch_list[index]
                            keep += 1
                            index += 1
                        del watch_list[keep:]
                        self.qhead = len(trail)
                        self.stats.propagations += propagations
                        return clause
                    variable = first >> 1
                    assigns[variable] = (first & 1) ^ 1
                    lit_value[first] = TRUE
                    lit_value[first ^ 1] = FALSE
                    levels[variable] = level
                    reasons[variable] = clause
                    trail_append(first)
                    propagations += 1
            del watch_list[keep:]
        self.qhead = qhead
        self.stats.propagations += propagations
        return None

    def _propagate_general(self) -> Clause | None:
        """Reference BCP: every clause via the watch lists, binaries first.

        This keeps the pre-split implementation style — per-iteration
        ``self.qhead`` bookkeeping, truth tests against ``assigns`` with
        the parity xor, enqueues through :meth:`_enqueue` — so bench runs
        against it measure what the split engine (and its hot-loop
        tuning) buys.  The one departure from the historical loop is
        required for order alignment: the binary prefix of each watch
        list is walked read-only with compact int reasons, because
        swapping binary literals or compacting them away would perturb
        decision tie-breaking and learnt clauses relative to the split
        path.
        """
        trail = self.trail
        assigns = self.assigns
        watches = self.watches
        binary_count = self.binary_count
        while self.qhead < len(trail):
            propagated = trail[self.qhead]
            self.qhead += 1
            false_literal = propagated ^ 1
            watch_list = watches[false_literal]
            # Binary prefix: no swaps, no compaction, compact int reasons.
            boundary = binary_count[false_literal]
            for index in range(boundary):
                literals = watch_list[index].literals
                other = literals[1] if literals[0] == false_literal else literals[0]
                value = assigns[other >> 1]
                if value < 0:
                    self._enqueue(other, false_literal)
                elif value ^ (other & 1) == FALSE:
                    self.qhead = len(trail)
                    return Clause((other, false_literal))
            # Long suffix: the classic two-watch walk, compacting only
            # past the binary prefix.
            keep = boundary
            index = boundary
            length = len(watch_list)
            while index < length:
                clause = watch_list[index]
                index += 1
                literals = clause.literals
                # Normalize: the falsified watch sits at position 1.
                if literals[0] == false_literal:
                    literals[0], literals[1] = literals[1], literals[0]
                first = literals[0]
                first_value = assigns[first >> 1]
                if first_value >= 0 and first_value ^ (first & 1) == TRUE:
                    watch_list[keep] = clause
                    keep += 1
                    continue
                for scan in range(2, len(literals)):
                    candidate = literals[scan]
                    value = assigns[candidate >> 1]
                    if value < 0 or value ^ (candidate & 1) == TRUE:
                        literals[1], literals[scan] = literals[scan], literals[1]
                        watches[candidate].append(clause)
                        break
                else:
                    # No replacement: the clause is unit or conflicting.
                    watch_list[keep] = clause
                    keep += 1
                    if first_value >= 0:  # first is FALSE: conflict
                        while index < length:
                            watch_list[keep] = watch_list[index]
                            keep += 1
                            index += 1
                        del watch_list[keep:]
                        self.qhead = len(trail)
                        return clause
                    self._enqueue(first, clause)
            del watch_list[keep:]
        return None

    # ==================================================================
    # Conflict analysis (first UIP, Section 2)
    # ==================================================================
    def _analyze(self, conflict: Clause) -> tuple[list[int], int]:
        """Derive the first-UIP conflict clause and the backjump level.

        Also performs all activity bookkeeping: ``clause_activity`` on
        every *responsible* clause, ``var_activity`` per the configured
        sensitivity rule (Section 4), ``lit_activity`` on the literals of
        the deduced conflict clause (Section 7), and the Chaff literal
        counters.

        Reasons come in two shapes (see :attr:`reasons`): a
        :class:`Clause`, whose position 0 holds the implied literal, or a
        compact int ``q`` standing for the binary clause ``(asserting OR
        q)``.  The returned list is a reused scratch buffer — callers
        must copy what they keep (``_record_learned`` does).
        """
        config = self.config
        seen = self._seen
        levels = self.levels
        trail = self.trail
        reasons = self.reasons
        current_level = len(self.trail_limits)
        var_activity = self.var_activity

        learnt = self._learnt_buffer
        learnt.clear()
        learnt.append(0)  # position 0 reserved for the asserting literal
        to_clear = self._to_clear_buffer
        to_clear.clear()
        bump_responsible = config.bump_responsible_clauses
        heap = self.order_heap

        clause: Reason = conflict
        unresolved = 0
        index = len(trail) - 1
        asserting = -1

        while True:
            if clause is None:
                raise SolverInternalError("missing reason during conflict analysis")
            if type(clause) is int:
                # Compact binary reason: the clause is (asserting OR other),
                # and ``asserting`` (position 0) is skipped as usual.
                other = clause
                if bump_responsible:
                    bumped = asserting >> 1
                    var_activity[bumped] += 1
                    if heap is not None:
                        heap.update(bumped)
                    bumped = other >> 1
                    var_activity[bumped] += 1
                    if heap is not None:
                        heap.update(bumped)
                variable = other >> 1
                if not seen[variable] and levels[variable] > 0:
                    seen[variable] = True
                    to_clear.append(variable)
                    if levels[variable] >= current_level:
                        unresolved += 1
                    else:
                        learnt.append(other)
            else:
                if clause.learned:
                    clause.activity += 1
                clause_literals = clause.literals
                if bump_responsible:
                    for literal in clause_literals:
                        bumped = literal >> 1
                        var_activity[bumped] += 1
                        if heap is not None:
                            heap.update(bumped)
                start = 0 if asserting == -1 else 1
                for position in range(start, len(clause_literals)):
                    literal = clause_literals[position]
                    variable = literal >> 1
                    if not seen[variable] and levels[variable] > 0:
                        seen[variable] = True
                        to_clear.append(variable)
                        if levels[variable] >= current_level:
                            unresolved += 1
                        else:
                            learnt.append(literal)
            while not seen[trail[index] >> 1]:
                index -= 1
            asserting = trail[index]
            variable = asserting >> 1
            clause = reasons[variable]
            seen[variable] = False
            unresolved -= 1
            index -= 1
            if unresolved == 0:
                break
        learnt[0] = asserting ^ 1

        if config.clause_minimization and len(learnt) > 2:
            learnt = self._minimize(learnt)

        # Backjump level: the deepest level among the non-asserting literals.
        if len(learnt) == 1:
            backtrack_level = 0
        else:
            max_position = 1
            for position in range(2, len(learnt)):
                if levels[learnt[position] >> 1] > levels[learnt[max_position] >> 1]:
                    max_position = position
            learnt[1], learnt[max_position] = learnt[max_position], learnt[1]
            backtrack_level = levels[learnt[1] >> 1]

        if not bump_responsible:
            for literal in learnt:
                bumped = literal >> 1
                var_activity[bumped] += 1
                if heap is not None:
                    heap.update(bumped)
        lit_activity = self.lit_activity
        vsids = self.vsids
        for literal in learnt:
            lit_activity[literal] += 1
            vsids[literal] += 1

        for variable in to_clear:
            seen[variable] = False
        return learnt, backtrack_level

    def _minimize(self, learnt: list[int]) -> list[int]:
        """Self-subsumption minimization (extension; off by default).

        A non-asserting literal is redundant when every literal of its
        reason clause is already in the learnt clause (or at level 0).
        Requires the ``seen`` flags of the learnt literals, which
        :meth:`_analyze` has not cleared yet at the call site.  Compact
        binary reasons contribute a single antecedent literal.
        """
        seen = self._seen
        levels = self.levels
        minimized = [learnt[0]]
        for literal in learnt[1:]:
            reason = self.reasons[literal >> 1]
            if reason is None:
                minimized.append(literal)
                continue
            if type(reason) is int:
                variable = reason >> 1
                if not seen[variable] and levels[variable] > 0:
                    minimized.append(literal)
                continue
            redundant = True
            for other in reason.literals:
                variable = other >> 1
                if variable == literal >> 1:
                    continue
                if not seen[variable] and levels[variable] > 0:
                    redundant = False
                    break
            if not redundant:
                minimized.append(literal)
        return minimized

    # ==================================================================
    # Learning, restarts, aging
    # ==================================================================
    def _record_learned(self, learnt: list[int], lbd: int = 0) -> None:
        """Push the conflict clause and assert its first literal.

        ``lbd`` is the literal-block distance measured at conflict time
        (before backtracking erased the levels); it is stamped on the
        clause so quality-based retention can filter by glue later.
        """
        self.stats.learned_total += 1
        self.log_proof_add(learnt)
        if len(learnt) == 1:
            self.stats.learned_units += 1
            self._enqueue(learnt[0], None)
        else:
            clause = Clause(learnt, learned=True, birth=self.birth_counter, lbd=lbd)
            self.birth_counter += 1
            self.learned.append(clause)
            self.attach_clause(clause)
            self._enqueue(learnt[0], clause)
        self.search_cursor = len(self.learned) - 1
        self.stats.peak_clauses = max(
            self.stats.peak_clauses, len(self.clauses) + len(self.learned)
        )

    def _choose(self) -> int | None:
        """The next decision literal (``None`` = all assigned): hook point.

        The base engines dispatch to the Section 5/6 strategies in
        :mod:`repro.solver.decision`; the arena engine overrides this
        with its flat-buffer reimplementation of the same strategies.
        """
        return choose_decision(self)

    def _decay_activities(self) -> None:
        """Age all activity counters (Chaff's aging, adopted by BerkMin).

        Mutates in place: the order heap (and any other holder of the
        lists) keeps its reference.  Integer division preserves relative
        order but can create new ties, so the heap is reheapified.
        """
        divisor = self.config.activity_decay_divisor
        if divisor <= 1:
            return
        var_activity = self.var_activity
        for index in range(len(var_activity)):
            var_activity[index] //= divisor
        vsids = self.vsids
        for index in range(len(vsids)):
            vsids[index] //= divisor
        if self.order_heap is not None:
            self.order_heap.rebuild(list(self.order_heap.heap))

    def _restart(self) -> bool:
        """Abandon the search tree; reduce the database; return ``self.ok``."""
        self.stats.restarts += 1
        self._backtrack(0)
        mark_every = self.config.mark_every_n_restarts
        if mark_every and self.stats.restarts % mark_every == 0 and self.learned:
            self.learned[-1].protected = True
        # Bring level 0 to fixpoint before reducing: a unit conflict clause
        # learned just before the restart may not have propagated yet.
        conflict = self._propagate()
        if conflict is not None:
            self.ok = False
            self.log_proof_add([])
            return False
        reduce_database(self)
        return True

    # ==================================================================
    # Proof logging
    # ==================================================================
    def log_proof_add(self, encoded_literals: Sequence[int]) -> None:
        """Record a clause addition in the DRUP trace (no-op when logging is off)."""
        if self.proof is not None:
            self.proof.append(("a", [decode_literal(lit) for lit in encoded_literals]))

    def log_proof_delete(self, clause: Clause) -> None:
        """Record a clause deletion in the DRUP trace (no-op when logging is off)."""
        if self.proof is not None:
            self._flush_level0_proof_units()
            self.proof.append(("d", clause.to_dimacs()))

    def _flush_level0_proof_units(self) -> None:
        """Log unlogged level-0 assignments as unit additions.

        A deletion may remove the very clause that *implied* a level-0
        literal; later strengthened or learned additions that lean on
        that literal would then stop being RUP for the checker even
        though they are sound.  Mirroring each level-0 literal into the
        proof as a unit clause *before* any deletion keeps every later
        step checkable — each unit is RUP at this moment because it was
        derived by unit propagation over clauses still in the checker's
        database.  Called from every deletion-logging site; idempotent
        per literal.
        """
        end = self.trail_limits[0] if self.trail_limits else len(self.trail)
        proof = self.proof
        while self._proof_level0_logged < end:
            literal = self.trail[self._proof_level0_logged]
            self._proof_level0_logged += 1
            proof.append(("a", [decode_literal(literal)]))

    # ==================================================================
    # Interruption (public API; the primitive the parallel engine uses)
    # ==================================================================
    def interrupt(self) -> None:
        """Ask the running (or next) ``solve`` call to stop cooperatively.

        Safe to call from another thread or from an ``on_progress``
        callback.  The search stops at the next decision/conflict
        boundary and returns ``UNKNOWN`` with ``limit_reason
        == "interrupted"``; the flag is cleared once honoured, so a later
        ``solve`` call runs normally.
        """
        self._interrupted = True

    def clear_interrupt(self) -> None:
        """Discard a pending :meth:`interrupt` request."""
        self._interrupted = False

    # ==================================================================
    # Checkpointing (see repro.checkpoint for the file format)
    # ==================================================================
    def snapshot(self):
        """Capture the resumable search state as a :class:`SolverSnapshot`.

        The snapshot holds the learned-clause stack, all activity
        counters, the level-0 trail, the RNG state, the statistics, and
        the proof trace (when logging) — everything a fresh solver on
        the same formula needs to continue this search instead of
        restarting it.  Safe to call mid-search from ``on_progress``.
        """
        from repro.checkpoint.snapshot import capture_snapshot

        return capture_snapshot(self)

    def resume(self, snapshot) -> bool:
        """Restore a snapshot (or checkpoint file path) onto this solver.

        Must be called on a *fresh* solver built for the same formula,
        before any search.  Accepts a :class:`SolverSnapshot` or a path
        to a checkpoint file.  Returns ``True`` on a warm resume and
        ``False`` — after a :class:`CheckpointWarning` — whenever the
        snapshot cannot be used (missing/corrupted/stale-version file,
        different formula), leaving the solver ready for a cold start.
        Corruption never raises.
        """
        from repro.checkpoint.snapshot import (
            SolverSnapshot,
            restore_snapshot,
            try_load_checkpoint,
        )

        if not isinstance(snapshot, SolverSnapshot):
            snapshot = try_load_checkpoint(snapshot)
            if snapshot is None:
                return False
        return restore_snapshot(self, snapshot)

    # ==================================================================
    # Engine-neutral learned-clause views
    # ==================================================================
    # The session and checkpoint layers manage learned clauses without
    # knowing how the engine stores them (Clause objects here, flat
    # arena records in the subclass).  These methods are the seam: the
    # arena engine overrides each of them.
    def retain_learned_by_lbd(self, limit: int | None) -> tuple[int, int]:
        """Filter the learned stack by glue; returns ``(kept, dropped)``.

        The session layer's between-call retention pass: clauses whose
        measured LBD exceeds ``limit`` are deleted (DRUP-logged), except
        the topmost and ``protected`` clauses (the paper's anti-looping
        rules) and clauses with LBD 0 ("never measured").  ``limit is
        None`` keeps everything.  Runs at decision level 0, clears the
        never-consulted-again level-0 reasons, and rebuilds the
        watch/binary structures when anything was dropped.
        """
        if not self.ok:
            return (len(self.learned), 0)
        if self.current_level() > 0:
            self._backtrack(0)
        learned = self.learned
        if not learned:
            return (0, 0)
        top = len(learned) - 1
        kept: list[Clause] = []
        dropped = 0
        for index, clause in enumerate(learned):
            keep = (
                limit is None
                or index == top
                or clause.protected
                or clause.lbd <= limit  # lbd == 0 ("never measured") keeps
            )
            if keep:
                kept.append(clause)
            else:
                self.log_proof_delete(clause)
                dropped += 1
        if dropped:
            self.stats.learned_deleted += dropped
            for literal in self.trail:
                self.reasons[literal >> 1] = None
            self.learned = kept
            _rebuild_structures(self)
            self.search_cursor = len(self.learned) - 1
        self.stats.retained_clauses += len(kept)
        return (len(kept), dropped)

    def iter_learned_lemmas(self):
        """Yield ``(dimacs_literal_tuple, lbd)`` for every learned clause."""
        for clause in self.learned:
            yield (tuple(clause.to_dimacs()), clause.lbd)

    def inject_lemma(self, dimacs_literals, lbd: int) -> bool:
        """Attach one imported lemma as a learned clause (level 0 only).

        Returns False — without attaching — when the lemma is too short,
        mentions unknown variables, or touches a level-0 assignment.
        The caller is responsible for proof-soundness (the session layer
        skips injection entirely under proof logging).
        """
        if len(dimacs_literals) < 2:
            return False
        encoded = []
        for literal in dimacs_literals:
            if abs(literal) > self.num_variables:
                return False
            code = encode_literal(literal)
            if self.lit_value[code] != UNASSIGNED:
                # Touching a level-0 assignment: the clause is already
                # satisfied or would need strengthening — not worth it.
                return False
            encoded.append(code)
        clause = Clause(encoded, learned=True, birth=self.birth_counter, lbd=lbd)
        self.birth_counter += 1
        self.learned.append(clause)
        self.attach_clause(clause)
        return True

    # ==================================================================
    # Shared-clause import gate (see repro.parallel.sharing)
    # ==================================================================
    def _lemma_defect(self, dimacs_literals) -> tuple[str, str] | None:
        """Why an imported clause cannot attach here, or None when it can.

        Returns ``(reason, severity)`` mirroring :meth:`inject_lemma`'s
        rejections (units are additionally accepted — an imported level-0
        fact is the most valuable share of all).  Severity "hard" marks
        defects an honest exporter on the same formula can never produce
        (Byzantine evidence); "benign" marks importer-local conditions —
        a level-0 assignment this lane has already made — that say
        nothing about the sender.  The arena engine extends this with
        its eliminated-variable gate.
        """
        if not dimacs_literals:
            return ("short-clause", "hard")
        for literal in dimacs_literals:
            if abs(literal) > self.num_variables:
                return ("out-of-range", "hard")
            if self.lit_value[encode_literal(literal)] != UNASSIGNED:
                return ("assigned-literal", "benign")
        return None

    def _probe_rup(self, encoded_literals) -> bool:
        """True when unit propagation refutes the clause's negation.

        The soundness gate for imports: at decision level 0, assert the
        negation of every literal at a scratch level, propagate, and
        undo.  A conflict proves the clause is RUP with respect to this
        solver's *current* database — attaching and DRUP-logging it is
        then sound no matter what the exporter claimed, and the emitted
        proof stays checkable because the checker replays the same unit
        propagation.  All literals must be unassigned on entry (the
        :meth:`_lemma_defect` gate guarantees it).
        """
        if self.trail_limits:  # imports happen at level 0 only
            return False
        self.trail_limits.append(len(self.trail))
        for literal in encoded_literals:
            self._enqueue(literal ^ 1, None)
        conflict = self._propagate()
        self._backtrack(0)
        return conflict is not None

    _PARKING_TTL = 8  # restart rounds an inconclusive import waits for

    def _import_shared(self) -> int:
        """Drain the share client; attach every provably sound clause.

        Runs at settled level-0 points of the search (after restarts and
        unit-learnt backjumps).  Each candidate is re-validated end
        to end: frame decode + CRC (the parent's check does not cover
        the second queue hop), the engine gate, a tautology check, then
        the RUP probe.  Rejections are reported back to the supervisor
        for attribution and dropped without mutating solver state.  A
        probe miss is merely inconclusive — the clause may be sound but
        not one-step derivable *here yet* — so the candidate is parked
        and retried at later restarts; only when its TTL expires does a
        "rup-unproven" (benign) notice go back.  RUP-proven *units* are
        asserted at level 0 and propagated — the highest-value import,
        permanently shrinking this lane's search space; a propagation
        conflict refutes the formula outright (``self.ok`` drops and the
        empty clause is logged, keeping the DRUP proof checkable).
        Returns the number of clauses attached.
        """
        from repro.parallel.sharing import (
            ShareFrameError,
            decode_share_frame,
            is_tautology,
        )

        share = self.share
        stats = self.stats
        attached = 0
        parked = self._share_parking
        self._share_parking = []
        candidates: list[tuple] = [(e[0], e[1], e[2], e[3]) for e in parked]
        for origin, frame in share.drain():
            try:
                _, _, lbd, literals = decode_share_frame(frame)
            except ShareFrameError as error:
                stats.shared_rejected += 1
                share.reject(origin, error.reason, "hard")
                continue
            candidates.append((origin, literals, lbd, self._PARKING_TTL))
        for origin, literals, lbd, ttl in candidates:
            if not self.ok:
                break
            if is_tautology(literals):
                stats.shared_rejected += 1
                share.reject(origin, "tautology", "hard")
                continue
            defect = self._lemma_defect(literals)
            if defect is not None:
                reason, severity = defect
                if severity == "benign" and ttl < self._PARKING_TTL:
                    continue  # parked clause overtaken by local level-0 facts
                stats.shared_rejected += 1
                share.reject(origin, reason, severity)
                continue
            encoded = [encode_literal(literal) for literal in literals]
            if not self._probe_rup(encoded):
                if ttl > 1:
                    self._share_parking.append([origin, literals, lbd, ttl - 1])
                else:
                    stats.shared_rejected += 1
                    share.reject(origin, "rup-unproven", "benign")
                continue
            if len(encoded) == 1:
                self.log_proof_add(encoded)
                self._enqueue(encoded[0], None)
                stats.shared_imported += 1
                attached += 1
                if self._propagate() is not None:
                    self.ok = False
                    self.log_proof_add([])
                continue
            if self.inject_lemma(list(literals), max(lbd, 1)):
                self.log_proof_add(encoded)
                stats.shared_imported += 1
                attached += 1
        return attached

    def _learned_snapshot_rows(self) -> list[tuple[list[int], int, int, bool]]:
        """``(encoded_literals, activity, birth, protected)`` rows for capture."""
        return [
            (list(clause.literals), clause.activity, clause.birth, clause.protected)
            for clause in self.learned
        ]

    def _learned_lbds(self) -> list[int]:
        """Per-clause LBD stamps, parallel to :meth:`_learned_snapshot_rows`."""
        return [clause.lbd for clause in self.learned]

    def _arena_snapshot_payload(self) -> dict | None:
        """Arena-specific snapshot state; ``None`` for the object engines."""
        return None

    def _restore_learned_clause(
        self, ordered: list[int], activity: int, birth: int, protected: bool, lbd: int
    ) -> None:
        """Re-attach one learned clause during snapshot restore.

        ``ordered`` already surfaces two non-false literals first (the
        restore loop's watch-ordering contract); this hook only creates
        and indexes the engine's representation.
        """
        clause = Clause(ordered, learned=True, birth=birth, lbd=lbd)
        clause.activity = activity
        clause.protected = protected
        self.learned.append(clause)
        self.attach_clause(clause)

    # ==================================================================
    # Main loop
    # ==================================================================
    def solve(
        self,
        assumptions: Sequence[int] = (),
        *,
        max_conflicts: int | None = None,
        max_decisions: int | None = None,
        max_seconds: float | None = None,
        max_clauses: int | None = None,
        verify: bool = True,
        on_progress=None,
    ) -> SolveResult:
        """Run the CDCL search.

        Args:
            assumptions: DIMACS literals assumed true for this call only.
            max_conflicts / max_decisions / max_seconds: budgets for this
                call; exceeding one yields ``UNKNOWN`` with the reason.
            max_clauses: memory guard — once the database (original plus
                learned clauses) exceeds this many clauses the search
                stops with ``UNKNOWN`` and ``limit_reason == "memory
                budget"`` instead of growing without bound.  A raised
                ``MemoryError`` inside the search loop degrades to the
                same answer rather than killing the process.
            verify: check SAT models against every added clause (cheap
                insurance; raises :class:`SolverInternalError` on failure).
            on_progress: optional callback invoked with the live
                :class:`SolverStats` every 128 conflicts and every 512
                decisions *made during this call*.  It may call
                :meth:`interrupt` to stop the search cooperatively (the
                parallel engine's cancellation hook); exceptions it
                raises propagate to the caller.

        The call is not re-entrant: invoking ``solve`` again on the same
        instance from ``on_progress`` (or another thread) raises
        :class:`RuntimeError`.  Sequential re-solves — after SAT, UNSAT,
        a budget, or an interrupt — are supported and start from a clean
        level-0 state.
        """
        if self._in_solve:
            raise RuntimeError(
                "Solver.solve is not re-entrant; this instance is already "
                "solving (use interrupt() from callbacks, or a second Solver)"
            )
        start_time = time.perf_counter()
        self._solve_started = start_time
        stats = self.stats
        base_conflicts = stats.conflicts
        base_decisions = stats.decisions
        self._in_solve = True
        self._num_assumptions = len(assumptions)
        trace = self.trace
        try:
            if trace is not None:
                trace.emit(
                    {
                        "type": "solve_start",
                        "conflicts": stats.conflicts,
                        "decisions": stats.decisions,
                        "config": self.config.name,
                        "variables": self.num_variables,
                        "clauses": len(self.clauses) + len(self.learned),
                    }
                )
            if not self.ok:
                return self._result(SolveStatus.UNSAT)
            assumption_literals = [encode_literal(lit) for lit in assumptions]
            for literal in assumption_literals:
                self.ensure_variables(literal >> 1)
            self._backtrack(0)
            scheduler = RestartScheduler(self.config)
            conflicts_since_restart = 0

            while True:
                if self._interrupted:
                    self._interrupted = False
                    return self._result(SolveStatus.UNKNOWN, limit="interrupted")
                conflict = self._propagate()
                if conflict is not None:
                    stats.conflicts += 1
                    conflicts_since_restart += 1
                    if self.current_level() == 0:
                        self.ok = False
                        self.log_proof_add([])
                        return self._result(SolveStatus.UNSAT)
                    learnt, backtrack_level = self._analyze(conflict)
                    # LBD (distinct decision levels among the learnt
                    # literals) must be measured before the backtrack
                    # erases the levels; it feeds both the conflict trace
                    # event and the glue stamp on the recorded clause.
                    levels = self.levels
                    lbd = len({levels[lit >> 1] for lit in learnt})
                    if trace is not None:
                        conflict_level = self.current_level()
                        trace.emit(
                            {
                                "type": "conflict",
                                "conflicts": stats.conflicts,
                                "level": conflict_level,
                                "learned_len": len(learnt),
                                "lbd": lbd,
                                "backjump": conflict_level - backtrack_level,
                            }
                        )
                    self._backtrack(backtrack_level)
                    self._record_learned(learnt, lbd)
                    share = self.share
                    if (
                        share is not None
                        and lbd <= share.export_max_lbd
                        and share.export([decode_literal(lit) for lit in learnt], lbd)
                    ):
                        stats.shared_exported += 1
                    if (
                        self.config.activity_decay_interval > 0
                        and stats.conflicts % self.config.activity_decay_interval == 0
                    ):
                        self._decay_activities()
                    if (
                        max_conflicts is not None
                        and stats.conflicts - base_conflicts >= max_conflicts
                    ):
                        return self._result(SolveStatus.UNKNOWN, limit="conflict budget")
                    if (
                        max_clauses is not None
                        and len(self.clauses) + len(self.learned) > max_clauses
                    ):
                        return self._result(SolveStatus.UNKNOWN, limit="memory budget")
                    # Counters elapsed *since this call*: a resumed solve
                    # whose lifetime total happens to be a multiple of 128
                    # must not fire the hook on its first conflict.
                    if (stats.conflicts - base_conflicts) % 128 == 0:
                        if self.metrics is not None:
                            self.metrics.tick(stats)
                        if on_progress is not None:
                            on_progress(stats)
                        if (
                            max_seconds is not None
                            and time.perf_counter() - start_time > max_seconds
                        ):
                            return self._result(
                                SolveStatus.UNKNOWN, limit="time budget"
                            )
                    if scheduler.should_restart(conflicts_since_restart):
                        conflicts_since_restart = 0
                        scheduler.on_restart()
                        if trace is not None:
                            event = {
                                "type": "restart",
                                "conflicts": stats.conflicts,
                                "restarts": stats.restarts + 1,
                                "learned": len(self.learned),
                            }
                            interval = scheduler.current_interval
                            if interval != float("inf"):
                                event["next_interval"] = int(interval)
                            trace.emit(event)
                        if not self._restart():
                            return self._result(SolveStatus.UNSAT)
                    continue

                level = self.current_level()
                if level == 0 and self.share is not None:
                    # Propagation is complete and no conflict: the one
                    # spot where attaching peer clauses is provably sound
                    # (the RUP probe runs at level 0 on a settled trail).
                    # Reached after every restart *and* every unit-learnt
                    # backjump, so imports land while they can still
                    # prune instead of waiting out a restart interval.
                    self._import_shared()
                    if not self.ok:
                        # An imported RUP unit closed the search.
                        return self._result(SolveStatus.UNSAT)
                if level < len(assumption_literals):
                    literal = assumption_literals[level]
                    value = self._value(literal)
                    if value == FALSE:
                        return self._result(
                            SolveStatus.UNSAT,
                            under_assumptions=True,
                            core=self._failed_assumption_core(literal),
                        )
                    self.trail_limits.append(len(self.trail))
                    if value == UNASSIGNED:
                        self._enqueue(literal, None)
                    continue

                if (
                    max_decisions is not None
                    and stats.decisions - base_decisions >= max_decisions
                ):
                    return self._result(SolveStatus.UNKNOWN, limit="decision budget")
                # Guard against the 0 % 512 == 0 trap: before the first
                # decision of this call the hook (and the clock) must not
                # run on every loop iteration.
                decided = stats.decisions - base_decisions
                if decided and decided % 512 == 0:
                    if self.metrics is not None:
                        self.metrics.tick(stats)
                    if on_progress is not None:
                        on_progress(stats)
                    if (
                        max_seconds is not None
                        and time.perf_counter() - start_time > max_seconds
                    ):
                        return self._result(SolveStatus.UNKNOWN, limit="time budget")

                literal = self._choose()
                if literal is None:
                    model = self._extract_model()
                    if verify:
                        self._verify_model(model)
                    return self._result(SolveStatus.SAT, model=model)
                stats.decisions += 1
                self.trail_limits.append(len(self.trail))
                self._enqueue(literal, None)
                if trace is not None:
                    trace.emit(
                        {
                            "type": "decision",
                            "conflicts": stats.conflicts,
                            "decisions": stats.decisions,
                            "level": self.current_level(),
                            "literal": decode_literal(literal),
                            "source": self.last_decision_source or "global",
                            "skin_distance": self.last_skin_distance,
                        }
                    )
                if self.current_level() > stats.max_decision_level:
                    stats.max_decision_level = self.current_level()
        except MemoryError:
            # Degrade instead of dying: the answer is honest (UNKNOWN) and
            # the process survives.  The instance's internal state may be
            # mid-operation, so discard it rather than re-solving.
            return self._result(SolveStatus.UNKNOWN, limit="memory budget")
        finally:
            self._in_solve = False
            stats.solve_time_seconds += time.perf_counter() - start_time

    def _failed_assumption_core(self, failed_literal: int) -> list[int]:
        """A subset of the assumptions that already contradicts the formula.

        ``failed_literal`` is the assumption found FALSE during
        re-application.  Walking the implication graph backwards from its
        complement (MiniSat's ``analyzeFinal``) collects the decision
        literals — which below the assumption levels are exactly the
        earlier assumptions — that forced it.  Returned in DIMACS form;
        ``formula AND core`` is unsatisfiable.
        """
        core = [decode_literal(failed_literal)]
        variable = failed_literal >> 1
        if self.levels[variable] == 0:
            return core  # the formula alone implies the complement
        seen = [False] * (self.num_variables + 1)
        seen[variable] = True
        levels = self.levels
        for index in range(len(self.trail) - 1, -1, -1):
            literal = self.trail[index]
            trail_variable = literal >> 1
            if not seen[trail_variable]:
                continue
            seen[trail_variable] = False
            reason = self.reasons[trail_variable]
            if reason is None:
                if levels[trail_variable] > 0:
                    core.append(decode_literal(literal))
            elif type(reason) is int:
                # Compact binary reason: the single antecedent literal.
                if levels[reason >> 1] > 0:
                    seen[reason >> 1] = True
            else:
                for antecedent in reason.literals[1:]:
                    if levels[antecedent >> 1] > 0:
                        seen[antecedent >> 1] = True
        return core

    # ==================================================================
    # Results and models
    # ==================================================================
    def _result(
        self,
        status: SolveStatus,
        *,
        model: dict[int, bool] | None = None,
        limit: str | None = None,
        under_assumptions: bool = False,
        core: list[int] | None = None,
    ) -> SolveResult:
        proof = None
        if (
            status is SolveStatus.UNSAT
            and not under_assumptions
            and self.proof is not None
        ):
            proof = list(self.proof)
        if self.metrics is not None:
            self.metrics.finish(self.stats)
        if self.trace is not None:
            event = {
                "type": "solve_end",
                "conflicts": self.stats.conflicts,
                "status": status.name,
            }
            if limit is not None:
                event["limit_reason"] = limit
            self.trace.emit(event)
        return SolveResult(
            status=status,
            model=model,
            stats=self.stats,
            proof=proof,
            limit_reason=limit,
            under_assumptions=under_assumptions,
            core=core,
            config_name=self.config.name,
            wall_seconds=time.perf_counter() - self._solve_started,
            num_assumptions=self._num_assumptions,
        )

    def _extract_model(self) -> dict[int, bool]:
        return {
            variable: self.assigns[variable] == TRUE
            for variable in range(1, self.num_variables + 1)
        }

    def _verify_model(self, model: dict[int, bool]) -> None:
        """Check the model against every clause ever added (pristine copies)."""
        for clause in self._pristine:
            if not any(model.get(abs(lit), False) == (lit > 0) for lit in clause):
                raise SolverInternalError(f"model does not satisfy clause {clause}")


def solve_formula(
    formula: CnfFormula,
    config: SolverConfig | None = None,
    assumptions: Sequence[int] = (),
    **limits,
) -> SolveResult:
    """One-shot convenience wrapper: a single-call incremental session.

    Implemented as a :class:`repro.session.SolverSession` used for
    exactly one ``solve(assumptions=...)`` call, so the one-shot and
    incremental paths share their result shape (``core`` on
    UNSAT-under-assumptions, ``num_assumptions`` stamped) and their
    verification behaviour.  When the configuration's ``verification``
    level is not ``"off"``, the answer passes through the
    trusted-results gate (:func:`repro.reliability.verify_result`)
    before being returned: SAT models are re-checked against the
    original formula and — at level ``"full"`` — UNSAT answers are
    RUP-checked, with ``result.verified`` recording which check ran.
    """
    # Imported lazily: the session layer sits above the solver core.
    from repro.session import SolverSession

    with SolverSession(formula, config=config, cache=None) as session:
        return session.solve(assumptions, **limits)
