"""The CDCL engine.

:class:`Solver` implements the search architecture shared by GRASP,
SATO, Chaff and BerkMin (paper Section 2): DPLL-style splitting, Boolean
constraint propagation over watched literals (the SATO/Chaff two-watch
scheme), first-UIP conflict analysis with conflict-clause recording and
non-chronological backtracking, restarts, and clause-database
management.  Every BerkMin novelty and every ablation the paper
evaluates is selected through :class:`repro.solver.config.SolverConfig`;
the engine itself is heuristic-agnostic.

Usage::

    from repro import CnfFormula, Solver, berkmin_config

    formula = CnfFormula([[1, 2], [-1, 2], [-2]])
    solver = Solver(formula, config=berkmin_config())
    result = solver.solve()
    assert result.is_sat or result.is_unsat

The solver is incremental: clauses may be added between ``solve`` calls
and assumptions passed per call, MiniSat-style.

Clause storage
--------------
Every clause — original or learned — lives in one contiguous list of
ints, the *arena* (the MiniSat-lineage layout); a clause is identified
by its *ref*, the index of its header:

.. code-block:: text

    arena[ref + 0]   size          number of literals
    arena[ref + 1]   flags         bit 0 learned, bit 1 protected,
                                   bit 2 dead, bits >= 3 the LBD stamp
    arena[ref + 2]   act_idx       index into clause_act / clause_birth
    arena[ref + 3]   scan          saved watch-replacement scan offset
                                   (circular search resumes here)
    arena[ref + 4]   next0, blk0   watch slot 0: next node in the chain
    arena[ref + 6]   next1, blk1   and cached blocker; same for slot 1
    arena[ref + 8 .. ref + 8 + size]   encoded literals
                                   (slots 0 and 1 watch positions 0, 1)

The arena is a real ``array('i')`` — a contiguous int32 buffer — and so
are the per-variable assignment vectors, which lets the propagation,
analysis and backtracking loops run either as pure Python or through the
compiled kernels of :mod:`repro.solver._kernel` over the *same memory*.
Watch lists are linked chains threaded through the records themselves:
``watch_head[q]`` holds the first node (``(ref << 1) | slot``, ``-1``
ends a chain), so attaching is O(1), nothing reallocates during search,
and a record deleted by reduction is unlinked lazily the next time a
walk passes it.  Each watch slot caches a *blocker* literal: when the
blocker is already true the record body is never touched.  The
replacement scan is circular, resuming at ``arena[ref + 3]`` — long
learned clauses carry a mostly-false prefix after backtracking, and
restarting the scan at the front every visit made the walk quadratic.

Reasons live in an ``array('i')`` slot per variable: ``-1`` for
decisions and level-0 units, the implying record's ref for everything
else — so conflict analysis never loads a clause object.  The implied
literal of a reason is *not* normalized to position 0 (that would
re-thread watch chains); analysis skips it by variable instead.

Deletion never moves memory: a clause dies by setting its dead flag and
its words are reclaimed later by :meth:`Solver._maybe_collect`, which
compacts the arena once at least ``config.arena_gc_fraction`` of it is
dead and rebuilds the watch structures over the moved refs.

Inprocessing
------------
Between restarts the engine runs bounded variable elimination (the
NiVER rule) every ``config.inprocess_interval`` restarts.  Eliminated
variables keep their original clauses on a stack for model
reconstruction; a later clause or assumption that mentions one restores
it transitively ("restore on touch").  All DRUP obligations are
preserved: resolvents are logged as additions (single-step resolvents
are always RUP), learned clauses swept by elimination are logged as
deletions, and the original clauses an elimination removes are *not*
deleted from the proof — the checker's database stays a superset, which
keeps every later inference checkable and makes restoration free.
"""

from __future__ import annotations

import random
import time
from array import array
from collections.abc import Iterable, Sequence
from itertools import chain

from repro.cnf.formula import CnfFormula
from repro.cnf.literals import FALSE, TRUE, UNASSIGNED, decode_literal, encode_literal
from repro.cnf.simplify import clean_clause
from repro.solver import config as cfg
from repro.solver._kernel import AddressTable, load_arena_kernel
from repro.solver.config import (
    PROPAGATION_ARENA,
    VERIFICATION_LEVELS,
    VERIFY_FULL,
    SolverConfig,
    berkmin_config,
)
from repro.solver.phase import formula_literal
from repro.solver.restart import RestartScheduler
from repro.solver.result import SolveResult, SolveStatus
from repro.solver.stats import SolverStats

#: Header layout (see module docstring).
_HDR = 8
_LEARNED = 1
_PROTECTED = 2
_DEAD = 4
_LBD_SHIFT = 3


class SolverInternalError(RuntimeError):
    """Raised when an internal invariant is violated (e.g. a bad model)."""


class Solver:
    """A configurable CDCL SAT solver reproducing BerkMin and its ablations."""

    def __init__(
        self,
        formula: CnfFormula | None = None,
        config: SolverConfig | None = None,
    ) -> None:
        self.config = config or berkmin_config()
        if self.config.propagation != PROPAGATION_ARENA:
            raise ValueError(
                f"propagation mode {self.config.propagation!r} was removed; "
                f"the flat-buffer engine ({PROPAGATION_ARENA!r}) is the only one"
            )
        if self.config.verification not in VERIFICATION_LEVELS:
            raise ValueError(
                f"unknown verification level {self.config.verification!r}; "
                f"expected one of {', '.join(VERIFICATION_LEVELS)}"
            )
        self.rng = random.Random(self.config.seed)
        self.stats = SolverStats()

        # Every buffer the kernels touch is a typed array, not a list:
        # int32 for assignments, trail, reasons (-1 = no reason), marks
        # and the learned-ref stack; float64 for the activity vectors.
        self.num_variables = 0
        # Per-variable state; index 0 is unused so variables index directly.
        self.assigns = array("i", [UNASSIGNED])
        self.levels = array("i", [0])
        self.reasons = array("i", [-1])
        self.var_activity = array("d", [0])
        self._seen = array("i", [0])
        # Per-literal state, indexed by encoded literal (size 2 * (vars + 1)).
        # lit_value[q] is the truth value of encoded literal q — the same
        # TRUE/FALSE/UNASSIGNED encoding as ``assigns`` but resolved per
        # literal, so BCP tests truth with one index and no parity xor.
        self.lit_value = array("i", [UNASSIGNED, UNASSIGNED])
        self.lit_activity = array("d", [0, 0])
        self.vsids = array("d", [0, 0])
        # watch_head[q] heads literal q's chain of watch nodes
        # ((ref << 1) | slot); the chain links live inside the records.
        self.watch_head = array("i", [-1, -1])
        # binary_implications[q] lists the partners of q in binary
        # clauses — the occurrence index behind the nb_two phase
        # heuristic (binary records propagate through the chains).
        self.binary_implications: list[list[int]] = [[], []]

        self.trail = array("i")  # encoded literals in assignment order
        self.trail_limits: list[int] = []  # trail index at each decision level
        self.qhead = 0  # propagation frontier within the trail

        self.arena = array("i")
        self.arena_dead = 0  # dead words awaiting collection
        self.clause_act = array("d")
        self.clause_birth: list[int] = []
        self.clauses: list[int] = []  # refs of the live original records
        self.learned = array("i")  # conflict-clause stack (refs), oldest first
        self.search_cursor = -1  # where the top-clause scan resumes
        self.birth_counter = 0
        self.old_threshold = self.config.old_activity_threshold
        # Level-0 trail length when _simplify_refs last ran (see
        # _reduce_database).
        self._simplified_trail = 0

        # Variable-elimination bookkeeping.  ``_eliminated`` stacks
        # ``(variable, original DIMACS clauses)`` in elimination order for
        # model reconstruction; ``_eliminated_mark`` is the per-variable
        # membership test (a byte buffer, so the decision kernel reads
        # it too); ``_frozen`` holds the current call's assumption
        # variables (never eliminated).
        self._eliminated: list[tuple[int, list[list[int]]]] = []
        self._eliminated_mark = array("B", [0])
        self._frozen: frozenset[int] = frozenset()

        # The compiled kernels (None -> pure-Python fallbacks, identical
        # semantics), their call scratch (a BCP work queue of literals,
        # the conflict call's output buffers, its per-level LBD marks,
        # the out-params words) and the address table through which
        # the hot ones reach the scratch and the per-variable and
        # per-literal buffers.  ``REPRO_SAT_PURE`` is read per solver.
        kernel = load_arena_kernel()
        self._kernel = kernel.propagate if kernel else None
        self._kernel_conflict = kernel.conflict if kernel else None
        self._kernel_decide = kernel.decide if kernel else None
        self._kernel_backtrack = kernel.backtrack if kernel else None
        self._kernel_load = kernel.load if kernel else None
        self._kernel_attach = kernel.attach if kernel else None
        self._kernel_out = array("i", bytes(16))
        self._scratch = array("i")
        self._learnt_out = array("i")
        self._clear_out = array("i")
        self._level_marks = array("i")
        self._tables = AddressTable() if kernel else None
        self._tables_address = self._tables.address if kernel else None
        self._size_scratch(1)

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
        # Scratch buffers reused by the pure-Python analysis so the
        # per-conflict hot path allocates nothing.  Their contents are
        # only valid inside one _analyze call.
        self._learnt_buffer: list[int] = []
        self._to_clear_buffer: list[int] = []

        # Observability.  ``trace`` is the structured event sink (None =
        # disabled; every emission site guards on it, and the BCP loop
        # never consults it).  The decision heuristics stamp
        # ``last_decision_source`` / ``last_skin_distance`` — only when
        # tracing is on — for the decision event emitted by solve().
        self.trace = self.config.trace
        self.last_decision_source: str | None = None
        self.last_skin_distance: int | None = None

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

    # ==================================================================
    # Record primitives
    # ==================================================================
    def _push_record(
        self, literals: list[int], learned: bool, lbd: int = 0, birth: int | None = None
    ) -> int:
        """Append one clause record; returns its ref.

        Learned records draw (and advance) ``birth_counter`` unless an
        explicit ``birth`` is supplied (the snapshot-restore path, where
        the counter is restored separately).
        """
        arena = self.arena
        ref = len(arena)
        flags = (lbd << _LBD_SHIFT) | (_LEARNED if learned else 0)
        # The circular scan starts past the watched pair; _attach_ref
        # links the two watch nodes.
        arena.extend((len(literals), flags, len(self.clause_act), 2, -1, 0, -1, 0))
        arena.extend(literals)
        self.clause_act.append(0)
        if learned and birth is None:
            birth = self.birth_counter
            self.birth_counter += 1
        self.clause_birth.append(birth or 0)
        return ref

    def _attach_ref(self, ref: int) -> None:
        """Index one record for propagation.

        Links both watch slots at the head of their literals' chains,
        each blocker seeded with the companion watch.  Binary records
        propagate through the chains like everything else, but also
        feed the flat implication arrays the phase heuristics score
        with (``nb_two`` / ``formula_literal``).
        """
        arena = self.arena
        base = ref + _HDR
        first = arena[base]
        second = arena[base + 1]
        if arena[ref] == 2:
            self.binary_implications[first].append(second)
            self.binary_implications[second].append(first)
        head = self.watch_head
        arena[ref + 4] = head[first]
        arena[ref + 5] = second
        head[first] = ref << 1
        arena[ref + 6] = head[second]
        arena[ref + 7] = first
        head[second] = (ref << 1) | 1

    def _kill_ref(self, ref: int) -> None:
        """Mark one record dead; its words are reclaimed at the next GC."""
        self.arena[ref + 1] |= _DEAD
        self.arena_dead += self.arena[ref] + _HDR

    def _ref_literals(self, ref: int) -> list[int]:
        base = ref + _HDR
        return self.arena[base : base + self.arena[ref]].tolist()

    # ==================================================================
    # Clause loading
    # ==================================================================
    def ensure_variables(self, count: int) -> None:
        """Grow all per-variable and per-literal tables to hold ``count`` vars.

        Each table grows in place by one whole-array extension, so every
        holder of a table keeps its reference.
        """
        grow = count - self.num_variables
        if grow <= 0:
            return
        self.num_variables = count
        unassigned = array("i", [UNASSIGNED])
        self.assigns += unassigned * grow
        self.levels += array("i", bytes(4 * grow))
        self.reasons += array("i", [-1]) * grow
        self.var_activity += array("d", bytes(8 * grow))
        self._seen += array("i", bytes(4 * grow))
        self._eliminated_mark += array("B", bytes(grow))
        self.lit_value += unassigned * (2 * grow)
        self.lit_activity += array("d", bytes(16 * grow))
        self.vsids += array("d", bytes(16 * grow))
        self.binary_implications += [[] for _ in range(2 * grow)]
        self.watch_head += array("i", [-1]) * (2 * grow)
        # Outside solve() no decision level exceeds the variable count
        # plus one (_probe_rup's); solve() widens for assumptions.
        self._size_scratch(count + 1)

    def _size_scratch(self, levels: int) -> None:
        """Grow the kernels' scratch to fit; refresh their address table.

        One propagation implies, and one learnt clause or its marks
        hold, at most one literal per variable; the LBD marks need one
        word per decision level up to ``levels``.  A buffer that is too
        small is replaced by one twice the size needed, so adding
        variables a few at a time stays linear.  A no-op without the
        kernels.
        """
        if self._tables is None:
            return
        words = self.num_variables + 2
        if len(self._scratch) < words:
            self._scratch = array("i", bytes(8 * words))
            self._learnt_out = array("i", bytes(8 * words))
            self._clear_out = array("i", bytes(8 * words))
        if len(self._level_marks) <= levels:
            self._level_marks = array("i", bytes(8 * (levels + 1)))
        self._tables.refresh(self)

    def _refresh_tables(self) -> None:
        """Re-read the kernels' buffer addresses after a buffer moved."""
        if self._tables is not None:
            self._tables.refresh(self)

    def add_formula(self, formula: CnfFormula) -> bool:
        """Load every clause of ``formula``; returns False if refuted outright.

        With the C kernels loaded, the clauses go through
        :meth:`_load_bulk`; whatever it leaves (all of them on the pure
        path) goes through :meth:`add_clause`.  Both leave the identical
        state.
        """
        self.ensure_variables(formula.num_variables)
        clauses = list(formula.clauses)
        loaded = 0
        if self._kernel_load is not None and not self._eliminated:
            loaded = self._load_bulk(clauses)
        for clause in clauses[loaded:]:
            self.add_clause(clause)
        return self.ok

    def _load_bulk(self, clauses: list[Sequence[int]]) -> int:
        """Load clauses with the kernel; returns how many were loaded.

        One ``arena_load`` call does :meth:`add_clause`'s level-0 work
        for a run of clauses in place.  A clause it cannot finish (a
        literal past the tables, or one that refutes the formula) goes
        through :meth:`add_clause`, and the kernel resumes after it.
        Loading stops early, leaving the rest to the caller, once the
        formula is refuted or when the clauses do not fit int32 buffers.
        """
        try:
            sizes = array("i", map(len, clauses))
            flat = array("i", chain.from_iterable(clauses))
        except (TypeError, OverflowError):
            return 0
        count = len(sizes)
        if not count or sum(sizes) != len(flat):  # the kernel reads flat by the sizes
            return 0
        if self.current_level() > 0:
            self._backtrack(0)  # as the first add_clause would
        refs = array("i", bytes(4 * count))
        units = array("i", bytes(4 * count))
        shortened = array("i", bytes(4 * count))
        pairs = array("i", bytes(8 * count))
        out = array("i", bytes(24))
        stats = self.stats
        start = offset = 0
        while start < count and self.ok:
            arena = self.arena
            used = len(arena)
            # Room for the worst case: every clause a record, no literal
            # dropped.  The tail is cut back to what was written.
            arena.frombytes(bytes(4 * (_HDR * (count - start) + len(flat) - offset)))
            stop = self._kernel_load(
                flat.buffer_info()[0],
                sizes.buffer_info()[0],
                start,
                count,
                offset,
                self.num_variables,
                arena.buffer_info()[0],
                used,
                len(self.clause_act),
                self.watch_head.buffer_info()[0],
                self.lit_value.buffer_info()[0],
                self.assigns.buffer_info()[0],
                self.levels.buffer_info()[0],
                self.reasons.buffer_info()[0],
                self._seen.buffer_info()[0],
                refs.buffer_info()[0],
                units.buffer_info()[0],
                shortened.buffer_info()[0],
                pairs.buffer_info()[0],
                out.buffer_info()[0],
            )
            arena_len, records, unit_count, short_count, pair_count, offset = out
            del arena[arena_len:]
            stats.initial_clauses += stop - start
            self._pristine.extend(map(list, clauses[start:stop]))
            if records:
                self.clause_act.frombytes(bytes(8 * records))
                self.clause_birth += [0] * records
                self.clauses += refs[:records].tolist()
                stats.peak_clauses = max(
                    stats.peak_clauses, len(self.clauses) + len(self.learned)
                )
            self.trail.extend(units[:unit_count])
            if self.proof is not None:
                # A repeated literal or level-0 stripping shortened these
                # records; see add_clause.
                for ref in shortened[:short_count]:
                    self.log_proof_add(self._ref_literals(ref))
            self._add_binaries(pairs, pair_count)
            start = stop
            if stop < count:
                self.add_clause(clauses[stop])
                start += 1
                offset += sizes[stop]
        return start

    def _add_binaries(self, pairs: array, count: int) -> None:
        """Append ``count`` binary literal pairs to the implication lists."""
        implications = self.binary_implications
        end = 2 * count
        for first, second in zip(pairs[0:end:2], pairs[1:end:2]):
            implications[first].append(second)
            implications[second].append(first)

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
        # Restore on touch: a new clause naming an eliminated variable
        # brings that variable (and, transitively, any eliminated
        # variable its stored clauses mention) back into the search.
        for literal in cleaned:
            if self._eliminated_mark[abs(literal)]:
                self._restore_variable(abs(literal))
        if not self.ok:
            return False

        # Reduce against permanent (level-0) assignments.
        remaining: list[int] = []
        for literal in (encode_literal(lit) for lit in cleaned):
            value = self.lit_value[literal]
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
        if len(remaining) < len(literals):
            # A repeated literal or level-0 stripping shortened the stored
            # form.  Log it (RUP via the level-0 units), so that a later
            # deletion names a clause the proof's database holds.
            self.log_proof_add(remaining)
        ref = self._push_record(remaining, learned=False)
        self.clauses.append(ref)
        self._attach_ref(ref)
        self.stats.peak_clauses = max(
            self.stats.peak_clauses, len(self.clauses) + len(self.learned)
        )
        return self.ok

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

    def _enqueue(self, literal: int, reason: int | None) -> None:
        """Assign ``literal`` true at the current level.

        ``reason`` is ``None`` for decisions and assumptions, or the ref
        of the implying record; the reasons vector stores ``-1`` for
        "no reason" because the kernels index it as int32.
        """
        variable = literal >> 1
        self.assigns[variable] = (literal & 1) ^ 1
        self.lit_value[literal] = TRUE
        self.lit_value[literal ^ 1] = FALSE
        self.levels[variable] = len(self.trail_limits)
        self.reasons[variable] = -1 if reason is None else reason
        self.trail.append(literal)
        if reason is not None:
            self.stats.propagations += 1

    def reason_literals(self, variable: int) -> list[int] | None:
        """The reason clause of ``variable`` as a literal list, implied first.

        Returns ``None`` for decisions and assumptions.  Only meaningful
        while ``variable`` is assigned.
        """
        reason = self.reasons[variable]
        if reason < 0:
            return None
        literals = self._ref_literals(reason)
        implied = (variable << 1) | (self.assigns[variable] ^ 1)
        position = literals.index(implied)
        if position:  # contract: the implied literal leads
            literals[0], literals[position] = literals[position], literals[0]
        return literals

    def _backtrack(self, target_level: int) -> None:
        """Undo every assignment above ``target_level``."""
        if self.current_level() <= target_level:
            return
        limit = self.trail_limits[target_level]
        if self._kernel_backtrack is not None:
            self._kernel_backtrack(
                self._tables_address, self.trail.buffer_info()[0], limit, len(self.trail)
            )
        else:
            assigns = self.assigns
            lit_value = self.lit_value
            reasons = self.reasons
            for index in range(len(self.trail) - 1, limit - 1, -1):
                literal = self.trail[index]
                variable = literal >> 1
                assigns[variable] = UNASSIGNED
                lit_value[literal] = UNASSIGNED
                lit_value[literal ^ 1] = UNASSIGNED
                reasons[variable] = -1
        del self.trail[limit:]
        del self.trail_limits[target_level:]
        self.qhead = limit
        # Undoing assignments can unsatisfy clauses anywhere in the stack.
        self.search_cursor = len(self.learned) - 1

    # ==================================================================
    # Boolean constraint propagation
    # ==================================================================
    def _propagate(self) -> int | None:
        """Propagate to fixpoint over the watch chains.

        Returns ``None`` at fixpoint or the conflicting record's ref
        (callers only test ``is not None``; ref 0 is a valid conflict
        value).  Dispatches to the compiled kernel when one loaded; the
        pure-Python walk below implements the identical semantics over
        the identical buffers, so the trajectory does not depend on
        which one ran.
        """
        trail = self.trail
        if self._kernel is not None:
            if self.qhead == len(trail):
                return None
            implied = self._kernel(
                self._tables_address,
                self.arena.buffer_info()[0],
                trail.buffer_info()[0],
                self.qhead,
                len(trail),
                len(self.trail_limits),
            )
            if implied:
                trail.extend(self._scratch[:implied])
            self.stats.propagations += implied
            self.qhead = len(trail)
            conflict = self._kernel_out[0]
            return conflict if conflict >= 0 else None

        levels = self.levels
        reasons = self.reasons
        assigns = self.assigns
        watch_head = self.watch_head
        lit_value = self.lit_value
        arena = self.arena
        level = len(self.trail_limits)  # constant: decisions happen outside
        propagations = 0
        qhead = self.qhead
        trail_append = trail.append
        while qhead < len(trail):
            false_literal = trail[qhead] ^ 1
            qhead += 1
            prev = -1  # -1: the predecessor field is watch_head itself
            node = watch_head[false_literal]
            while node != -1:
                ref = node >> 1
                next_field = ref + 4 + 2 * (node & 1)
                next_node = arena[next_field]
                if lit_value[arena[next_field + 1]] == 1:
                    # Blocker true: satisfied, record body untouched.
                    prev = next_field
                    node = next_node
                    continue
                if arena[ref + 1] & _DEAD:
                    # Deleted record: unlink lazily in passing.
                    if prev < 0:
                        watch_head[false_literal] = next_node
                    else:
                        arena[prev] = next_node
                    node = next_node
                    continue
                base = ref + _HDR
                other = arena[base + 1 - (node & 1)]  # the companion watch
                other_value = lit_value[other]
                if other_value == 1:  # satisfied: refresh the blocker
                    arena[next_field + 1] = other
                    prev = next_field
                    node = next_node
                    continue
                # Circular replacement search from the saved offset.
                end = base + arena[ref]
                saved = base + arena[ref + 3]
                scan = saved
                found = -1
                while scan < end:
                    if lit_value[arena[scan]] != 0:  # TRUE/UNASSIGNED
                        found = scan
                        break
                    scan += 1
                if found < 0:
                    scan = base + 2
                    while scan < saved:
                        if lit_value[arena[scan]] != 0:
                            found = scan
                            break
                        scan += 1
                if found >= 0:
                    # Move this watch slot to the replacement literal.
                    candidate = arena[found]
                    arena[found] = false_literal
                    arena[base + (node & 1)] = candidate
                    arena[ref + 3] = found - base
                    if prev < 0:
                        watch_head[false_literal] = next_node
                    else:
                        arena[prev] = next_node
                    arena[next_field] = watch_head[candidate]
                    arena[next_field + 1] = other
                    watch_head[candidate] = node
                    node = next_node
                    continue
                if other_value == 0:  # companion false too: conflict
                    self.qhead = len(trail)
                    self.stats.propagations += propagations
                    return ref
                # Unit: imply the companion watch.
                variable = other >> 1
                assigns[variable] = (other & 1) ^ 1
                lit_value[other] = TRUE
                lit_value[other ^ 1] = FALSE
                levels[variable] = level
                reasons[variable] = ref
                trail_append(other)
                propagations += 1
                arena[next_field + 1] = other
                prev = next_field
                node = next_node
        self.qhead = qhead
        self.stats.propagations += propagations
        return None

    # ==================================================================
    # Conflict analysis (first UIP, Section 2)
    # ==================================================================
    def _analyze(self, conflict: int) -> tuple[list[int], int]:
        """Derive the first-UIP conflict clause and the backjump level.

        Also performs all activity bookkeeping: ``clause_activity`` on
        every *responsible* learned clause, ``var_activity`` per the
        configured sensitivity rule (Section 4), ``lit_activity`` on the
        literals of the deduced conflict clause (Section 7), and the
        Chaff literal counters.  This is the pure-Python reference; with
        the C kernels loaded the search runs :meth:`_fused_conflict`
        instead.
        """
        config = self.config
        seen = self._seen
        levels = self.levels
        var_activity = self.var_activity
        bump_responsible = config.bump_responsible_clauses
        learnt, to_clear = self._analyze_resolve(conflict, len(self.trail_limits))

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
                var_activity[literal >> 1] += 1
        lit_activity = self.lit_activity
        vsids = self.vsids
        for literal in learnt:
            lit_activity[literal] += 1
            vsids[literal] += 1

        for variable in to_clear:
            seen[variable] = False
        return learnt, backtrack_level

    def _fused_conflict(self, conflict: int, level: int) -> tuple[list[int], int, int]:
        """:meth:`_analyze`, the LBD and :meth:`_backtrack` in one kernel call.

        ``level`` is the conflict's decision level.  Returns ``(learnt,
        lbd, backtrack_level)`` with the assignments above the backjump
        level undone; the caller records the clause next, which also
        resets the top-clause cursor.
        """
        config = self.config
        trail = self.trail
        size = self._kernel_conflict(
            self._tables_address,
            self.arena.buffer_info()[0],
            trail.buffer_info()[0],
            self.clause_act.buffer_info()[0],
            conflict,
            len(trail),
            level,
            config.bump_responsible_clauses | config.clause_minimization << 1,
        )
        if size < 0:
            raise SolverInternalError("missing reason during conflict analysis")
        backtrack_level, lbd, cut = self._kernel_out[:3]
        del trail[cut:]
        del self.trail_limits[backtrack_level:]
        self.qhead = cut
        return self._learnt_out[:size].tolist(), lbd, backtrack_level

    def _analyze_resolve(self, conflict: int, current_level: int):
        """The first-UIP resolution walk of :meth:`_analyze`.

        Returns ``(learnt, to_clear)`` with every variable in
        ``to_clear`` still marked in ``_seen``; :meth:`_analyze` owns the
        tail.  The resolved-upon literal is skipped by variable
        comparison rather than by position (watch chains forbid moving
        it to slot 0).
        """
        seen = self._seen
        levels = self.levels
        trail = self.trail
        reasons = self.reasons
        arena = self.arena
        clause_act = self.clause_act
        var_activity = self.var_activity
        bump_responsible = self.config.bump_responsible_clauses

        learnt = self._learnt_buffer
        learnt.clear()
        learnt.append(0)  # position 0 reserved for the asserting literal
        to_clear = self._to_clear_buffer
        to_clear.clear()

        clause = conflict
        unresolved = 0
        index = len(trail) - 1
        resolved_variable = -1  # first iteration: every literal participates

        while True:
            if clause < 0:
                raise SolverInternalError("missing reason during conflict analysis")
            ref = clause
            if arena[ref + 1] & _LEARNED:
                clause_act[arena[ref + 2]] += 1
            base = ref + _HDR
            end = base + arena[ref]
            if bump_responsible:
                for position in range(base, end):
                    var_activity[arena[position] >> 1] += 1
            for position in range(base, end):
                literal = arena[position]
                variable = literal >> 1
                if variable == resolved_variable:
                    continue  # the literal this resolution removes
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
            resolved_variable = variable
            clause = reasons[variable]
            seen[variable] = False
            unresolved -= 1
            index -= 1
            if unresolved == 0:
                break
        learnt[0] = asserting ^ 1
        return learnt, to_clear

    def _minimize(self, learnt: list[int]) -> list[int]:
        """Self-subsumption minimization (extension; off by default).

        A non-asserting literal is redundant when every literal of its
        reason clause is already in the learnt clause (or at level 0).
        Requires the ``seen`` flags of the learnt literals, which
        :meth:`_analyze` has not cleared yet at the call site.
        """
        seen = self._seen
        levels = self.levels
        arena = self.arena
        minimized = [learnt[0]]
        for literal in learnt[1:]:
            ref = self.reasons[literal >> 1]
            if ref < 0:
                minimized.append(literal)
                continue
            base = ref + _HDR
            redundant = True
            for position in range(base, base + arena[ref]):
                variable = arena[position] >> 1
                if variable == literal >> 1:
                    continue
                if not seen[variable] and levels[variable] > 0:
                    redundant = False
                    break
            if not redundant:
                minimized.append(literal)
        return minimized

    # ==================================================================
    # Learning and aging
    # ==================================================================
    def _record_learned(self, learnt: list[int], lbd: int = 0) -> None:
        """Push the conflict clause and assert its first literal.

        ``lbd`` is the literal-block distance measured at conflict time
        (before backtracking erased the levels); it is stamped on the
        record so quality-based retention can filter by glue later.
        """
        self.stats.learned_total += 1
        self.log_proof_add(learnt)
        if len(learnt) == 1:
            self.stats.learned_units += 1
            self._enqueue(learnt[0], None)
        else:
            ref = self._push_record(learnt, learned=True, lbd=lbd)
            self.learned.append(ref)
            self._attach_ref(ref)
            self._enqueue(learnt[0], ref)
        self.search_cursor = len(self.learned) - 1
        self.stats.peak_clauses = max(
            self.stats.peak_clauses, len(self.clauses) + len(self.learned)
        )

    def _decay_activities(self) -> None:
        """Age all activity counters (Chaff's aging, adopted by BerkMin).

        Mutates in place, so every holder of the vectors keeps its
        reference.
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

    # ==================================================================
    # Decisions (Sections 5 and 6) and top-clause phases (Section 7)
    # ==================================================================
    # Each strategy returns the encoded literal to decide next, or
    # ``None`` when every (non-eliminated) variable is assigned:
    #
    # * berkmin — the paper's contribution: the most active free variable
    #   of the *current top clause* (the unsatisfied conflict clause
    #   closest to the top of the chronological stack), falling back to
    #   the global choice when every conflict clause is satisfied;
    # * global — the Table 2 "less_mobility" ablation: always the
    #   globally most active free variable (activities still BerkMin's);
    # * vsids — the Chaff baseline: the free literal with the highest
    #   counter is set true;
    # * random — uniform random variable and phase.
    def _choose(self) -> int | None:
        """The next decision literal per ``config.decision_strategy``."""
        strategy = self.config.decision_strategy
        if strategy == cfg.DECISION_BERKMIN:
            if self._kernel_decide is not None:
                return self._fused_decision(True)
            return self._berkmin_decision()
        if strategy == cfg.DECISION_GLOBAL:
            if self._kernel_decide is not None:
                return self._fused_decision(False)
            return self._global_decision()
        if strategy == cfg.DECISION_VSIDS:
            return self._vsids_decision()
        if strategy == cfg.DECISION_RANDOM:
            return self._random_decision()
        raise ValueError(f"unknown decision strategy {strategy!r}")

    def _next_unsat(self, index: int) -> int:
        """Topmost learned-stack index <= ``index`` whose record is not
        satisfied, or -1."""
        learned = self.learned
        lit_value = self.lit_value
        arena = self.arena
        while index >= 0:
            ref = learned[index]
            base = ref + _HDR
            satisfied = False
            for position in range(base, base + arena[ref]):
                if lit_value[arena[position]] == 1:
                    satisfied = True
                    break
            if not satisfied:
                return index
            index -= 1
        return -1

    def _berkmin_decision(self) -> int | None:
        """Branch on the current top clause; fall back to the global choice.

        The search for the top clause starts at ``search_cursor`` rather
        than the true top of the stack: between two consecutive
        decisions (no backtracking in between) clauses only *gain*
        satisfied literals, so anything above the cursor is still
        satisfied.  The cursor is reset to the top whenever assignments
        are undone or a new clause is pushed.  The *recorded*
        skin-effect distance (Table 3) is always measured from the true
        top.  With ``top_clause_window > 1`` (the Remark 2 extension)
        the most active free variable across that many unsatisfied top
        clauses wins; phase is decided on the topmost clause holding it.
        This is the pure-Python reference; with the C kernels loaded the
        search runs :meth:`_fused_decision` instead.
        """
        learned = self.learned
        top = len(learned) - 1
        index = min(self.search_cursor, top)
        window = self.config.top_clause_window
        collected: list[int] = []  # unsatisfied refs, topmost first
        while index >= 0:
            index = self._next_unsat(index)
            if index < 0:
                break
            if not collected:
                self.search_cursor = index
                self._note_top_clause_decision(top - index)
            collected.append(learned[index])
            if len(collected) >= window:
                break
            index -= 1
        if not collected:
            self.search_cursor = -1
            return self._global_decision()

        arena = self.arena
        assigns = self.assigns
        activity = self.var_activity
        best_variable = -1
        best_ref = -1
        best_score = -1
        for ref in collected:
            base = ref + _HDR
            for position in range(base, base + arena[ref]):
                variable = arena[position] >> 1
                if assigns[variable] == UNASSIGNED and activity[variable] > best_score:
                    best_score = activity[variable]
                    best_variable = variable
                    best_ref = ref
        return self._top_clause_literal(best_variable, best_ref)

    def _fused_decision(self, top_clause: bool) -> int | None:
        """A ``berkmin`` (``top_clause``) or ``global`` decision, one kernel call.

        The kernel runs :meth:`_berkmin_decision`'s scan, from the same
        cursor, or :meth:`_most_active_free`'s; the phase choice and the
        counting stay here.
        """
        learned = self.learned
        top = len(learned) - 1
        variable = self._kernel_decide(
            self._tables_address,
            self.arena.buffer_info()[0],
            learned.buffer_info()[0],
            min(self.search_cursor, top) if top_clause else -1,
            self.config.top_clause_window,
            self.num_variables,
        )
        index = self._kernel_out[0]
        if index >= 0:
            self.search_cursor = index
            self._note_top_clause_decision(top - index)
            return self._top_clause_literal(variable, self._kernel_out[1])
        if top_clause:
            self.search_cursor = -1
        return self._formula_decision(variable if variable >= 0 else None)

    def _note_top_clause_decision(self, distance: int) -> None:
        """Count a decision on the unsatisfied clause ``distance`` below the top."""
        self.stats.top_clause_decisions += 1
        self.stats.record_skin_distance(distance)
        if self.trace is not None:
            self.last_decision_source = "top_clause"
            self.last_skin_distance = distance

    def _global_decision(self) -> int | None:
        """Globally most active free variable, phase by ``formula_phase``."""
        return self._formula_decision(self._most_active_free())

    def _formula_decision(self, variable: int | None) -> int | None:
        """The formula-level decision on ``variable`` (None: every one assigned)."""
        if variable is None:
            return None
        self.stats.formula_decisions += 1
        if self.trace is not None:
            self.last_decision_source = "global"
            self.last_skin_distance = None
        return formula_literal(self, variable)

    def _top_clause_literal(self, variable: int, ref: int) -> int:
        """The first branch of a decision on the top clause ``ref`` (Section 7).

        BerkMin *symmetrizes* the database: it explores first the
        assignment whose refutation would produce conflict clauses
        containing the less active literal of the variable.  Table 4's
        alternatives (sat_top, unsat_top, take_0, take_1, take_rand) are
        selected by ``config.top_clause_phase``.  ``variable`` is -1
        when the scan found no free variable in an unsatisfied clause,
        which a conflict-free trail rules out.
        """
        if variable < 0:
            raise AssertionError(
                "unsatisfied, non-conflicting clause must have a free variable"
            )
        heuristic = self.config.top_clause_phase
        positive = 2 * variable
        negative = positive + 1

        if heuristic == cfg.PHASE_SYMMETRIZE:
            positive_activity = self.lit_activity[positive]
            negative_activity = self.lit_activity[negative]
            if positive_activity < negative_activity:
                # Branch x = 0 first: conflict clauses deduced there contain
                # the positive literal, raising its lagging lit_activity.
                return negative
            if negative_activity < positive_activity:
                return positive
            return self.rng.choice((positive, negative))

        if heuristic in (cfg.PHASE_SAT_TOP, cfg.PHASE_UNSAT_TOP):
            arena = self.arena
            base = ref + _HDR
            literal_in_clause = next(
                arena[position]
                for position in range(base, base + arena[ref])
                if arena[position] >> 1 == variable
            )
            if heuristic == cfg.PHASE_SAT_TOP:
                return literal_in_clause
            return literal_in_clause ^ 1

        if heuristic == cfg.PHASE_TAKE_0:
            return negative
        if heuristic == cfg.PHASE_TAKE_1:
            return positive
        if heuristic == cfg.PHASE_TAKE_RAND:
            return self.rng.choice((positive, negative))
        raise ValueError(f"unknown top-clause phase heuristic {heuristic!r}")

    def _most_active_free(self) -> int | None:
        """Most active unassigned, non-eliminated variable.

        The naive linear scan of the paper's experiments (Remark 1); ties
        break toward smaller indices.
        """
        assigns = self.assigns
        eliminated = self._eliminated_mark
        activity = self.var_activity
        best_variable = None
        best_score = -1
        for variable in range(1, self.num_variables + 1):
            if (
                assigns[variable] == UNASSIGNED
                and not eliminated[variable]
                and activity[variable] > best_score
            ):
                best_score = activity[variable]
                best_variable = variable
        return best_variable

    def _vsids_decision(self) -> int | None:
        """Chaff-style decision: free literal with the highest counter, set true."""
        assigns = self.assigns
        counters = self.vsids
        eliminated = self._eliminated_mark
        best_literal = -1
        best_score = -1
        for variable in range(1, self.num_variables + 1):
            if assigns[variable] != UNASSIGNED or eliminated[variable]:
                continue
            positive = 2 * variable
            if counters[positive] > best_score:
                best_score = counters[positive]
                best_literal = positive
            if counters[positive + 1] > best_score:
                best_score = counters[positive + 1]
                best_literal = positive + 1
        if best_literal < 0:
            return None
        self.stats.formula_decisions += 1
        if self.trace is not None:
            self.last_decision_source = "vsids"
            self.last_skin_distance = None
        return best_literal

    def _random_decision(self) -> int | None:
        """Uniform random free variable, uniform random phase."""
        assigns = self.assigns
        eliminated = self._eliminated_mark
        free = [
            variable
            for variable in range(1, self.num_variables + 1)
            if assigns[variable] == UNASSIGNED and not eliminated[variable]
        ]
        if not free:
            return None
        self.stats.formula_decisions += 1
        if self.trace is not None:
            self.last_decision_source = "random"
            self.last_skin_distance = None
        variable = self.rng.choice(free)
        return 2 * variable + self.rng.randint(0, 1)

    # ==================================================================
    # Restarts: database reduction (Section 8), inprocessing, GC
    # ==================================================================
    def _restart(self) -> bool:
        """Abandon the search tree; reduce and inprocess; return ``self.ok``."""
        self.stats.restarts += 1
        self._backtrack(0)
        mark_every = self.config.mark_every_n_restarts
        if mark_every and self.stats.restarts % mark_every == 0 and self.learned:
            self.arena[self.learned[-1] + 1] |= _PROTECTED
        # Bring level 0 to fixpoint before reducing: a unit conflict clause
        # learned just before the restart may not have propagated yet.
        conflict = self._propagate()
        if conflict is not None:
            self.ok = False
            self.log_proof_add([])
            return False
        self._reduce_database()
        interval = self.config.inprocess_interval
        if interval > 0 and self.stats.restarts % interval == 0 and self.ok:
            self._inprocess()
            if not self.ok:
                return False
        self._maybe_collect()
        return self.ok

    def _reduce_database(self) -> None:
        """One database reduction, run at decision level 0 by every restart.

        In order: policy-based deletion of learned clauses
        (:meth:`_apply_deletion_policy`); "automatic" removal via
        retained assignments — every clause satisfied at level 0 is
        removed and level-0-false literals are stripped from the
        survivors, the paper's memory-compaction step; and a rebuild of
        the watch chains and binary implication arrays from the
        surviving refs.
        """
        if self.current_level() != 0:
            raise AssertionError("database reduction requires decision level 0")
        self.stats.db_reductions += 1

        learned_before = len(self.learned)
        kept, breakdown = self._apply_deletion_policy()
        deleted = learned_before - len(kept)
        self.stats.learned_deleted += deleted

        if self.trace is not None:
            self.trace.emit(
                {
                    "type": "reduce",
                    "conflicts": self.stats.conflicts,
                    "learned_before": learned_before,
                    "kept": len(kept),
                    "dropped": deleted,
                    **breakdown,
                }
            )

        # Level-0 assignments are permanent: their reason clauses are never
        # consulted again (conflict analysis skips level-0 variables), and
        # the clauses themselves are satisfied and about to be removed.
        for literal in self.trail:
            self.reasons[literal >> 1] = -1
        if len(self.trail) != self._simplified_trail:
            # MiniSat's simpDB_assigns rule: with no level-0 assignment
            # since the last pass, every record is already free of
            # level-0 literals and the pass would change nothing.
            self.clauses = self._simplify_refs(self.clauses)
            kept = self._simplify_refs(kept)
            self._simplified_trail = len(self.trail)
        self.learned = array("i", kept)
        self._rebuild_from_refs()
        self.search_cursor = len(self.learned) - 1

    def _apply_deletion_policy(self) -> tuple[list[int], dict[str, int]]:
        """Select which learned records survive, per ``config.db_management``.

        * ``berkmin`` — the stack is split into *young* clauses (distance
          from the top less than ``young_fraction`` — 15/16 — of the
          stack size) and *old* ones.  A young clause survives if it is
          short (``length <= 42``) or active (``clause_activity > 7``);
          an old clause survives if ``length <= 8`` or its activity
          exceeds a threshold that starts at 60 and grows with every
          reduction, so clauses that went passive eventually disappear.
        * ``limited_keeping`` — GRASP's policy: drop every learned clause
          longer than a fixed threshold, regardless of age or activity.
        * ``keep_all`` — delete nothing.

        Under every policy the topmost clause (the paper's partial
        anti-looping fix) and every protected clause (the complete fix,
        ``mark_every_n_restarts``) survive, and so does any clause whose
        measured LBD is at most ``config.glue_keep_max_lbd`` — low-glue
        clauses keep propagating (0 disables this override, leaving the
        pure paper policy).  Returns ``(kept, breakdown)``: the surviving
        refs plus the young/old keep/drop counts for the reduce trace
        event (only the BerkMin policy has an age split).
        """
        policy = self.config.db_management
        learned = self.learned
        arena = self.arena
        glue_limit = self.config.glue_keep_max_lbd
        breakdown = {"young_kept": 0, "young_dropped": 0, "old_kept": 0, "old_dropped": 0}
        if policy == cfg.DB_KEEP_ALL or not learned:
            breakdown["young_kept"] = len(learned)
            return list(learned), breakdown

        def is_glue(flags: int) -> bool:
            lbd = flags >> _LBD_SHIFT
            return 0 < lbd <= glue_limit

        if policy == cfg.DB_LIMITED_KEEPING:
            length_limit = self.config.limited_keeping_length
            kept = []
            for index, ref in enumerate(learned):
                flags = arena[ref + 1]
                topmost = index == len(learned) - 1
                if (
                    topmost
                    or flags & _PROTECTED
                    or arena[ref] <= length_limit
                    or is_glue(flags)
                ):
                    kept.append(ref)
                    breakdown["young_kept"] += 1
                else:
                    self.log_proof_delete(ref)
                    self._kill_ref(ref)
                    breakdown["young_dropped"] += 1
            return kept, breakdown

        if policy == cfg.DB_BERKMIN:
            config = self.config
            clause_act = self.clause_act
            stack_size = len(learned)
            young_span = config.young_fraction * stack_size
            kept = []
            for index, ref in enumerate(learned):
                flags = arena[ref + 1]
                size = arena[ref]
                activity = clause_act[arena[ref + 2]]
                distance_from_top = stack_size - 1 - index
                young = distance_from_top < young_span
                if young:
                    survives = (
                        size <= config.young_length_limit
                        or activity > config.young_activity_limit
                    )
                else:
                    survives = (
                        size <= config.old_length_limit
                        or activity > self.old_threshold
                    )
                topmost = index == stack_size - 1
                if survives or topmost or flags & _PROTECTED or is_glue(flags):
                    kept.append(ref)
                    breakdown["young_kept" if young else "old_kept"] += 1
                else:
                    self.log_proof_delete(ref)
                    self._kill_ref(ref)
                    breakdown["young_dropped" if young else "old_dropped"] += 1
            # Raise the old-clause activity bar so clauses that stop
            # participating in conflicts are eventually dropped.
            self.old_threshold += config.old_threshold_increment
            return kept, breakdown

        raise ValueError(f"unknown database-management policy {policy!r}")

    def _simplify_refs(self, refs: list[int]) -> list[int]:
        """Drop satisfied records, strip false literals in place (level 0)."""
        assigns = self.assigns
        arena = self.arena
        survivors: list[int] = []
        for ref in refs:
            base = ref + _HDR
            size = arena[ref]
            satisfied = False
            has_false = False
            for position in range(base, base + size):
                literal = arena[position]
                value = assigns[literal >> 1]
                if value == UNASSIGNED:
                    continue
                if value ^ (literal & 1) == TRUE:
                    satisfied = True
                    break
                has_false = True
            if satisfied:
                self.log_proof_delete(ref)
                self._kill_ref(ref)
                continue
            if has_false:
                stripped = [
                    arena[position]
                    for position in range(base, base + size)
                    if assigns[arena[position] >> 1] == UNASSIGNED
                ]
                if len(stripped) < 2:
                    # BCP at level 0 ran to fixpoint before the reduction, so
                    # a non-satisfied clause must retain >= 2 free literals.
                    raise AssertionError("level-0 simplification produced a short clause")
                # Strengthening is add-then-delete in DRUP terms.
                self.log_proof_add(stripped)
                self.log_proof_delete(ref)
                for offset, literal in enumerate(stripped):
                    arena[base + offset] = literal
                arena[ref] = len(stripped)
                arena[ref + 3] = 2  # the shrunken record invalidates the scan offset
                self.arena_dead += size - len(stripped)
            survivors.append(ref)
        return survivors

    def _rebuild_from_refs(self) -> None:
        """Recompute the watch chains and binary arrays from the ref lists.

        Rebuilding (rather than patching) keeps the binary indexes exact
        under any deletion policy: a dropped learned binary, or a longer
        clause strengthened to binary by level-0 stripping, ends up with
        exactly the entries :meth:`_attach_ref` gives it.  With the C
        kernels loaded, ``arena_attach`` threads the watches (originals
        first, then learned, as below) and only the binary appends run
        here.
        """
        size = 2 * (self.num_variables + 1)
        self.watch_head = array("i", [-1]) * size
        self._refresh_tables()
        self.binary_implications = [[] for _ in range(size)]
        if self._kernel_attach is None:
            for ref in self.clauses:
                self._attach_ref(ref)
            for ref in self.learned:
                self._attach_ref(ref)
            return
        pairs = array("i", bytes(8 * max(len(self.clauses), len(self.learned))))
        for refs in (array("i", self.clauses), self.learned):
            count = self._kernel_attach(
                self.arena.buffer_info()[0],
                self.watch_head.buffer_info()[0],
                refs.buffer_info()[0],
                len(refs),
                pairs.buffer_info()[0],
            )
            self._add_binaries(pairs, count)

    def _maybe_collect(self) -> int:
        """Compact the arena when at least ``arena_gc_fraction`` is dead."""
        arena = self.arena
        if not arena or self.current_level() != 0:
            return 0
        if self.arena_dead < self.config.arena_gc_fraction * len(arena):
            return 0
        # Level-0 reasons are never consulted again; clearing them means
        # the ref lists are the only ref holders during the move.
        for literal in self.trail:
            self.reasons[literal >> 1] = -1
        return self._collect()

    def _collect(self) -> int:
        old = self.arena
        old_act = self.clause_act
        old_birth = self.clause_birth
        new = array("i")
        new_act: list[int] = []
        new_birth: list[int] = []

        def move(refs: list[int]) -> list[int]:
            moved = []
            for ref in refs:
                size = old[ref]
                new_ref = len(new)
                act_idx = old[ref + 2]
                # Whole-record copy: literals keep their order, so the
                # saved scan offset stays valid; the watch-node words are
                # garbage until _rebuild_from_refs relinks every chain.
                new.extend(old[ref : ref + _HDR + size])
                new[new_ref + 2] = len(new_act)
                new_act.append(old_act[act_idx])
                new_birth.append(old_birth[act_idx])
                moved.append(new_ref)
            return moved

        self.clauses = move(self.clauses)
        self.learned = array("i", move(self.learned))
        freed = len(old) - len(new)
        self.arena = new
        self.clause_act = array("d", new_act)
        self.clause_birth = new_birth
        self.arena_dead = 0
        self.stats.arena_collections += 1
        self.stats.arena_freed_words += freed
        self._rebuild_from_refs()
        self.search_cursor = len(self.learned) - 1
        return freed

    # ==================================================================
    # Inprocessing: bounded variable elimination between restarts
    # ==================================================================
    @staticmethod
    def _resolvents(
        positive: list[list[int]], negative: list[list[int]], variable: int
    ) -> list[list[int]] | None:
        """All distinct non-tautological resolvents on ``variable`` of
        DIMACS clauses; None when one of them is empty."""
        produced: list[list[int]] = []
        seen: set[tuple[int, ...]] = set()
        for pos_clause in positive:
            pos_rest = [literal for literal in pos_clause if literal != variable]
            for neg_clause in negative:
                merged = clean_clause(
                    pos_rest + [literal for literal in neg_clause if literal != -variable]
                )
                if merged is None:
                    continue  # tautology
                if not merged:
                    return None  # empty resolvent: formula refuted
                key = tuple(sorted(merged))
                if key not in seen:
                    seen.add(key)
                    produced.append(merged)
        return produced

    def _inprocess(self) -> None:
        """One bounded-variable-elimination pass at decision level 0.

        Candidates are unassigned, non-frozen variables with at most
        ``config.inprocess_occurrence_limit`` occurrences in the original
        database; each is eliminated iff its non-tautological resolvents
        do not outnumber its clauses by more than
        ``config.inprocess_max_growth`` (the NiVER rule).  Learned
        clauses that mention an eliminated variable are deleted (always
        sound, and required so search never re-constrains the variable).
        DRUP: every resolvent is logged as an addition (single resolution
        steps are RUP); the replaced original clauses are *not* logged as
        deletions, keeping the checker's database a superset.
        """
        started = time.perf_counter()
        arena = self.arena
        assigns = self.assigns
        limit = self.config.inprocess_occurrence_limit
        max_growth = self.config.inprocess_max_growth
        frozen = self._frozen
        conflicted = False

        # Occurrence index over the live original records.
        occurrences: dict[int, list[int]] = {}
        for ref in self.clauses:
            base = ref + _HDR
            for position in range(base, base + arena[ref]):
                occurrences.setdefault(arena[position] >> 1, []).append(ref)

        candidates = sorted(
            (
                variable
                for variable, refs in occurrences.items()
                if len(refs) <= limit
                and assigns[variable] == UNASSIGNED
                and variable not in frozen
                and not self._eliminated_mark[variable]
            ),
            key=lambda variable: (len(occurrences[variable]), variable),
        )

        eliminated_now: list[int] = []
        for variable in candidates:
            if conflicted:
                break
            if assigns[variable] != UNASSIGNED:
                continue  # assigned by a unit resolvent earlier in the pass
            live = [
                ref
                for ref in occurrences.get(variable, ())
                if not (arena[ref + 1] & _DEAD)
            ]
            if not live or len(live) > limit:
                continue
            positive: list[list[int]] = []
            negative: list[list[int]] = []
            for ref in live:
                dimacs = [decode_literal(lit) for lit in self._ref_literals(ref)]
                if variable in dimacs:
                    positive.append(dimacs)
                else:
                    negative.append(dimacs)
            resolvents = self._resolvents(positive, negative, variable)
            if resolvents is None:
                # Impossible while every stored record has >= 2 literals
                # (an empty resolvent needs two opposing unit clauses).
                raise SolverInternalError("empty resolvent from non-unit clauses")
            if len(resolvents) > len(live) + max_growth:
                continue

            # Commit the elimination before inserting resolvents so the
            # stored clauses survive even if a unit resolvent refutes the
            # formula mid-pass.
            for ref in live:
                self._kill_ref(ref)
            eliminated_now.append(variable)
            self._eliminated.append((variable, positive + negative))
            self._eliminated_mark[variable] = True
            for resolvent in resolvents:
                encoded = [encode_literal(lit) for lit in resolvent]
                self.log_proof_add(encoded)
                if len(encoded) == 1:
                    literal = encoded[0]
                    value = self.lit_value[literal]
                    if value == UNASSIGNED:
                        self._enqueue(literal, None)
                    elif value != TRUE:
                        # Contradicts an earlier level-0 unit: refuted.
                        self.ok = False
                        self.log_proof_add([])
                        conflicted = True
                        break
                else:
                    ref = self._push_record(encoded, learned=False)
                    self.clauses.append(ref)
                    for lit in resolvent:
                        occurrences.setdefault(abs(lit), []).append(ref)

        if eliminated_now:
            # Sweep learned clauses that mention an eliminated variable.
            gone = set(eliminated_now)
            kept_learned: list[int] = []
            swept = 0
            for ref in self.learned:
                base = ref + _HDR
                touches = any(
                    (arena[position] >> 1) in gone
                    for position in range(base, base + arena[ref])
                )
                if touches:
                    self.log_proof_delete(ref)
                    self._kill_ref(ref)
                    swept += 1
                else:
                    kept_learned.append(ref)
            self.stats.learned_deleted += swept
            self.learned = array("i", kept_learned)
            self.clauses = [
                ref for ref in self.clauses if not (arena[ref + 1] & _DEAD)
            ]
            self._rebuild_from_refs()
            self.search_cursor = len(self.learned) - 1
            if not conflicted:
                conflict = self._propagate()
                if conflict is not None:
                    self.ok = False
                    self.log_proof_add([])
            self.stats.eliminated_variables += len(eliminated_now)

        self.stats.inprocess_passes += 1
        freed = self._maybe_collect()
        if self.trace is not None:
            self.trace.emit(
                {
                    "type": "inprocess",
                    "conflicts": self.stats.conflicts,
                    "eliminated": len(eliminated_now),
                    "freed_words": freed,
                    "wall_ms": round((time.perf_counter() - started) * 1000.0, 3),
                }
            )

    def _restore_variable(self, variable: int) -> None:
        """Un-eliminate ``variable`` (and transitively its dependencies).

        Re-adds the stored original clauses, reduced against the current
        level-0 assignments.  Unstripped re-adds need no proof action
        (the clauses were never deleted from the DRUP database); a
        stripped re-add is logged as an addition, which is RUP via the
        level-0 units.
        """
        worklist = [variable]
        while worklist:
            target = worklist.pop()
            if not self._eliminated_mark[target]:
                continue
            position = next(
                index
                for index in range(len(self._eliminated) - 1, -1, -1)
                if self._eliminated[index][0] == target
            )
            _, stored = self._eliminated.pop(position)
            self._eliminated_mark[target] = False
            for clause in stored:
                # Stored clauses may mention variables eliminated later.
                for literal in clause:
                    if self._eliminated_mark[abs(literal)]:
                        worklist.append(abs(literal))
                encoded = [encode_literal(lit) for lit in clause]
                remaining: list[int] = []
                satisfied = False
                for literal in encoded:
                    value = self.lit_value[literal]
                    if value == TRUE:
                        satisfied = True
                        break
                    if value == UNASSIGNED:
                        remaining.append(literal)
                if satisfied:
                    continue
                if not remaining:
                    self.ok = False
                    self.log_proof_add([])
                    return
                if len(remaining) < len(encoded):
                    self.log_proof_add(remaining)
                if len(remaining) == 1:
                    self._enqueue(remaining[0], None)
                    continue
                ref = self._push_record(remaining, learned=False)
                self.clauses.append(ref)
                self._attach_ref(ref)


    # ==================================================================
    # Proof logging
    # ==================================================================
    def log_proof_add(self, encoded_literals: Sequence[int]) -> None:
        """Record a clause addition in the DRUP trace (no-op when logging is off)."""
        if self.proof is not None:
            self.proof.append(("a", [decode_literal(lit) for lit in encoded_literals]))

    def log_proof_delete(self, ref: int) -> None:
        """Record the deletion of record ``ref`` (no-op when logging is off)."""
        if self.proof is not None:
            self._flush_level0_proof_units()
            self.proof.append(
                ("d", [decode_literal(lit) for lit in self._ref_literals(ref)])
            )

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
        counters, the level-0 trail, the RNG state, the statistics, the
        inprocessed database, and the proof trace (when logging) —
        everything a fresh solver on the same formula needs to continue
        this search instead of restarting it.  Safe to call mid-search
        from ``on_progress``.
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

    def _learned_snapshot_rows(self) -> list[tuple[list[int], int, int, bool]]:
        """``(encoded_literals, activity, birth, protected)`` rows for capture."""
        arena = self.arena
        return [
            (
                self._ref_literals(ref),
                int(self.clause_act[arena[ref + 2]]),
                self.clause_birth[arena[ref + 2]],
                bool(arena[ref + 1] & _PROTECTED),
            )
            for ref in self.learned
        ]

    def _learned_lbds(self) -> list[int]:
        """Per-clause LBD stamps, parallel to :meth:`_learned_snapshot_rows`."""
        return [self.arena[ref + 1] >> _LBD_SHIFT for ref in self.learned]

    def _arena_snapshot_payload(self) -> dict:
        """The inprocessed database: active originals + elimination stack.

        The snapshot's learned rows cover the learned stack; this payload
        carries what a fresh solver cannot rebuild from the pristine
        formula alone — which original clauses are currently live (some
        were replaced by resolvents) and the eliminated-variable stack
        for model reconstruction.
        """
        return {
            "active": [self._ref_literals(ref) for ref in self.clauses],
            "eliminated": [
                [variable, [list(clause) for clause in stored]]
                for variable, stored in self._eliminated
            ],
        }

    def _install_arena_state(self, payload: dict) -> None:
        """Swap in a snapshot's active database (restore-time hook).

        Called after formula load and validation, before the trail is
        replayed: the records built from the pristine formula are
        replaced wholesale by the snapshot's post-inprocessing database.
        Level-0 assignments (from unit clauses) are untouched.
        """
        size = 2 * (self.num_variables + 1)
        self.arena = array("i")
        self.arena_dead = 0
        self.clause_act = array("d")
        self.clause_birth = []
        self.clauses = []
        self.learned = array("i")
        self.watch_head = array("i", [-1]) * size
        self._refresh_tables()
        self.binary_implications = [[] for _ in range(size)]
        for literals in payload["active"]:
            ref = self._push_record([int(lit) for lit in literals], learned=False)
            self.clauses.append(ref)
            self._attach_ref(ref)
        self._eliminated = [
            (int(variable), [[int(lit) for lit in clause] for clause in stored])
            for variable, stored in payload["eliminated"]
        ]
        for variable, _ in self._eliminated:
            self._eliminated_mark[variable] = True
        self.search_cursor = -1

    def _restore_learned_clause(
        self, ordered: list[int], activity: int, birth: int, protected: bool, lbd: int
    ) -> None:
        """Re-attach one learned clause during snapshot restore.

        ``ordered`` already surfaces two non-false literals first (the
        restore loop's watch-ordering contract).
        """
        ref = self._push_record(list(ordered), learned=True, lbd=lbd, birth=birth)
        arena = self.arena
        if protected:
            arena[ref + 1] |= _PROTECTED
        self.clause_act[arena[ref + 2]] = activity
        self.learned.append(ref)
        self._attach_ref(ref)

    # ==================================================================
    # Learned-clause views for the session layer
    # ==================================================================
    def retain_learned_by_lbd(self, limit: int | None) -> tuple[int, int]:
        """Filter the learned stack by glue; returns ``(kept, dropped)``.

        The session layer's between-call retention pass: clauses whose
        measured LBD exceeds ``limit`` are deleted (DRUP-logged), except
        the topmost and protected clauses (the paper's anti-looping
        rules) and clauses with LBD 0 ("never measured").  ``limit is
        None`` keeps everything.  Runs at decision level 0, clears the
        never-consulted-again level-0 reasons, and rebuilds the watch
        structures when anything was dropped.
        """
        if not self.ok:
            return (len(self.learned), 0)
        if self.current_level() > 0:
            self._backtrack(0)
        learned = self.learned
        if not learned:
            return (0, 0)
        arena = self.arena
        top = len(learned) - 1
        kept: list[int] = []
        dropped = 0
        for index, ref in enumerate(learned):
            flags = arena[ref + 1]
            keep = (
                limit is None
                or index == top
                or flags & _PROTECTED
                or (flags >> _LBD_SHIFT) <= limit  # lbd 0 ("never measured") keeps
            )
            if keep:
                kept.append(ref)
            else:
                self.log_proof_delete(ref)
                self._kill_ref(ref)
                dropped += 1
        if dropped:
            self.stats.learned_deleted += dropped
            for literal in self.trail:
                self.reasons[literal >> 1] = -1
            self.learned = array("i", kept)
            self._rebuild_from_refs()
            self.search_cursor = len(self.learned) - 1
            self._maybe_collect()
        self.stats.retained_clauses += len(kept)
        return (len(kept), dropped)

    # ==================================================================
    # Shared-clause import gate (see repro.parallel.sharing)
    # ==================================================================
    def _lemma_defect(self, dimacs_literals) -> tuple[str, str] | None:
        """Why an imported clause cannot attach here, or None when it can.

        Returns ``(reason, severity)`` for an empty clause, a variable
        past the tables, an eliminated variable or a literal assigned at
        level 0.  A clause that passes (and the RUP probe) is attached
        as it stands by :meth:`_import_shared`; units are accepted too —
        an imported level-0 fact is the most valuable share of all.
        Severity "hard" marks defects an honest exporter on the same
        formula can never produce (Byzantine evidence); "benign" marks
        importer-local conditions — a level-0 assignment this lane has
        already made, or a variable this lane's NiVER pass eliminated
        (the exporter's inprocessing ran on a different schedule) — that
        say nothing about the sender.
        """
        if not dimacs_literals:
            return ("short-clause", "hard")
        for literal in dimacs_literals:
            variable = abs(literal)
            if variable > self.num_variables:
                return ("out-of-range", "hard")
            if self._eliminated_mark[variable]:
                return ("eliminated-variable", "benign")
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
        the second queue hop), the lemma gate, a tautology check, then
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
            ref = self._push_record(encoded, learned=True, lbd=max(lbd, 1))
            self.learned.append(ref)
            self._attach_ref(ref)
            self.log_proof_add(encoded)
            stats.shared_imported += 1
            attached += 1
        return attached

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
        self._frozen = frozenset()
        trace = self.trace
        try:
            if assumptions:
                # Assumption variables must stay in the search: restore
                # any that inprocessing eliminated, and freeze them for
                # this call.
                frozen = set()
                for literal in assumptions:
                    variable = abs(int(literal))
                    if variable:
                        frozen.add(variable)
                        if (
                            variable <= self.num_variables
                            and self._eliminated_mark[variable]
                        ):
                            self._backtrack(0)
                            self._restore_variable(variable)
                self._frozen = frozenset(frozen)
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
            # Each decision level past the assumptions assigns a new
            # variable, so this bounds the levels the LBD marks index.
            max_level = self.num_variables + len(assumption_literals) + 1
            if len(self._level_marks) <= max_level:
                self._size_scratch(max_level)
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
                    conflict_level = len(self.trail_limits)
                    if conflict_level == 0:
                        self.ok = False
                        self.log_proof_add([])
                        return self._result(SolveStatus.UNSAT)
                    # The LBD (distinct decision levels among the learnt
                    # literals) feeds both the conflict trace event and
                    # the glue stamp on the recorded clause.
                    if self._kernel_conflict is not None:
                        learnt, lbd, backtrack_level = self._fused_conflict(
                            conflict, conflict_level
                        )
                    else:
                        learnt, backtrack_level = self._analyze(conflict)
                        levels = self.levels
                        lbd = len({levels[lit >> 1] for lit in learnt})
                        self._backtrack(backtrack_level)
                    if trace is not None:
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
        arena = self.arena
        for index in range(len(self.trail) - 1, -1, -1):
            literal = self.trail[index]
            trail_variable = literal >> 1
            if not seen[trail_variable]:
                continue
            seen[trail_variable] = False
            ref = self.reasons[trail_variable]
            if ref < 0:
                if levels[trail_variable] > 0:
                    core.append(decode_literal(literal))
                continue
            base = ref + _HDR
            for position in range(base, base + arena[ref]):
                antecedent = arena[position]
                if antecedent >> 1 == trail_variable:
                    continue
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
        """The assignment, extended over eliminated variables.

        Reverse elimination order, standard argument: once every
        resolvent is satisfied, at most one polarity of a variable's
        stored clauses can still need it.
        """
        model = {
            variable: self.assigns[variable] == TRUE
            for variable in range(1, self.num_variables + 1)
        }
        for variable, stored in reversed(self._eliminated):
            value = None
            for clause in stored:
                clause_satisfied = False
                for literal in clause:
                    other = abs(literal)
                    if other == variable:
                        continue
                    if model.get(other, False) == (literal > 0):
                        clause_satisfied = True
                        break
                if clause_satisfied:
                    continue
                needed = any(literal == variable for literal in clause)
                if value is not None and value != needed:
                    raise SolverInternalError(
                        "inconsistent eliminated-variable reconstruction"
                    )
                value = needed
            model[variable] = bool(value) if value is not None else False
        return model

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
