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

Clause intake
-------------
Clauses enter through :meth:`Solver.add_clauses`; ``Solver(formula)``
and :meth:`Solver.add_formula` are entries into it, and
:meth:`Solver.add_clause` is a batch of one.  Every clause gets the
level-0 reduction of the paper's Section 8 "automatic removal" on its
way in: a clause satisfied at level 0 is dropped and its false literals
are stripped.  A batch travels as *words* (:mod:`repro.cnf.formula`):
zero-terminated int32 clauses, the DIMACS body itself.  A parsed
formula hands over the reader's words, and a list batch is flattened
once.  The batch is one call to the ``arena_load`` kernel, which counts
the clauses and does that work in place, and the solver keeps a copy of
the words (``_pristine``) as its record of its input.  The per-clause
Python reference, which is also what runs without the kernels and what
a single clause goes through, takes only a clause the kernel stops at
(one naming an eliminated variable, or one that refutes the formula).
Restoring an eliminated variable re-adds its stored clauses through the
reference's own reduce-and-attach step.  A literal 0 or a non-integer
in a list batch, or a variable past
:data:`~repro.cnf.literals.MAX_VARIABLES`, raises at that clause, with
the clauses before it added.

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

Proof hints
-----------
With proof logging on, every record knows its *proof id*, the name the
checker gives the clause (:mod:`repro.proof.rup`): ``-1 - i`` for the
input clause at position ``i`` of the clauses added so far, or the index
of the proof step that added it.  The ids sit in ``clause_id``, a side
array indexed like ``clause_act``, so they survive arena GC.  Beside an
addition it can justify, the solver logs in ``proof_hints`` the ids of
the clauses that make the step RUP, in propagation order: for a learned
clause, the reasons minimization used and the records the first-UIP walk
resolved on (BerkMin's responsible clauses, Section 4), each in trail
order, then the conflicting record; for a level-0 unit, its reason; for
a strengthened clause, the clause it replaces; for a NiVER resolvent,
its two parents.  A record whose clause the proof cannot name carries
:data:`NO_PROOF_ID`, which the checker treats as a missing hint.
"""

from __future__ import annotations

import math
import operator
import random
import time
from array import array
from collections.abc import Iterable, Sequence

from repro.cnf.formula import (
    CnfFormula,
    clauses_to_words,
    unsatisfied_word_clause,
    words_to_clauses,
)
from repro.cnf.literals import (
    FALSE,
    MAX_VARIABLES,
    TRUE,
    UNASSIGNED,
    decode_literal,
    encode_literal,
)
from repro.cnf.simplify import clean_clause
from repro.solver import config as cfg
from repro.solver._kernel import (
    CHOOSE_FORMULA,
    CHOOSE_TIE,
    CHOOSE_TOP,
    EXIT_CHOOSE,
    EXIT_CONFLICT,
    EXIT_DECIDED,
    EXIT_PREDECIDE,
    EXIT_ROOM,
    EXIT_SAT,
    EXIT_UNSAT,
    OPT_BUMP_RESPONSIBLE,
    OPT_DECIDE,
    OPT_HINTS,
    OPT_MINIMIZE,
    OPT_NB_TWO,
    OPT_SHARE,
    OPT_STEP,
    OPT_SYMMETRIZE,
    OPT_TOP_CLAUSE,
    RESUME_ASSUME,
    RESUME_DECIDE,
    RESUME_DECISION,
    RESUME_TOP,
    ROOM_FIELDS,
    S_ARENA_LEN,
    S_ASSUMPTIONS,
    S_BACKJUMP,
    S_BASE_DECISIONS,
    S_BIRTH,
    S_CHOICE,
    S_CLAUSE_STOP,
    S_CONFLICT_LEVEL,
    S_CONFLICT_STOP,
    S_CONFLICTS,
    S_CURSOR,
    S_DECISION_STOP,
    S_DISTANCE,
    S_FORMULA_DECISIONS,
    S_LBD,
    S_LEARNED_LEN,
    S_LEARNT_SIZE,
    S_LEVELS,
    S_LITERAL,
    S_LOG_LEN,
    S_NB_TWO_THRESHOLD,
    S_NUM_CLAUSES,
    S_NUM_VARIABLES,
    S_OPTIONS,
    S_PEAK_CLAUSES,
    S_PROOF_STEP,
    S_QHEAD,
    S_RECORDS,
    S_REF,
    S_RESUME,
    S_SKIN_LEN,
    S_SKIN_ROOM,
    S_TRAIL_LEN,
    S_TRAIL_ROOM,
    S_VARIABLE,
    S_WINDOW,
    S_WORDS,
    TABLE_FIELDS,
    AddressTable,
    load_arena_kernel,
)
from repro.solver.config import (
    PROPAGATION_ARENA,
    VERIFY_FULL,
    SolverConfig,
    berkmin_config,
)
from repro.solver.phase import formula_literal, nb_two_tie
from repro.solver.restart import RestartScheduler
from repro.solver.result import SolveResult, SolveStatus
from repro.solver.stats import SolverStats

#: Header layout (see module docstring).
_HDR = 8
_LEARNED = 1
_PROTECTED = 2
_DEAD = 4
_LBD_SHIFT = 3
#: The proof id of a record the proof cannot name: past any proof step,
#: so a hint naming it sends the checker to full propagation.
NO_PROOF_ID = 2**31 - 1
#: A count no search reaches: the search state's "no budget" bound.
_NEVER = 2**62


def _count_at(bound, strict: bool = False) -> int:
    """The least whole count at (``strict``: past) ``bound``, within ±_NEVER."""
    if bound >= _NEVER or bound <= -_NEVER:
        return _NEVER if bound > 0 else -_NEVER
    return math.floor(bound) + 1 if strict else math.ceil(bound)


def _pad(buffer: array, length: int) -> None:
    """Extend ``buffer`` with zeros to ``length`` items; never shrinks it."""
    missing = length - len(buffer)
    if missing > 0:
        buffer.frombytes(bytes(buffer.itemsize * missing))


class SolverInternalError(RuntimeError):
    """Raised when an internal invariant is violated (e.g. a bad model)."""


class Solver:
    """A configurable CDCL SAT solver reproducing BerkMin and its ablations."""

    #: Room the search loop gets past the contents of the arena (words,
    #: at least two worst-case records) and of the learned stack and the
    #: per-record side arrays (entries) whenever it runs out.
    _ROOM_WORDS = 1 << 16
    _ROOM_RECORDS = 1 << 10
    #: Length of the skin-distance log; the search loop exits at least
    #: every 512 decisions, so it never fills.
    _LOG_WORDS = 1 << 11

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
        cfg.check_verification(self.config.verification)
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

        self.trail = array("i")  # encoded literals in assignment order
        self.trail_limits = array("i")  # trail index at each decision level
        self.qhead = 0  # propagation frontier within the trail

        self.arena = array("i")
        self.arena_dead = 0  # dead words awaiting collection
        self.clause_act = array("d")
        self.clause_birth = array("i")  # birth_counter stamps, indexed like clause_act
        self.clause_id = array("i")  # proof ids, indexed like clause_act
        self.clauses: list[int] = []  # refs of the live original records
        self.learned = array("i")  # conflict-clause stack (refs), oldest first
        self.search_cursor = -1  # where the top-clause scan resumes
        self.birth_counter = 0
        self.old_threshold = self.config.old_activity_threshold
        # Level-0 trail length when _simplify_refs last ran (see
        # _reduce_database).
        self._simplified_trail = 0

        # Variable-elimination bookkeeping.  ``_eliminated`` stacks
        # ``(variable, original DIMACS clauses, their proof ids)`` in
        # elimination order for model reconstruction and restoration;
        # ``_eliminated_mark`` is the per-variable
        # membership test (a byte buffer, so the decision kernel reads
        # it too); ``_frozen`` holds the current call's assumption
        # variables (never eliminated).
        self._eliminated: list[tuple[int, list[list[int]], list[int]]] = []
        self._eliminated_mark = array("B", [0])
        self._frozen: frozenset[int] = frozenset()

        # The compiled kernels (None -> pure-Python fallbacks, identical
        # semantics), their call scratch (a BCP work queue of literals,
        # the conflict step's output buffers and proof hints, its
        # per-level LBD marks, the out-params words) and the address
        # table through which the hot ones reach the scratch and the
        # per-variable and per-literal buffers.  ``REPRO_SAT_PURE`` is
        # read per solver.
        kernel = load_arena_kernel()
        self._kernel = kernel.propagate if kernel else None
        self._kernel_search = kernel.search if kernel else None
        self._kernel_backtrack = kernel.backtrack if kernel else None
        self._kernel_load = kernel.load if kernel else None
        self._kernel_attach = kernel.attach if kernel else None
        self._kernel_out = array("i", bytes(16))
        self._scratch = array("i")
        self._learnt_out = array("i")
        self._clear_out = array("i")
        self._hint_out = array("i")
        self._level_marks = array("i")
        self._tables = AddressTable(TABLE_FIELDS) if kernel else None
        self._tables_address = self._tables.address if kernel else None
        self._size_scratch(1)
        # The search loop's state words (both engines leave the ones
        # solve() reads at an exit there), its room table and logs (see
        # _open_room), and whether the room is open.
        self._state = array("q", bytes(8 * S_WORDS))
        self._state_address = self._state.buffer_info()[0]
        self._room = AddressTable(ROOM_FIELDS) if kernel else None
        self._room_open = False
        self._search_options = 0
        self._level_room = 0
        self._proof_log = array("i")
        self._skin_log = array("i", bytes(4 * self._LOG_WORDS))
        self._pure_learnt: list[int] = []

        self.ok = True  # False once the formula is refuted outright
        self._interrupted = False  # set by interrupt(), honoured in solve()
        self._in_solve = False  # re-entrancy guard for solve()
        self._num_assumptions = 0  # of the current/most recent solve call
        self._solve_started = time.perf_counter()
        # "full" verification needs a DRUP trace to check, so it implies
        # proof logging even when the config flag is off.  The hints run
        # parallel to the trace: per step, the proof ids that make an
        # addition RUP, or None (see the module docstring).
        self.proof: list[tuple[str, list[int]]] | None = (
            []
            if self.config.proof_logging or self.config.verification == VERIFY_FULL
            else None
        )
        self.proof_hints: list[list[int] | None] | None = (
            None if self.proof is None else []
        )
        # Level-0 trail prefix already mirrored into the proof as unit
        # additions (see _flush_level0_proof_units).
        self._proof_level0_logged = 0
        # The solver's own copy of every input clause, as words
        # (repro.cnf.formula), for model verification, and their count.
        self._pristine = array("i")
        self._pristine_clauses = 0
        # Scratch buffers reused by the pure-Python analysis so the
        # per-conflict hot path allocates nothing.  Their contents are
        # only valid inside one _analyze call.
        self._learnt_buffer: list[int] = []
        self._to_clear_buffer: list[int] = []
        self._walk_buffer: list[int] = []
        # The proof hints of the clause the last conflict learned (None
        # without proof logging), left by _analyze.
        self._learnt_hints: list[int] | None = None

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
        self,
        literals: list[int],
        learned: bool,
        lbd: int = 0,
        birth: int | None = None,
        proof_id: int = NO_PROOF_ID,
    ) -> int:
        """Append one clause record; returns its ref.

        Learned records draw (and advance) ``birth_counter`` unless an
        explicit ``birth`` is supplied (the snapshot-restore path, where
        the counter is restored separately).  ``proof_id`` is the name
        the proof gives the clause (see the module docstring).
        """
        arena = self.arena
        ref = len(arena)
        flags = (lbd << _LBD_SHIFT) | (_LEARNED if learned else 0)
        # The circular scan starts past the watched pair; _attach_ref
        # links the two watch nodes.
        arena.extend((len(literals), flags, len(self.clause_act), 2, -1, 0, -1, 0))
        arena.extend(literals)
        self.clause_act.append(0)
        self.clause_id.append(proof_id)
        if learned and birth is None:
            birth = self.birth_counter
            self.birth_counter += 1
        self.clause_birth.append(birth or 0)
        return ref

    def _attach_ref(self, ref: int) -> None:
        """Index one record for propagation.

        Links both watch slots at the head of their literals' chains,
        each blocker seeded with the companion watch.  A binary record's
        nodes never move from there (it has no replacement literal), so
        the chains also list the binary clauses for the ``nb_two``
        phase heuristic (:meth:`_binary_partners`).
        """
        arena = self.arena
        base = ref + _HDR
        first = arena[base]
        second = arena[base + 1]
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

    def _binary_partners(self, literal: int) -> list[int]:
        """The partners of ``literal`` in live binary records, oldest first
        (its watch chain lists them newest first; see :meth:`_attach_ref`)."""
        arena = self.arena
        partners = []
        node = self.watch_head[literal]
        while node != -1:
            ref, slot = node >> 1, node & 1
            if arena[ref] == 2 and not arena[ref + 1] & _DEAD:
                partners.append(arena[ref + _HDR + 1 - slot])
            node = arena[ref + 4 + 2 * slot]
        return partners[::-1]

    # ==================================================================
    # Clause loading
    # ==================================================================
    def ensure_variables(self, count: int) -> None:
        """Grow all per-variable and per-literal tables to hold ``count`` vars.

        Each table grows in place by one whole-array extension, so every
        holder of a table keeps its reference.  All or nothing: a count
        past :data:`MAX_VARIABLES` raises :class:`ValueError` before
        anything changes, and a :class:`MemoryError` cuts every table
        back before it propagates, so ``num_variables`` always matches
        the tables.
        """
        old = self.num_variables
        if count <= old:
            return
        if count > MAX_VARIABLES:
            raise ValueError(f"variable {count} is past the largest, {MAX_VARIABLES}")
        tables = (  # (table, fill, entries per variable)
            (self.assigns, UNASSIGNED, 1), (self.levels, 0, 1), (self.reasons, -1, 1),
            (self.var_activity, 0, 1), (self._seen, 0, 1), (self._eliminated_mark, 0, 1),
            (self.lit_value, UNASSIGNED, 2), (self.lit_activity, 0, 2), (self.vsids, 0, 2),
            (self.watch_head, -1, 2),
        )
        try:
            for table, fill, width in tables:
                table += array(table.typecode, [fill]) * (width * (count - old))
            self.num_variables = count
            # Outside solve() no decision level exceeds the variable count
            # plus one (_probe_rup's); solve() widens for assumptions.
            self._size_scratch(count + 1)
        except MemoryError:
            self.num_variables = old
            for table, _, width in tables:
                del table[width * (old + 1) :]
            self._refresh_tables()
            raise

    def _size_scratch(self, levels: int) -> None:
        """Grow the kernels' scratch to fit; refresh their address table.

        One propagation implies, and one learnt clause or its marks
        hold, at most one literal per variable, and its hints name at
        most one record per variable plus the conflict; the LBD marks
        need one word per decision level up to ``levels``.  A buffer
        that is too small is replaced by one twice the size needed, so
        adding variables a few at a time stays linear; the four
        per-variable ones are replaced together.  A no-op without the
        kernels.
        """
        if self._tables is None:
            return
        words = self.num_variables + 2
        if len(self._scratch) < words:
            fresh = [array("i", bytes(8 * words)) for _ in range(4)]
            self._scratch, self._learnt_out, self._clear_out, self._hint_out = fresh
        if len(self._level_marks) <= levels:
            self._level_marks = array("i", bytes(8 * (levels + 1)))
        self._tables.refresh(self)

    def _refresh_tables(self) -> None:
        """Re-read the kernels' buffer addresses after a buffer moved."""
        if self._tables is not None:
            self._tables.refresh(self)

    def add_formula(self, formula: CnfFormula) -> bool:
        """Load every clause of ``formula``; returns False if refuted outright.

        :meth:`add_clauses` over ``formula.clauses``, with the tables
        grown to ``formula.num_variables`` instead of to the largest
        variable the clauses name (which would take a pass over them).
        A formula that still keeps its words (a parsed one) is loaded
        from them, and its lists stay unbuilt.
        """
        self.ensure_variables(formula.num_variables)
        words = formula.words
        if words is None:
            return self._add_clauses(formula.clauses, sized=True)
        if self._kernel_load is None:
            for clause in words_to_clauses(words):
                self._add_clause(clause)
        else:
            self._load_words(words)
        return self.ok

    def add_clauses(self, clauses: Iterable[Iterable[int]]) -> bool:
        """Add clauses given as signed DIMACS literals; False once refuted.

        The one intake path (see "Clause intake" in the module
        docstring); it leaves the state a loop of :meth:`add_clause`
        would.  Clauses may be added between solve calls; the solver
        backtracks to level 0 first.  A clause holding literal 0 raises
        :class:`ValueError` (a non-integer, :class:`TypeError`; a
        variable past :data:`~repro.cnf.literals.MAX_VARIABLES`,
        :class:`ValueError`) before it changes anything; the clauses
        before it stay added.
        """
        return self._add_clauses(list(clauses), sized=False)

    def add_clause(self, dimacs_literals: Iterable[int]) -> bool:
        """Add one clause given as signed DIMACS literals.

        :meth:`add_clauses` of one clause, which has nothing to batch,
        so it goes straight to the per-clause reference.
        """
        self._add_clause(dimacs_literals)
        return self.ok

    def _add_clauses(self, clauses: list, sized: bool) -> bool:
        """Load a list batch: flattened into words once, unless it holds
        something the words cannot (a literal 0, a non-integer, a
        variable past :data:`~repro.cnf.literals.MAX_VARIABLES`), a
        clause that is not a list or tuple (it may read only once), or
        the kernels are off; then the reference takes every clause, and
        raises at the first bad one.  Unless ``sized``, the tables first
        grow to the largest variable the clauses name.
        """
        words = None
        if self._kernel_load is not None and {list, tuple}.issuperset(map(type, clauses)):
            try:
                words = clauses_to_words(clauses)
            except (TypeError, OverflowError):
                pass
        if words is not None and words.count(0) == len(clauses):
            largest = 0 if sized else max(max(words, default=0), -min(words, default=0))
            if largest <= MAX_VARIABLES:
                self.ensure_variables(largest)
                self._load_words(words)
                return self.ok
        for clause in clauses:
            self._add_clause(clause)
        return self.ok

    def _load_words(self, words: array) -> None:
        """Load the zero-terminated clauses of ``words`` with the kernel.

        One ``arena_load`` call does :meth:`_add_clause`'s work for a run
        of clauses in place; a clause it cannot finish goes through
        :meth:`_add_clause`, and the kernel resumes after it.  Once the
        formula is refuted, the reference takes the rest.  Each run's
        words are copied into ``_pristine``; ``words`` is only read.
        """
        if not words:
            return
        if self.current_level() > 0:
            self._backtrack(0)  # as the first _add_clause would
        # A unit clause takes at least two words and a record's clause
        # three, which bounds every output.
        size = len(words) // 2 + 1
        refs = array("i", bytes(4 * size))
        ids = array("i", bytes(4 * size))
        units = array("i", bytes(4 * size))
        shortened = array("i", bytes(4 * size))
        out = array("i", bytes(24))
        stats = self.stats
        length = len(words)
        offset = 0
        while offset < length and self.ok:
            arena = self.arena
            used = len(arena)
            # Room for the worst case: every clause of three words or
            # more a record, no literal dropped, and the header of the
            # clause being read.  The tail is cut back to what was
            # written.
            scanned = length - offset
            arena.frombytes(bytes(4 * (_HDR * (scanned // 3 + 1) + scanned)))
            loaded = self._kernel_load(
                self._tables_address,
                words.buffer_info()[0],
                offset,
                length,
                self.num_variables,
                arena.buffer_info()[0],
                used,
                len(self.clause_act),
                -1 - self._pristine_clauses,
                refs.buffer_info()[0],
                ids.buffer_info()[0],
                units.buffer_info()[0],
                shortened.buffer_info()[0],
                out.buffer_info()[0],
            )
            arena_len, records, unit_count, short_count, stop, end = out
            del arena[arena_len:]
            stats.initial_clauses += loaded
            self._pristine += words[offset:stop]
            self._pristine_clauses += loaded
            if records:
                self.clause_act.frombytes(bytes(8 * records))
                self.clause_id += ids[:records]
                self.clause_birth.frombytes(bytes(4 * records))
                self.clauses += refs[:records].tolist()
                stats.peak_clauses = max(
                    stats.peak_clauses, len(self.clauses) + len(self.learned)
                )
            self.trail.extend(units[:unit_count])
            if self.proof is not None:
                # A repeated literal or level-0 stripping shortened these
                # records; see _attach_clause.
                clause_id = self.clause_id
                for ref in shortened[:short_count]:
                    slot = self.arena[ref + 2]
                    clause_id[slot] = self.log_proof_add(
                        self._ref_literals(ref), [clause_id[slot]]
                    )
            offset = stop
            if stop < length:
                self._add_clause(words[stop:end])
                offset = end + 1
        for clause in words_to_clauses(words[offset:]):
            self._add_clause(clause)

    def _add_clause(self, dimacs_literals: Iterable[int]) -> None:
        """The per-clause reference of the loader, at level 0.

        Rejects literal 0 (and non-integers) before it changes anything,
        grows the tables and records the input clause; a tautology stops
        there.  Otherwise every eliminated variable the clause names is
        restored ("restore on touch") and, unless the formula is refuted
        already, :meth:`_attach_clause` takes the deduplicated clause.
        """
        literals = list(map(operator.index, dimacs_literals))
        if 0 in literals:
            raise ValueError("0 is not a DIMACS literal (it terminates clauses)")
        if self.current_level() > 0:
            self._backtrack(0)
        self.ensure_variables(max(map(abs, literals), default=0))
        self.stats.initial_clauses += 1
        self._pristine.extend(literals)
        self._pristine.append(0)
        self._pristine_clauses += 1
        cleaned = clean_clause(literals)
        if cleaned is None:  # tautology
            return
        for literal in cleaned:
            if self._eliminated_mark[abs(literal)]:
                self._restore_variable(abs(literal))
        if self.ok:
            self._attach_clause(cleaned, len(literals), -self._pristine_clauses)

    def _attach_clause(self, literals: list[int], size: int, proof_id: int) -> None:
        """Reduce one clause against the level-0 assignments and attach it.

        ``literals`` are distinct, non-complementary DIMACS literals; the
        input clause had ``size`` of them and has proof id ``proof_id``.
        A clause a level-0 literal satisfies is dropped and false
        literals are stripped.  Nothing left refutes the formula (the
        empty clause, RUP, is logged); one literal is assigned; more
        become an original record, logged when shorter than ``size``
        (RUP via the level-0 units) so a later deletion names a clause
        the proof's database holds.
        """
        lit_value = self.lit_value
        remaining: list[int] = []
        for literal in map(encode_literal, literals):
            value = lit_value[literal]
            if value == TRUE:
                return
            if value == UNASSIGNED:
                remaining.append(literal)
        if not remaining:
            self.ok = False
            self.log_proof_add([])
        elif len(remaining) == 1:
            self._enqueue(remaining[0], None)
        else:
            if len(remaining) < size and self.proof is not None:
                proof_id = self.log_proof_add(remaining, [proof_id])
            ref = self._push_record(remaining, learned=False, proof_id=proof_id)
            self.clauses.append(ref)
            self._attach_ref(ref)
            self.stats.peak_clauses = max(
                self.stats.peak_clauses, len(self.clauses) + len(self.learned)
            )

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
        Chaff literal counters.  With proof logging on it leaves the
        clause's proof hints in ``_learnt_hints``: the reasons
        minimization used, then the records the walk resolved on, each
        in trail order, then the conflicting record.  This is the
        pure-Python reference; with the C kernels loaded the search loop
        (``arena_search``) runs its C twin.
        """
        config = self.config
        seen = self._seen
        levels = self.levels
        var_activity = self.var_activity
        bump_responsible = config.bump_responsible_clauses
        learnt, to_clear = self._analyze_resolve(conflict, len(self.trail_limits))
        resolved = len(learnt)

        if config.clause_minimization and len(learnt) > 2:
            learnt = self._minimize(learnt)

        if self.proof is None:
            self._learnt_hints = None
        else:
            # Minimization marked its dropped literals 2; they sit below
            # the current level, so a scan down the trail meets them last
            # to first.
            arena = self.arena
            clause_id = self.clause_id
            trail = self.trail
            hints = []
            dropped = resolved - len(learnt)
            index = len(trail) - 1
            while dropped and index >= 0:
                variable = trail[index] >> 1
                if seen[variable] == 2:
                    hints.append(clause_id[arena[self.reasons[variable] + 2]])
                    dropped -= 1
                index -= 1
            hints.reverse()
            hints += [clause_id[arena[ref + 2]] for ref in reversed(self._walk_buffer)]
            self._learnt_hints = hints

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

    def _analyze_resolve(self, conflict: int, current_level: int):
        """The first-UIP resolution walk of :meth:`_analyze`.

        Returns ``(learnt, to_clear)`` with every variable in
        ``to_clear`` still marked in ``_seen``; :meth:`_analyze` owns the
        tail.  The records walked, the conflicting one first, are left
        in ``_walk_buffer``.  The resolved-upon literal is skipped by
        variable comparison rather than by position (watch chains forbid
        moving it to slot 0).
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
        walked = self._walk_buffer
        walked.clear()

        clause = conflict
        unresolved = 0
        index = len(trail) - 1
        resolved_variable = -1  # first iteration: every literal participates

        while True:
            if clause < 0:
                raise SolverInternalError("missing reason during conflict analysis")
            ref = clause
            walked.append(ref)
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
        :meth:`_analyze` has not cleared yet at the call site; a dropped
        literal's flag becomes 2, for the proof hints.
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
            if redundant:
                seen[literal >> 1] = 2
            else:
                minimized.append(literal)
        return minimized

    # ==================================================================
    # Learning and aging
    # ==================================================================
    def _record_learned(
        self, learnt: list[int], lbd: int = 0, hints: list[int] | None = None
    ) -> None:
        """Push the conflict clause and assert its first literal.

        ``lbd`` is the literal-block distance measured at conflict time
        (before backtracking erased the levels); it is stamped on the
        record so quality-based retention can filter by glue later.
        ``hints`` go into the proof beside the clause.
        """
        self.stats.learned_total += 1
        proof_id = self.log_proof_add(learnt, hints)
        if len(learnt) == 1:
            self.stats.learned_units += 1
            self._enqueue(learnt[0], None)
        else:
            ref = self._push_record(learnt, learned=True, lbd=lbd, proof_id=proof_id)
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
            return self._berkmin_decision()
        if strategy == cfg.DECISION_GLOBAL:
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
        search loop (``arena_search``) runs its C twin, and the phase
        choice here only on a symmetrize tie or under another phase.
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

    def _note_top_clause_decision(self, distance: int) -> None:
        """Count a decision on the unsatisfied clause ``distance`` below the top."""
        self.stats.top_clause_decisions += 1
        self.stats.record_skin_distance(distance)
        if self.trace is not None:
            self.last_decision_source = "top_clause"
            self.last_skin_distance = distance

    def _global_decision(self) -> int | None:
        """Globally most active free variable, phase by ``formula_phase``."""
        variable = self._most_active_free()
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
        the watch chains from the surviving refs.
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
                # Strengthening is add-then-delete in DRUP terms; the
                # record then goes by the added clause's proof id.
                slot = arena[ref + 2]
                proof_id = self.log_proof_add(stripped, [self.clause_id[slot]])
                self.log_proof_delete(ref)
                self.clause_id[slot] = proof_id
                for offset, literal in enumerate(stripped):
                    arena[base + offset] = literal
                arena[ref] = len(stripped)
                arena[ref + 3] = 2  # the shrunken record invalidates the scan offset
                self.arena_dead += size - len(stripped)
            survivors.append(ref)
        return survivors

    def _rebuild_from_refs(self) -> None:
        """Recompute the watch chains from the ref lists.

        Rebuilding (rather than patching) leaves no dead record on any
        chain, and links a clause that level-0 stripping shortened to
        two literals like any binary record, so the chains list exactly
        the live binary clauses ``nb_two`` counts.  With the C kernels
        loaded, ``arena_attach`` threads the watches (originals first,
        then learned, as below).
        """
        self.watch_head = array("i", [-1]) * (2 * (self.num_variables + 1))
        self._refresh_tables()
        if self._kernel_attach is None:
            for ref in self.clauses:
                self._attach_ref(ref)
            for ref in self.learned:
                self._attach_ref(ref)
            return
        for refs in (array("i", self.clauses), self.learned):
            self._kernel_attach(
                self.arena.buffer_info()[0],
                self.watch_head.buffer_info()[0],
                refs.buffer_info()[0],
                len(refs),
            )

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
        old_ids = self.clause_id
        new = array("i")
        new_act: list[int] = []
        new_birth = array("i")
        new_ids = array("i")

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
                new_ids.append(old_ids[act_idx])
                moved.append(new_ref)
            return moved

        self.clauses = move(self.clauses)
        self.learned = array("i", move(self.learned))
        freed = len(old) - len(new)
        self.arena = new
        self.clause_act = array("d", new_act)
        self.clause_birth = new_birth
        self.clause_id = new_ids
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
        positive: list[list[int]],
        negative: list[list[int]],
        variable: int,
        parents: list[tuple[int, int]] | None = None,
    ) -> list[list[int]] | None:
        """All distinct non-tautological resolvents on ``variable`` of
        DIMACS clauses; None when one of them is empty.

        ``parents``, when given, receives the ``(positive, negative)``
        indices of the pair that produced each resolvent.
        """
        produced: list[list[int]] = []
        seen: set[tuple[int, ...]] = set()
        for pos_index, pos_clause in enumerate(positive):
            pos_rest = [literal for literal in pos_clause if literal != variable]
            for neg_index, neg_clause in enumerate(negative):
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
                    if parents is not None:
                        parents.append((pos_index, neg_index))
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
        steps are RUP), hinted by its two parents; the replaced original
        clauses are *not* logged as deletions, keeping the checker's
        database a superset.
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
            positive_ids: list[int] = []
            negative_ids: list[int] = []
            for ref in live:
                dimacs = [decode_literal(lit) for lit in self._ref_literals(ref)]
                proof_id = self.clause_id[arena[ref + 2]]
                if variable in dimacs:
                    positive.append(dimacs)
                    positive_ids.append(proof_id)
                else:
                    negative.append(dimacs)
                    negative_ids.append(proof_id)
            parents: list[tuple[int, int]] = []
            resolvents = self._resolvents(positive, negative, variable, parents)
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
            self._eliminated.append(
                (variable, positive + negative, positive_ids + negative_ids)
            )
            self._eliminated_mark[variable] = True
            for resolvent, (pos_index, neg_index) in zip(resolvents, parents):
                encoded = [encode_literal(lit) for lit in resolvent]
                proof_id = self.log_proof_add(
                    encoded, [positive_ids[pos_index], negative_ids[neg_index]]
                )
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
                    ref = self._push_record(encoded, learned=False, proof_id=proof_id)
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

        Re-adds the stored original clauses through
        :meth:`_attach_clause` under their own proof ids: the proof
        never deleted them, so a re-add needs no proof line unless it
        is stripped.
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
            _, stored, stored_ids = self._eliminated.pop(position)
            self._eliminated_mark[target] = False
            for clause, proof_id in zip(stored, stored_ids):
                # Stored clauses may mention variables eliminated later.
                for literal in clause:
                    if self._eliminated_mark[abs(literal)]:
                        worklist.append(abs(literal))
                self._attach_clause(clause, len(clause), proof_id)

    # ==================================================================
    # Proof logging
    # ==================================================================
    def log_proof_add(
        self, encoded_literals: Sequence[int], hints: list[int] | None = None
    ) -> int:
        """Record a clause addition in the DRUP trace; returns its proof id.

        ``hints`` are the proof ids of the clauses that make the addition
        RUP, in propagation order.  A no-op returning
        :data:`NO_PROOF_ID` when logging is off.
        """
        proof = self.proof
        if proof is None:
            return NO_PROOF_ID
        proof.append(("a", [decode_literal(lit) for lit in encoded_literals]))
        self.proof_hints.append(hints)
        return len(proof) - 1

    def log_proof_delete(self, ref: int) -> None:
        """Record the deletion of record ``ref`` (no-op when logging is off)."""
        if self.proof is not None:
            self._flush_level0_proof_units()
            self.proof.append(
                ("d", [decode_literal(lit) for lit in self._ref_literals(ref)])
            )
            self.proof_hints.append(None)

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
        per literal.  A unit still holding its reason is hinted by it.
        """
        end = self.trail_limits[0] if self.trail_limits else len(self.trail)
        proof = self.proof
        hints = self.proof_hints
        while self._proof_level0_logged < end:
            literal = self.trail[self._proof_level0_logged]
            self._proof_level0_logged += 1
            proof.append(("a", [decode_literal(literal)]))
            reason = self.reasons[literal >> 1]
            hints.append(
                None if reason < 0 else [self.clause_id[self.arena[reason + 2]]]
            )

    # ==================================================================
    # Interruption (public API; the primitive the parallel engine uses)
    # ==================================================================
    def interrupt(self) -> None:
        """Ask the running (or next) ``solve`` call to stop cooperatively.

        Safe to call from another thread or from an ``on_progress``
        callback.  A request from the callback is honoured at the end of
        the step it was made in: after that conflict's post-conflict
        work (a restart due there included), or after that decision.  A
        request from another thread is honoured at the next point where
        the search returns to Python; the search loop returns there at
        least at every progress mark, so within 128 conflicts or 512
        decisions (the pure-Python engine returns after every step).
        The call then returns ``UNKNOWN`` with ``limit_reason ==
        "interrupted"``; the flag is cleared once honoured, so a later
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

    def _proof_ids(self, refs) -> list[int]:
        """The proof ids of records ``refs``."""
        arena = self.arena
        clause_id = self.clause_id
        return [clause_id[arena[ref + 2]] for ref in refs]

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
            "active_ids": self._proof_ids(self.clauses),
            "eliminated": [
                [variable, [list(clause) for clause in stored]]
                for variable, stored, _ in self._eliminated
            ],
            "eliminated_ids": [list(ids) for _, _, ids in self._eliminated],
        }

    def _install_arena_state(self, payload: dict) -> None:
        """Swap in a snapshot's active database (restore-time hook).

        Called after formula load and validation, before the trail is
        replayed: the records built from the pristine formula are
        replaced wholesale by the snapshot's post-inprocessing database.
        Level-0 assignments (from unit clauses) are untouched.
        """
        self.arena = array("i")
        self.arena_dead = 0
        self.clause_act = array("d")
        self.clause_birth = array("i")
        self.clause_id = array("i")
        self.clauses = []
        self.learned = array("i")
        self.watch_head = array("i", [-1]) * (2 * (self.num_variables + 1))
        self._refresh_tables()
        for literals, proof_id in zip(payload["active"], payload["active_ids"]):
            ref = self._push_record(
                [int(lit) for lit in literals], learned=False, proof_id=proof_id
            )
            self.clauses.append(ref)
            self._attach_ref(ref)
        eliminated = zip(payload["eliminated"], payload["eliminated_ids"])
        self._eliminated = [
            (
                int(variable),
                [[int(lit) for lit in clause] for clause in stored],
                list(ids),
            )
            for (variable, stored), ids in eliminated
        ]
        for variable, _, _ in self._eliminated:
            self._eliminated_mark[variable] = True
        self.search_cursor = -1

    def _restore_learned_clause(
        self,
        ordered: list[int],
        activity: int,
        birth: int,
        protected: bool,
        lbd: int,
        proof_id: int = NO_PROOF_ID,
    ) -> None:
        """Re-attach one learned clause during snapshot restore.

        ``ordered`` already surfaces two non-false literals first (the
        restore loop's watch-ordering contract).
        """
        ref = self._push_record(
            list(ordered), learned=True, lbd=lbd, birth=birth, proof_id=proof_id
        )
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
            proof_id = self.log_proof_add(encoded)
            ref = self._push_record(
                encoded, learned=True, lbd=max(lbd, 1), proof_id=proof_id
            )
            self.learned.append(ref)
            self._attach_ref(ref)
            stats.shared_imported += 1
            attached += 1
        return attached

    # ==================================================================
    # The search loop's two engines and the kernel's room
    # ==================================================================
    # solve() drives the search through one of two engines with the same
    # exit contract: the C loop (``arena_search``), which runs many steps
    # per call and returns only at an event solve() must handle, and the
    # pure-Python step below, its reference, which returns after every
    # step.  Either takes where to resume (RESUME_*), the literal a
    # resumed decision or assumption level enqueues, and the step flag,
    # and returns the exit (EXIT_*), leaving in ``_state`` the words
    # solve() reads at that exit.
    def _set_up_search(
        self, assumptions: int, max_level: int, max_decisions, max_clauses
    ) -> None:
        """The kernel's options, room and state words fixed for one solve call."""
        config = self.config
        options = OPT_HINTS if self.proof is not None else 0
        if config.bump_responsible_clauses:
            options |= OPT_BUMP_RESPONSIBLE
        if config.clause_minimization:
            options |= OPT_MINIMIZE
        if config.decision_strategy == cfg.DECISION_BERKMIN:
            options |= OPT_DECIDE | OPT_TOP_CLAUSE
        elif config.decision_strategy == cfg.DECISION_GLOBAL:
            options |= OPT_DECIDE
        if config.top_clause_phase == cfg.PHASE_SYMMETRIZE:
            options |= OPT_SYMMETRIZE
        if config.formula_phase == cfg.FORMULA_PHASE_NB_TWO:
            options |= OPT_NB_TWO
        if self.share is not None:
            options |= OPT_SHARE
        self._search_options = options
        self._level_room = max_level + 1
        state = self._state
        base = self.stats.decisions
        state[S_WINDOW] = config.top_clause_window
        state[S_NB_TWO_THRESHOLD] = config.nb_two_threshold
        state[S_ASSUMPTIONS] = assumptions
        state[S_BASE_DECISIONS] = base
        state[S_DECISION_STOP] = (
            _NEVER if max_decisions is None else min(_NEVER, base + _count_at(max_decisions))
        )
        state[S_CLAUSE_STOP] = (
            _NEVER if max_clauses is None else _count_at(max_clauses, strict=True)
        )

    def _run_pure(self, resume: int, literal: int, step: bool) -> int:
        """One step of the search in pure Python (``step`` changes nothing)."""
        state = self._state
        stats = self.stats
        if resume == RESUME_ASSUME:
            self.trail_limits.append(len(self.trail))
            if self.lit_value[literal] == UNASSIGNED:
                self._enqueue(literal, None)
            resume = RESUME_TOP
        if resume == RESUME_TOP:
            conflict = self._propagate()
            level = len(self.trail_limits)
            if conflict is None:
                state[S_LEVELS] = level
                return EXIT_PREDECIDE
            stats.conflicts += 1
            if level == 0:
                return EXIT_UNSAT
            learnt, backjump = self._analyze(conflict)
            levels = self.levels
            # The LBD (distinct decision levels among the learnt
            # literals) feeds the conflict event and the glue stamp.
            lbd = len({levels[lit >> 1] for lit in learnt})
            self._backtrack(backjump)
            self._record_learned(learnt, lbd, self._learnt_hints)
            self._pure_learnt = learnt
            state[S_CONFLICT_LEVEL] = level
            state[S_LEARNT_SIZE] = len(learnt)
            state[S_LBD] = lbd
            state[S_BACKJUMP] = backjump
            state[S_LEARNED_LEN] = len(self.learned)
            return EXIT_CONFLICT
        if resume == RESUME_DECIDE:
            literal = self._choose()
            if literal is None:
                return EXIT_SAT
        stats.decisions += 1
        self.trail_limits.append(len(self.trail))
        self._enqueue(literal, None)
        level = len(self.trail_limits)
        if level > stats.max_decision_level:
            stats.max_decision_level = level
        state[S_LEVELS] = level
        state[S_LITERAL] = literal
        state[S_DISTANCE] = -1
        return EXIT_DECIDED

    def _run_kernel(self, resume: int, literal: int, step: bool) -> int:
        """Run ``arena_search`` from ``resume`` to its next exit.

        Opens the room when it is closed.  Before returning the exit,
        brings the counters and scalars, and the views the kernel cannot
        write (the skin histogram and the proof), up to the loop's state.
        """
        state = self._state
        if not self._room_open:
            self._open_room()
        state[S_RESUME] = resume
        state[S_LITERAL] = literal
        state[S_OPTIONS] = self._search_options | OPT_STEP if step else self._search_options
        proof = self.proof
        if proof is not None:
            state[S_PROOF_STEP] = len(proof)
        code = self._kernel_search(
            self._tables_address, self._room.address, self._state_address
        )
        stats = self.stats
        (
            stats.conflicts,
            stats.decisions,
            stats.propagations,
            stats.learned_total,
            stats.learned_units,
            stats.top_clause_decisions,
            stats.max_decision_level,
            stats.peak_clauses,
        ) = state[S_CONFLICTS : S_PEAK_CLAUSES + 1]
        self.qhead = state[S_QHEAD]
        self.search_cursor = state[S_CURSOR]
        self.birth_counter = state[S_BIRTH]
        stats.formula_decisions += state[S_FORMULA_DECISIONS]
        count = state[S_SKIN_LEN]
        if count:
            for distance in self._skin_log[:count]:
                stats.record_skin_distance(distance)
        count = state[S_LOG_LEN]
        if count:
            # Each entry: size, hint count, the literals, the hints.
            log = self._proof_log[:count].tolist()
            hints = self.proof_hints
            index = 0
            while index < count:
                size = log[index]
                start = index + 2
                index = start + size + log[index + 1]
                proof.append(("a", [decode_literal(lit) for lit in log[start : start + size]]))
                hints.append(log[start + size : index])
        return code

    def _open_room(self) -> None:
        """Load the kernel's state from the solver and pad the room buffers.

        While the room is open, the trail, ``trail_limits``, the learned
        stack, the arena and the per-record side arrays run past their
        contents, whose lengths are the state's words; solve() closes it
        (:meth:`_close_room`) before any code that reads them.
        """
        state = self._state
        stats = self.stats
        state[S_TRAIL_LEN] = len(self.trail)
        state[S_QHEAD] = self.qhead
        state[S_LEVELS] = len(self.trail_limits)
        state[S_LEARNED_LEN] = len(self.learned)
        state[S_ARENA_LEN] = len(self.arena)
        state[S_RECORDS] = len(self.clause_act)
        state[S_CURSOR] = self.search_cursor
        state[S_BIRTH] = self.birth_counter
        state[S_CONFLICTS : S_PEAK_CLAUSES + 1] = array(
            "q",
            (
                stats.conflicts,
                stats.decisions,
                stats.propagations,
                stats.learned_total,
                stats.learned_units,
                stats.top_clause_decisions,
                stats.max_decision_level,
                stats.peak_clauses,
            ),
        )
        state[S_NUM_CLAUSES] = len(self.clauses)
        state[S_NUM_VARIABLES] = self.num_variables
        self._room_open = True
        self._pad_room()

    def _pad_room(self) -> None:
        """Give each room buffer room for many more steps; refresh the room table.

        The trail holds at most one literal per variable and the level
        limits at most ``_level_room`` levels, so they are padded to
        that once; the learned stack, the side arrays and the arena get
        fresh room whenever the kernel exits for lack of it.
        """
        state = self._state
        records = state[S_RECORDS] + self._ROOM_RECORDS
        record_words = _HDR + self.num_variables  # the largest record
        _pad(self.trail, self.num_variables)
        _pad(self.trail_limits, self._level_room)
        _pad(self.learned, state[S_LEARNED_LEN] + self._ROOM_RECORDS)
        _pad(self.arena, state[S_ARENA_LEN] + max(self._ROOM_WORDS, 2 * record_words))
        for side in (self.clause_act, self.clause_id, self.clause_birth):
            _pad(side, records)
        if self.proof is not None:  # entries of at most 3 + 2 * num_variables words
            _pad(self._proof_log, max(self._ROOM_WORDS, 2 * (record_words + self.num_variables)))
        self._room.refresh(self)
        state[S_TRAIL_ROOM : S_SKIN_ROOM + 1] = array(
            "q",
            (
                len(self.trail),
                len(self.trail_limits),
                len(self.learned),
                len(self.arena),
                len(self.clause_act),
                len(self._proof_log),
                len(self._skin_log),
            ),
        )

    def _close_room(self) -> None:
        """Cut the room buffers back to their contents; a no-op when closed."""
        if not self._room_open:
            return
        self._room_open = False
        state = self._state
        del self.trail[state[S_TRAIL_LEN] :]
        del self.trail_limits[state[S_LEVELS] :]
        del self.learned[state[S_LEARNED_LEN] :]
        del self.arena[state[S_ARENA_LEN] :]
        for side in (self.clause_act, self.clause_id, self.clause_birth):
            del side[state[S_RECORDS] :]

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
            on_progress: optional callback invoked with the live
                :class:`SolverStats` every 128 conflicts and every 512
                decisions *made during this call*: after the conflict
                whose count (since the call began) is a multiple of 128,
                before any restart due there; and before a decision
                whenever the decisions made so far are a nonzero multiple
                of 512, so at one count it can fire again after each
                conflict that intervenes.  It may call :meth:`interrupt`
                to stop the search cooperatively (the parallel engine's
                cancellation hook), and it may read any solver state or
                take a :meth:`snapshot`; exceptions it raises propagate
                to the caller.

        The search runs as one loop, in C when the kernels loaded, that
        returns to this method only at the events it handles: the
        answer, a decision left to Python, post-conflict work (a
        restart, an activity decay, a budget or a progress mark), a
        level-0 import, an assumption level, or room run out.  A SAT
        model is checked against every clause added (a failure raises
        :class:`SolverInternalError`).

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
            self._set_up_search(
                len(assumption_literals), max_level, max_decisions, max_clauses
            )
            scheduler = RestartScheduler(self.config)
            restart_base = stats.conflicts
            decay = self.config.activity_decay_interval
            share = self.share
            state = self._state
            # The kernel runs many steps per call and exits only where
            # this loop has work; the pure engine exits after every step.
            # With a trace or a share client attached, the kernel exits
            # after every conflict and decision too (step mode), and
            # while an interrupt is pending, at the end of the step.
            search = self._run_pure if self._kernel_search is None else self._run_kernel
            step = trace is not None or share is not None

            def conflict_stop() -> int:
                """The first conflict count at which the block below has work."""
                conflicts = stats.conflicts
                stop = min(
                    base_conflicts + 128 * ((conflicts - base_conflicts) // 128 + 1),
                    restart_base + _count_at(scheduler.current_interval),
                )
                if decay > 0:
                    stop = min(stop, (conflicts // decay + 1) * decay)
                if max_conflicts is not None:
                    stop = min(stop, base_conflicts + _count_at(max_conflicts))
                return stop

            state[S_CONFLICT_STOP] = conflict_stop()
            resume = RESUME_TOP
            literal = 0
            while True:
                if resume == RESUME_TOP and self._interrupted:
                    self._interrupted = False
                    return self._result(SolveStatus.UNKNOWN, limit="interrupted")
                code = search(resume, literal, step or self._interrupted)
                resume = RESUME_TOP
                if code == EXIT_CHOOSE:
                    # A decision the kernel leaves to Python: a top-clause
                    # phase it does not run or a symmetrize tie, a
                    # formula-level phase other than nb_two or an nb_two
                    # tie (all may draw from the rng; the kernel counted
                    # these decisions), or a whole vsids or random decision.
                    choice = state[S_CHOICE]
                    variable = state[S_VARIABLE]
                    if choice == CHOOSE_TOP:
                        literal = self._top_clause_literal(variable, state[S_REF])
                    elif choice == CHOOSE_FORMULA:
                        literal = formula_literal(self, variable)
                    elif choice == CHOOSE_TIE:
                        literal = nb_two_tie(self, variable)
                    else:
                        literal = self._choose()
                        if literal is None:
                            return self._sat_result()
                    resume = RESUME_DECISION
                elif code == EXIT_CONFLICT:
                    # The learnt clause is recorded and asserted.
                    lbd = state[S_LBD]
                    if trace is not None:
                        trace.emit(
                            {
                                "type": "conflict",
                                "conflicts": stats.conflicts,
                                "level": state[S_CONFLICT_LEVEL],
                                "learned_len": state[S_LEARNT_SIZE],
                                "lbd": lbd,
                                "backjump": state[S_CONFLICT_LEVEL] - state[S_BACKJUMP],
                            }
                        )
                    if share is not None and lbd <= share.export_max_lbd:
                        learnt = (
                            self._pure_learnt
                            if self._kernel_search is None
                            else self._learnt_out[: state[S_LEARNT_SIZE]]
                        )
                        if share.export([decode_literal(lit) for lit in learnt], lbd):
                            stats.shared_exported += 1
                    if decay > 0 and stats.conflicts % decay == 0:
                        self._decay_activities()
                    if (
                        max_conflicts is not None
                        and stats.conflicts - base_conflicts >= max_conflicts
                    ):
                        return self._result(SolveStatus.UNKNOWN, limit="conflict budget")
                    if (
                        max_clauses is not None
                        and len(self.clauses) + state[S_LEARNED_LEN] > max_clauses
                    ):
                        return self._result(SolveStatus.UNKNOWN, limit="memory budget")
                    # Counters elapsed *since this call*: a resumed solve
                    # whose lifetime total happens to be a multiple of 128
                    # must not fire the hook on its first conflict.
                    if (stats.conflicts - base_conflicts) % 128 == 0:
                        if on_progress is not None:
                            self._close_room()
                            on_progress(stats)
                        if (
                            max_seconds is not None
                            and time.perf_counter() - start_time > max_seconds
                        ):
                            return self._result(
                                SolveStatus.UNKNOWN, limit="time budget"
                            )
                    if scheduler.should_restart(stats.conflicts - restart_base):
                        restart_base = stats.conflicts
                        scheduler.on_restart()
                        self._close_room()
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
                    state[S_CONFLICT_STOP] = conflict_stop()
                elif code == EXIT_PREDECIDE:
                    level = state[S_LEVELS]
                    if level == 0 and share is not None:
                        # Propagation is complete and no conflict: the one
                        # spot where attaching peer clauses is provably
                        # sound (the RUP probe runs at level 0 on a
                        # settled trail).  Reached after every restart
                        # *and* every unit-learnt backjump, so imports
                        # land while they can still prune instead of
                        # waiting out a restart interval.
                        self._close_room()
                        self._import_shared()
                        if not self.ok:
                            # An imported RUP unit closed the search.
                            return self._result(SolveStatus.UNSAT)
                    if level < len(assumption_literals):
                        literal = assumption_literals[level]
                        if self.lit_value[literal] == FALSE:
                            self._close_room()
                            return self._result(
                                SolveStatus.UNSAT,
                                under_assumptions=True,
                                core=self._failed_assumption_core(literal),
                            )
                        resume = RESUME_ASSUME
                        continue
                    if (
                        max_decisions is not None
                        and stats.decisions - base_decisions >= max_decisions
                    ):
                        return self._result(SolveStatus.UNKNOWN, limit="decision budget")
                    # Guard against the 0 % 512 == 0 trap: before the first
                    # decision of this call the hook (and the clock) must
                    # not run on every loop iteration.
                    decided = stats.decisions - base_decisions
                    if decided and decided % 512 == 0:
                        if on_progress is not None:
                            self._close_room()
                            on_progress(stats)
                        if (
                            max_seconds is not None
                            and time.perf_counter() - start_time > max_seconds
                        ):
                            return self._result(SolveStatus.UNKNOWN, limit="time budget")
                    resume = RESUME_DECIDE
                elif code == EXIT_DECIDED:
                    if trace is not None:
                        # Only decisions Python's heuristics made are stamped.
                        if state[S_DISTANCE] >= 0:  # a top-clause decision
                            self.last_decision_source = "top_clause"
                            self.last_skin_distance = state[S_DISTANCE]
                        trace.emit(
                            {
                                "type": "decision",
                                "conflicts": stats.conflicts,
                                "decisions": stats.decisions,
                                "level": state[S_LEVELS],
                                "literal": decode_literal(state[S_LITERAL]),
                                "source": self.last_decision_source or "global",
                                "skin_distance": self.last_skin_distance,
                            }
                        )
                        self.last_decision_source = self.last_skin_distance = None
                elif code == EXIT_ROOM:
                    self._pad_room()
                elif code == EXIT_SAT:
                    return self._sat_result()
                elif code == EXIT_UNSAT:
                    self.ok = False
                    self.log_proof_add([])
                    return self._result(SolveStatus.UNSAT)
                else:
                    raise SolverInternalError("missing reason during conflict analysis")
        except MemoryError:
            # Degrade instead of dying: the answer is honest (UNKNOWN) and
            # the process survives.  The instance's internal state may be
            # mid-operation, so discard it rather than re-solving.
            return self._result(SolveStatus.UNKNOWN, limit="memory budget")
        finally:
            self._close_room()
            self._in_solve = False
            stats.solve_time_seconds += time.perf_counter() - start_time


    def _sat_result(self) -> SolveResult:
        """The SAT answer for the current assignment, its model checked."""
        model = self._extract_model()
        self._verify_model(model)
        return self._result(SolveStatus.SAT, model=model)

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
        proof = hints = None
        if (
            status is SolveStatus.UNSAT
            and not under_assumptions
            and self.proof is not None
        ):
            proof = list(self.proof)
            hints = list(self.proof_hints)
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
            proof_hints=hints,
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
        for variable, stored, _ in reversed(self._eliminated):
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
        """Check the model against every clause ever added (the solver's
        own copy of its input, whose variables ``num_variables`` bounds)."""
        clause = unsatisfied_word_clause(self._pristine, model, self.num_variables)
        if clause is not None:
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
