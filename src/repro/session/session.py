"""IPASIR-style incremental solving sessions.

A :class:`SolverSession` owns one long-lived :class:`~repro.solver.Solver`
and serves a *stream* of related queries against a growing clause set —
the interface BMC depth sweeps, ATPG fault sets, and planning horizons
actually want (MiniSat's ``add``/``solve``/``assumptions`` loop, the
IPASIR shape).  Three mechanisms make call N+1 cheaper than a cold
solve:

* **state carry-over** — the solver object persists, so variable /
  literal / clause activities, saved phases, and level-0 units flow into
  the next call for free;
* **learned-clause retention** — after every searched call the learned
  stack is filtered by glue: clauses whose LBD exceeds
  ``retain_max_lbd`` are deleted (DRUP-logged), the rest are carried
  over.  LBD 0 means "never measured" and is treated as keep-worthy;
  the topmost and ``protected`` clauses always survive (the paper's
  anti-looping rules);
* **answer/lemma caching** — queries are fingerprinted with the
  order-insensitive canonical form
  (:func:`repro.checkpoint.snapshot.canonical_fingerprint`) and looked
  up in an :class:`~repro.session.cache.AnswerCache` before any search:
  identical queries are answered instantly, UNSAT answers are reused
  for any assumption superset of their core, and cached models answer
  any assumption set they satisfy.

Retention and deletion stay proof-sound across calls: clause *deletions*
are always admissible in DRUP, and a clause learned in call N remains
RUP with respect to the grown formula of call N+1 (adding clauses never
invalidates a derivation), so ``verification="full"`` keeps working on
outright-UNSAT answers mid-stream.  Cache lemma *injection* is the one
exception — an imported lemma carries no derivation — so it is skipped
automatically when proof logging is active.

Sessions snapshot through the same RSCK checkpoint envelope as solver
checkpoints (:meth:`SolverSession.save` / :meth:`SolverSession.load`),
wrapping a solver snapshot together with the session's own clause
stream and call counter.
"""

from __future__ import annotations

import time
from collections.abc import Iterable, Sequence

from repro.checkpoint.envelope import read_checkpoint_file, write_checkpoint_file
from repro.checkpoint.snapshot import (
    SolverSnapshot,
    canonical_fingerprint,
    capture_snapshot,
    restore_snapshot,
)
from repro.cnf.formula import CnfFormula
from repro.session.cache import AnswerCache
from repro.solver.config import VERIFY_OFF, SolverConfig, config_by_name
from repro.solver.result import SolveResult, SolveStatus
from repro.solver.solver import Solver

#: Default glue bound for carry-over: clauses with LBD above this are
#: dropped between calls.  Small LBD = few decision levels glued = high
#: reuse value (the "glue clause" literature's criterion).
DEFAULT_RETAIN_MAX_LBD = 8

_PRIVATE_CACHE = object()  # sentinel: "make me my own AnswerCache"


class SessionClosedError(RuntimeError):
    """Raised when a closed session is asked to add clauses or solve."""


class SolverSession:
    """An incremental solving session over one growing clause set.

    Args:
        formula: initial clauses — a :class:`CnfFormula`, an iterable of
            DIMACS clauses, or ``None`` to start empty.
        config: solver configuration (default :func:`berkmin_config`).
        cache: an :class:`AnswerCache` to share between sessions,
            ``None`` to disable caching, or omitted for a private cache.
        retain_max_lbd: glue bound for learned-clause carry-over; ``0``
            keeps only unmeasured/protected/topmost clauses, ``None``
            disables retention filtering (keep everything).
    """

    def __init__(
        self,
        formula: CnfFormula | Iterable | None = None,
        config: SolverConfig | None = None,
        *,
        cache: AnswerCache | None | object = _PRIVATE_CACHE,
        retain_max_lbd: int | None = DEFAULT_RETAIN_MAX_LBD,
    ) -> None:
        if formula is not None and not isinstance(formula, CnfFormula):
            formula = CnfFormula(formula)
        self.solver = Solver(formula, config=config)
        self.config = self.solver.config
        self.cache: AnswerCache | None = (
            AnswerCache() if cache is _PRIVATE_CACHE else cache
        )
        self.retain_max_lbd = retain_max_lbd
        self.calls = 0
        self.closed = False
        self.last_result: SolveResult | None = None
        self._fingerprint: str | None = None
        if self.solver.trace is not None:
            self.solver.trace.emit(
                {
                    "type": "session_start",
                    "variables": self.solver.num_variables,
                    "clauses": len(self.solver.clauses),
                    "config": self.config.name,
                }
            )
        if self.cache is not None:
            self._import_lemmas()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def __enter__(self) -> "SolverSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def close(self) -> None:
        """End the session; further ``add_clause``/``solve`` calls raise."""
        self.closed = True

    def _check_open(self) -> None:
        if self.closed:
            raise SessionClosedError("this SolverSession has been closed")

    @property
    def stats(self):
        """The live :class:`~repro.solver.stats.SolverStats` of the session."""
        return self.solver.stats

    @property
    def fingerprint(self) -> str:
        """Canonical (order-insensitive) fingerprint of the current clause set."""
        if self._fingerprint is None:
            self._fingerprint = canonical_fingerprint(self.solver._pristine)
        return self._fingerprint

    # ------------------------------------------------------------------
    # Clause stream
    # ------------------------------------------------------------------
    def add_clause(self, dimacs_literals: Iterable[int]) -> bool:
        """Add one clause; returns False once the formula is refuted outright.

        Adding clauses invalidates the current fingerprint (the next
        query keys the cache on the grown formula) but *not* the
        session's earlier UNSAT answers: the formula only grows, so
        UNSAT-under-assumptions cores stay valid forever.
        """
        self._check_open()
        self._fingerprint = None
        return self.solver.add_clause(dimacs_literals)

    def add_clauses(self, clauses: Iterable[Iterable[int]]) -> bool:
        """Add many clauses; returns False once the formula is refuted."""
        self._check_open()
        self._fingerprint = None
        ok = True
        for clause in clauses:
            ok = self.solver.add_clause(clause)
        return ok

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------
    def solve(self, assumptions: Sequence[int] = (), **limits) -> SolveResult:
        """Solve the current clause set under per-call assumptions.

        Checks the answer cache first (exact / core-subsumption /
        model-reuse, in that order); on a miss, runs the retained-state
        CDCL search, passes the answer through the trusted-results gate
        when ``config.verification`` asks for it, applies the glue
        retention filter, and feeds the cache for the calls to come.
        """
        self._check_open()
        started = time.perf_counter()
        call = self.calls
        self.calls += 1
        stats = self.solver.stats
        stats.session_calls += 1
        assumptions = [int(literal) for literal in assumptions]

        if self.cache is not None:
            hit = self.cache.lookup(self.fingerprint, assumptions)
            if hit is not None:
                kind, stored = hit
                stats.cache_hits += 1
                result = self._result_from_cache(stored, assumptions, started)
                self._emit_solve(call, result, served_by=kind)
                self.last_result = result
                return result

        result = self.solver.solve(assumptions, **limits)
        if (
            self.config.verification != VERIFY_OFF
            and result.verified is None
        ):
            # Imported lazily: the reliability layer sits above the solver.
            from repro.reliability.verify import verify_result

            result.verified = verify_result(
                CnfFormula(self.solver._pristine),
                result,
                level=self.config.verification,
            )
        kept, dropped = self._retain()
        self._emit_solve(call, result, served_by="search")
        if self.solver.trace is not None and (kept or dropped):
            self.solver.trace.emit(
                {
                    "type": "session_retention",
                    "call": call,
                    "kept": kept,
                    "dropped": dropped,
                    "max_lbd": -1 if self.retain_max_lbd is None else self.retain_max_lbd,
                }
            )
        if self.cache is not None and result.status is not SolveStatus.UNKNOWN:
            evictions_before = self.cache.evictions
            self.cache.store(self.fingerprint, assumptions, result)
            self.cache.store_lemmas(
                self.fingerprint, self.solver.iter_learned_lemmas()
            )
            # Mirror cache pressure into the stats the fleet aggregates.
            stats.cache_evictions += self.cache.evictions - evictions_before
        self.last_result = result
        return result

    def unsat_core(self) -> list[int] | None:
        """Failed-assumption core of the most recent solve call.

        ``None`` unless that call answered UNSAT under assumptions; the
        returned DIMACS literals are a subset of the assumptions such
        that ``formula AND core`` is unsatisfiable — and they stay valid
        for the rest of the session, because the clause set only grows.
        """
        if self.last_result is None or self.last_result.core is None:
            return None
        return list(self.last_result.core)

    # ------------------------------------------------------------------
    # Retention
    # ------------------------------------------------------------------
    def _retain(self) -> tuple[int, int]:
        """Filter the learned stack by glue; returns ``(kept, dropped)``.

        Delegates to
        :meth:`~repro.solver.solver.Solver.retain_learned_by_lbd`, which
        keeps database reduction's contract: level 0, DRUP-logged
        deletions, watch structures rebuilt.
        """
        return self.solver.retain_learned_by_lbd(self.retain_max_lbd)

    # ------------------------------------------------------------------
    # Cache plumbing
    # ------------------------------------------------------------------
    def _result_from_cache(
        self, stored: dict, assumptions: list[int], started: float
    ) -> SolveResult:
        status = stored["status"]
        under = bool(stored.get("under_assumptions", False))
        model = stored.get("model")
        return SolveResult(
            status=status,
            model=dict(model) if model is not None else None,
            stats=self.solver.stats,
            proof=stored.get("proof"),
            under_assumptions=under,
            core=list(stored["core"]) if stored.get("core") is not None else None,
            config_name=self.config.name,
            wall_seconds=time.perf_counter() - started,
            num_assumptions=len(assumptions),
            verified=stored.get("verified"),
        )

    def _import_lemmas(self) -> int:
        """Attach cached lemmas for this formula; returns how many stuck.

        Skipped entirely under proof logging: an injected lemma has no
        RUP derivation, so it would poison the DRUP trace.
        """
        solver = self.solver
        if solver.proof is not None or not solver._pristine:
            return 0
        imported = 0
        for literals, lbd in self.cache.lemmas_for(self.fingerprint):
            if solver.inject_lemma(literals, lbd):
                imported += 1
        if imported:
            solver.search_cursor = len(solver.learned) - 1
            solver.stats.retained_clauses += imported
        return imported

    def _emit_solve(self, call: int, result: SolveResult, *, served_by: str) -> None:
        trace = self.solver.trace
        if trace is None:
            return
        event = {
            "type": "session_solve",
            "call": call,
            "status": result.status.name,
            "served_by": served_by,
            "assumptions": result.num_assumptions,
            "conflicts": self.solver.stats.conflicts,
        }
        if result.core is not None:
            event["core_size"] = len(result.core)
        trace.emit(event)

    # ------------------------------------------------------------------
    # Snapshots (RSCK envelope, like solver checkpoints)
    # ------------------------------------------------------------------
    def save(self, path) -> None:
        """Write the session — clause stream plus solver state — to ``path``.

        Uses the same versioned, CRC-guarded, atomically-written RSCK
        envelope as solver checkpoints; the payload nests a full solver
        snapshot under the session's own bookkeeping.
        """
        write_checkpoint_file(
            path,
            {
                "session": {
                    "calls": self.calls,
                    "pristine": [list(clause) for clause in self.solver._pristine],
                    "config_name": self.config.name,
                    "retain_max_lbd": self.retain_max_lbd,
                },
                "solver": capture_snapshot(self.solver).to_payload(),
            },
        )

    @classmethod
    def load(
        cls,
        path,
        config: SolverConfig | None = None,
        *,
        cache: AnswerCache | None | object = _PRIVATE_CACHE,
    ) -> "SolverSession":
        """Rebuild a saved session: re-add its clause stream, warm-resume.

        ``config`` defaults to the named configuration recorded in the
        snapshot.  Restoring follows the checkpoint layer's defensive
        contract — a snapshot that no longer fits degrades to a cold
        start with a :class:`~repro.checkpoint.snapshot.CheckpointWarning`.
        """
        payload = read_checkpoint_file(path)
        meta = payload["session"]
        if config is None:
            config = config_by_name(str(meta["config_name"]))
        session = cls(
            None,
            config,
            cache=cache,
            retain_max_lbd=meta.get("retain_max_lbd", DEFAULT_RETAIN_MAX_LBD),
        )
        for clause in meta["pristine"]:
            session.solver.add_clause([int(literal) for literal in clause])
        restore_snapshot(session.solver, SolverSnapshot.from_payload(payload["solver"]))
        session.calls = int(meta["calls"])
        session._fingerprint = None
        return session
