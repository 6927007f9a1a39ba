"""Search statistics, including the paper's instrumentation.

Beyond the usual CDCL counters, :class:`SolverStats` records everything
the paper's tables report:

* the **skin effect** histogram ``f(r)`` of Section 6 / Table 3 — how
  far from the top of the learned-clause stack the current top clause
  was at each top-clause decision;
* the **database-size ratios** of Table 9: total conflict clauses ever
  generated and the peak number of clauses simultaneously in memory,
  both relative to the initial CNF;
* the **decision count** of Table 8.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

#: Wall-time floor below which throughput rates report 0.0 instead of a
#: count/epsilon explosion.  Trivial solves (empty formula, immediate
#: level-0 conflict) legitimately finish in under a microsecond; a
#: "rate" computed over such a window is clock noise, not throughput.
_MIN_MEASURABLE_SECONDS = 1e-6


@dataclass
class SolverStats:
    """Counters accumulated over one or more :meth:`Solver.solve` calls."""

    decisions: int = 0
    conflicts: int = 0
    propagations: int = 0
    restarts: int = 0
    db_reductions: int = 0

    # Learned-clause accounting (Table 9).
    learned_total: int = 0  # conflict clauses ever generated
    learned_units: int = 0  # of which unit clauses
    learned_deleted: int = 0  # removed by database management
    peak_clauses: int = 0  # max clauses simultaneously in memory
    initial_clauses: int = 0  # clauses in the CNF as loaded

    # Decision provenance (Sections 5-7).
    top_clause_decisions: int = 0  # made on the current top clause
    formula_decisions: int = 0  # made when all conflict clauses satisfied
    max_decision_level: int = 0

    # Skin effect (Section 6, Table 3): distance r -> number of times the
    # current top clause sat at distance r from the top of the stack.
    skin_effect: dict[int, int] = field(default_factory=dict)

    # Reliability layer: worker relaunches performed by the supervised
    # parallel engines (crash/hang/corruption recoveries, not budget
    # exhaustion).  Zero for sequential solves.
    worker_retries: int = 0

    # Checkpointing (see repro.checkpoint): snapshots written by the
    # periodic writer, and warm resumes applied from a prior snapshot.
    checkpoints_written: int = 0
    resumes: int = 0

    # Incremental sessions (see repro.session): solve calls issued
    # through a SolverSession, answers served from its result/lemma
    # cache without search, and learned clauses carried across calls by
    # the LBD retention filter.  Zero for plain one-shot solves.
    session_calls: int = 0
    cache_hits: int = 0
    #: Entries LRU-evicted from the bounded AnswerCache during this
    #: session's store calls (cache pressure, visible fleet-wide).
    cache_evictions: int = 0
    retained_clauses: int = 0

    # Cooperative clause sharing (see repro.parallel.sharing): learned
    # clauses this solver exported onto the fleet bus, validated imports
    # it attached, imports it rejected at the validation gate (CRC /
    # range / eliminated-variable / tautology / RUP), and lanes the
    # supervisor quarantined (each failed through the retry policy).
    # Zero for sequential solves.
    shared_exported: int = 0
    shared_imported: int = 0
    shared_rejected: int = 0
    lane_restarts: int = 0

    # Inprocessing and the clause arena (see repro.solver.solver):
    # inprocessing passes run between restarts, variables removed by
    # bounded elimination, arena compactions performed, and the total
    # words they reclaimed.
    inprocess_passes: int = 0
    eliminated_variables: int = 0
    arena_collections: int = 0
    arena_freed_words: int = 0

    solve_time_seconds: float = 0.0

    # ------------------------------------------------------------------
    # Derived quantities used by the tables
    # ------------------------------------------------------------------
    def record_skin_distance(self, distance: int) -> None:
        """Count one top-clause decision made at ``distance`` from the top."""
        self.skin_effect[distance] = self.skin_effect.get(distance, 0) + 1

    def database_growth_ratio(self) -> float:
        """Table 9's ``(Database size)/(Initial CNF size)``.

        The paper defines it as the ratio of the total number of generated
        conflict clauses plus initial clauses to the number of initial
        clauses.
        """
        if self.initial_clauses == 0:
            return 0.0
        return (self.learned_total + self.initial_clauses) / self.initial_clauses

    def peak_memory_ratio(self) -> float:
        """Table 9's ``(Largest CNF size)/(Initial CNF size)``."""
        if self.initial_clauses == 0:
            return 0.0
        return self.peak_clauses / self.initial_clauses

    def skin_profile(self, distances: tuple[int, ...] = (0, 1, 2, 3, 4, 5, 10, 50, 100)) -> dict[int, int]:
        """Return ``f(r)`` sampled at the given distances (Table 3 rows)."""
        return {distance: self.skin_effect.get(distance, 0) for distance in distances}

    # ------------------------------------------------------------------
    # Throughput rates (the perf harness's currency; see docs/BENCHMARKS.md)
    # ------------------------------------------------------------------
    def _rate(self, count: int) -> float:
        elapsed = self.solve_time_seconds
        if not math.isfinite(elapsed) or elapsed < _MIN_MEASURABLE_SECONDS:
            return 0.0
        rate = count / elapsed
        return rate if math.isfinite(rate) else 0.0

    def propagations_per_second(self) -> float:
        """BCP throughput over the recorded solve time (0 when untimed)."""
        return self._rate(self.propagations)

    def conflicts_per_second(self) -> float:
        """Conflict throughput over the recorded solve time (0 when untimed)."""
        return self._rate(self.conflicts)

    def decisions_per_second(self) -> float:
        """Decision throughput over the recorded solve time (0 when untimed)."""
        return self._rate(self.decisions)

    def rates(self) -> dict[str, float]:
        """The three throughput rates as a flat dict (bench JSON rows)."""
        return {
            "propagations_per_second": self.propagations_per_second(),
            "conflicts_per_second": self.conflicts_per_second(),
            "decisions_per_second": self.decisions_per_second(),
        }

    def merge(self, other: "SolverStats") -> "SolverStats":
        """Fold ``other`` into this snapshot (in place); returns ``self``.

        Counters add; ``peak_clauses`` and ``max_decision_level`` take
        the maximum (they are per-solve peaks, not totals); the skin
        histogram merges bucket-wise.  Used by the batch engine to
        aggregate statistics across many independent solves.
        """
        self.decisions += other.decisions
        self.conflicts += other.conflicts
        self.propagations += other.propagations
        self.restarts += other.restarts
        self.db_reductions += other.db_reductions
        self.learned_total += other.learned_total
        self.learned_units += other.learned_units
        self.learned_deleted += other.learned_deleted
        self.peak_clauses = max(self.peak_clauses, other.peak_clauses)
        self.initial_clauses += other.initial_clauses
        self.top_clause_decisions += other.top_clause_decisions
        self.formula_decisions += other.formula_decisions
        self.max_decision_level = max(self.max_decision_level, other.max_decision_level)
        for distance, count in other.skin_effect.items():
            self.skin_effect[distance] = self.skin_effect.get(distance, 0) + count
        self.worker_retries += other.worker_retries
        self.checkpoints_written += other.checkpoints_written
        self.resumes += other.resumes
        self.session_calls += other.session_calls
        self.cache_hits += other.cache_hits
        self.cache_evictions += other.cache_evictions
        self.retained_clauses += other.retained_clauses
        self.shared_exported += other.shared_exported
        self.shared_imported += other.shared_imported
        self.shared_rejected += other.shared_rejected
        self.lane_restarts += other.lane_restarts
        self.inprocess_passes += other.inprocess_passes
        self.eliminated_variables += other.eliminated_variables
        self.arena_collections += other.arena_collections
        self.arena_freed_words += other.arena_freed_words
        self.solve_time_seconds += other.solve_time_seconds
        return self

    def as_dict(self) -> dict:
        """Flat summary used by the CLI and the experiment harness."""
        return {
            "decisions": self.decisions,
            "conflicts": self.conflicts,
            "propagations": self.propagations,
            "restarts": self.restarts,
            "db_reductions": self.db_reductions,
            "learned_total": self.learned_total,
            "learned_units": self.learned_units,
            "learned_deleted": self.learned_deleted,
            "peak_clauses": self.peak_clauses,
            "initial_clauses": self.initial_clauses,
            "top_clause_decisions": self.top_clause_decisions,
            "formula_decisions": self.formula_decisions,
            "max_decision_level": self.max_decision_level,
            "worker_retries": self.worker_retries,
            "checkpoints_written": self.checkpoints_written,
            "resumes": self.resumes,
            "session_calls": self.session_calls,
            "cache_hits": self.cache_hits,
            "cache_evictions": self.cache_evictions,
            "retained_clauses": self.retained_clauses,
            "shared_exported": self.shared_exported,
            "shared_imported": self.shared_imported,
            "shared_rejected": self.shared_rejected,
            "lane_restarts": self.lane_restarts,
            "inprocess_passes": self.inprocess_passes,
            "eliminated_variables": self.eliminated_variables,
            "arena_collections": self.arena_collections,
            "arena_freed_words": self.arena_freed_words,
            "database_growth_ratio": round(self.database_growth_ratio(), 3),
            "peak_memory_ratio": round(self.peak_memory_ratio(), 3),
            "solve_time_seconds": round(self.solve_time_seconds, 6),
        }


def aggregate_stats(snapshots) -> SolverStats:
    """Merge an iterable of :class:`SolverStats` into one fresh snapshot."""
    total = SolverStats()
    for snapshot in snapshots:
        total.merge(snapshot)
    return total
