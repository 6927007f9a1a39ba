"""Parallel solving engines: configuration portfolios, batches, groups.

Three entry points, all exposed at the top level of :mod:`repro`:

* :class:`PortfolioSolver` — race diverse
  :class:`~repro.solver.config.SolverConfig` presets on one formula in
  separate processes; the first definite SAT/UNSAT answer wins and the
  losers are cancelled through the :meth:`Solver.interrupt` progress
  hook.
* :func:`solve_batch` — solve many formulas concurrently under one
  configuration with per-instance budgets; a crashed or timed-out worker
  degrades to ``SolveStatus.UNKNOWN`` for its instance without losing
  the batch, and statistics aggregate across the whole run.
* :func:`solve_grouped` — solve *groups* of related queries, each group
  streamed through one incremental :class:`~repro.session.SolverSession`
  in its worker (learned clauses, activities, and cached answers carry
  across the group's steps).

All three build on cooperative primitives of the sequential engine
(:meth:`Solver.interrupt`, the ``on_progress`` callback) rather than a
separate search implementation, so every configuration, budget, and
result shape of the sequential API carries over unchanged.

One :class:`JobPool` supervises every engine — the three above and the
solver service: a portfolio lane, a batch instance, a group and a
service request are each one job on it.  Supervision comes from
:mod:`repro.reliability`: a :class:`~repro.reliability.RetryPolicy`
relaunches crashed, stalled, or corrupted workers with fresh seeds and
exponential backoff; heartbeat watchdogs catch wedged workers;
``RLIMIT_AS`` ceilings keep memory bounded; and the trusted-results
gate (``verification="sat"``/``"full"``) model-checks SAT answers and
RUP-checks UNSAT proofs in the parent before any answer is returned.
See ``docs/ROBUSTNESS.md``.

Portfolio lanes can additionally *cooperate* through the validated
clause bus of :mod:`repro.parallel.sharing`
(``PortfolioSolver(share=True)``): glue-tier learned clauses are
exchanged under CRC framing and per-importer RUP gating, and Byzantine
exporters are quarantined.
"""

from repro.parallel.batch import BatchResult, solve_batch
from repro.parallel.groups import GroupedResult, GroupOutcome, solve_grouped
from repro.parallel.pool import Job, JobPool
from repro.parallel.portfolio import (
    PORTFOLIO_PRESETS,
    PortfolioSolver,
    default_portfolio,
)
from repro.parallel.sharing import (
    ClauseBus,
    ShareClient,
    ShareFrameError,
    decode_share_frame,
    encode_share_frame,
)

__all__ = [
    "BatchResult",
    "ClauseBus",
    "GroupOutcome",
    "GroupedResult",
    "Job",
    "JobPool",
    "PORTFOLIO_PRESETS",
    "PortfolioSolver",
    "ShareClient",
    "ShareFrameError",
    "decode_share_frame",
    "default_portfolio",
    "encode_share_frame",
    "solve_batch",
    "solve_grouped",
]
