"""repro — a reproduction of "BerkMin: A Fast and Robust Sat-Solver".

Goldberg & Novikov, DATE 2002 (journal version: Discrete Applied
Mathematics 155, 2007).

The package implements the complete BerkMin system: a CDCL SAT solver
with BerkMin's decision-making (top-clause branching over a
chronological conflict-clause stack, responsible-clause variable
activities, database-symmetrizing branch selection, ``nb_two`` phase
scoring) and clause-database management (young/old age-activity-length
deletion), plus every ablation and baseline configuration the paper
evaluates — including a Chaff-style VSIDS preset — and the substrates
needed to regenerate the paper's benchmark families (circuit miters,
planning encodings, pigeonhole/parity instances).  A parallel engine
(:class:`PortfolioSolver`, :func:`solve_batch`) races configurations
and solves batches over multiprocessing workers, supervised by a
reliability layer (:mod:`repro.reliability`) that retries failed
workers, bounds their resources, and verifies every answer — the
operational face of the paper's "fast *and robust*" claim.  A solver
service (:mod:`repro.server`, ``repro-sat serve``) fronts a
self-healing worker pool with an asyncio line-delimited-JSON protocol,
admission control, deadline propagation, and a circuit breaker.  A unified
telemetry layer (:mod:`repro.observability`) adds structured search
tracing, metrics time-series, and a live fleet dashboard, all
zero-cost when disabled (docs/OBSERVABILITY.md).

Quickstart::

    import repro

    formula = repro.CnfFormula([[1, 2], [-1, 2], [1, -2], [-1, -2]])
    result = repro.solve(formula)
    print(result.status)  # SolveStatus.UNSAT
"""

from repro.cnf import (
    CnfFormula,
    parse_dimacs,
    parse_dimacs_file,
    shuffle_formula,
    simplify_formula,
    write_dimacs,
    write_dimacs_file,
)
from repro.observability import (
    FleetDashboard,
    JsonlTraceSink,
    MetricsRegistry,
    RingBufferSink,
    TraceSink,
    read_trace,
    summarize_trace,
)
from repro.parallel import (
    BatchResult,
    GroupedResult,
    PortfolioSolver,
    default_portfolio,
    solve_batch,
    solve_grouped,
)
from repro.reliability import (
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    VerificationError,
    verify_result,
)
from repro.server import (
    AsyncSolverClient,
    SolverClient,
    SolverServer,
    SolverService,
)
from repro.session import AnswerCache, SessionClosedError, SolverSession
from repro.solver import (
    SolveResult,
    SolveStatus,
    Solver,
    SolverConfig,
    available_configs,
    berkmin_config,
    chaff_config,
    config_by_name,
    solve_formula,
)

__version__ = "1.0.0"


def solve(formula, config=None, **limits):
    """Solve ``formula`` (a :class:`CnfFormula` or iterable of clauses).

    Convenience entry point: builds a fresh :class:`Solver` with the
    given configuration (BerkMin by default) and returns its
    :class:`SolveResult`.  Budget keywords (``max_conflicts``,
    ``max_decisions``, ``max_seconds``) are forwarded to
    :meth:`Solver.solve`.
    """
    if not isinstance(formula, CnfFormula):
        formula = CnfFormula(formula)
    return solve_formula(formula, config=config, **limits)


__all__ = [
    "AnswerCache",
    "AsyncSolverClient",
    "BatchResult",
    "CnfFormula",
    "FaultPlan",
    "FaultSpec",
    "GroupedResult",
    "FleetDashboard",
    "JsonlTraceSink",
    "MetricsRegistry",
    "PortfolioSolver",
    "RetryPolicy",
    "RingBufferSink",
    "SessionClosedError",
    "SolveResult",
    "SolveStatus",
    "Solver",
    "SolverClient",
    "SolverConfig",
    "SolverServer",
    "SolverService",
    "SolverSession",
    "TraceSink",
    "VerificationError",
    "available_configs",
    "berkmin_config",
    "chaff_config",
    "config_by_name",
    "default_portfolio",
    "parse_dimacs",
    "parse_dimacs_file",
    "read_trace",
    "shuffle_formula",
    "simplify_formula",
    "solve",
    "solve_batch",
    "solve_formula",
    "solve_grouped",
    "summarize_trace",
    "verify_result",
    "write_dimacs",
    "write_dimacs_file",
]
