"""The CDCL solver package: BerkMin, its ablations, and the Chaff baseline.

Public surface:

* :class:`Solver` — the configurable CDCL engine;
* :func:`solve_formula` — one-shot convenience wrapper;
* :class:`SolverConfig` plus the named ``*_config`` presets from the
  paper's experiments (``berkmin``, ``less_sensitivity``,
  ``less_mobility``, the Table 4 phase variants, ``limited_keeping``,
  ``chaff``);
* :class:`SolveResult` / :class:`SolveStatus` / :class:`SolverStats`.
"""

from repro.solver._kernel import load_arena_kernel
from repro.solver.config import (
    CONFIG_FACTORIES,
    SolverConfig,
    available_configs,
    berkmin561_config,
    berkmin_config,
    chaff_config,
    config_by_name,
    less_mobility_config,
    less_sensitivity_config,
    limited_keeping_config,
    random_decision_config,
    sat_top_config,
    take_0_config,
    take_1_config,
    take_rand_config,
    unsat_top_config,
)
from repro.solver.enumeration import count_models, enumerate_models
from repro.solver.graph import ImplicationGraph, ImplicationNode
from repro.solver.heap import VariableOrderHeap
from repro.solver.restart import RestartScheduler, luby
from repro.solver.result import SolveResult, SolveStatus
from repro.solver.solver import Solver, SolverInternalError, solve_formula
from repro.solver.stats import SolverStats, aggregate_stats

# Load (building once if needed) the compiled kernels at import, so
# worker processes forked later inherit the loaded library instead of
# each paying for it on its first solve.
load_arena_kernel()

__all__ = [
    "CONFIG_FACTORIES",
    "ImplicationGraph",
    "ImplicationNode",
    "RestartScheduler",
    "SolveResult",
    "SolveStatus",
    "Solver",
    "SolverConfig",
    "SolverInternalError",
    "SolverStats",
    "VariableOrderHeap",
    "aggregate_stats",
    "available_configs",
    "berkmin561_config",
    "berkmin_config",
    "chaff_config",
    "config_by_name",
    "count_models",
    "enumerate_models",
    "less_mobility_config",
    "less_sensitivity_config",
    "limited_keeping_config",
    "luby",
    "random_decision_config",
    "sat_top_config",
    "solve_formula",
    "take_0_config",
    "take_1_config",
    "take_rand_config",
    "unsat_top_config",
]
