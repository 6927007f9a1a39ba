"""Extension ablations — design choices beyond the paper's tables.

DESIGN.md calls out several knobs the paper fixes by fiat or flags as
future work; these benches quantify them:

* **Restart policy** (Section 10 calls BerkMin's fixed policy "very
  primitive ... close to random" and an important research direction):
  fixed vs geometric vs Luby vs none.
* **Remark 1** — the naive most-active-variable scan under global
  decisions (DESIGN.md §5b says why there is no BerkMin561 heap).
* **Remark 2** — single current top clause vs a wider window of top
  clauses.
* **Clause minimization** — the post-paper MiniSat technique, off in
  BerkMin; measures what the 2002 solvers were leaving on the table.
"""

import pytest

from benchmarks.conftest import solve_case
from repro.experiments.suites import Instance, _hanoi, _hole, _pipe
from repro.solver.result import SolveStatus

INSTANCES = [
    Instance("hole7", lambda: _hole(7), SolveStatus.UNSAT, 80_000),
    Instance("pipe_w4s3", lambda: _pipe(4, 3), SolveStatus.UNSAT, 80_000),
    Instance("hanoi4_T14", lambda: _hanoi(4, 14), SolveStatus.UNSAT, 80_000),
]


@pytest.mark.parametrize("strategy", ["fixed", "geometric", "luby", "none"])
@pytest.mark.parametrize("instance", INSTANCES, ids=lambda i: i.name)
def test_restart_policy_ablation(benchmark, instance, strategy):
    solve_case(benchmark, instance, "berkmin", restart_strategy=strategy)


def test_remark1_most_active_scan(benchmark):
    # less_mobility-style workloads stress global selection the most;
    # hole7 makes thousands of formula-level decisions.
    instance = INSTANCES[0]
    solve_case(benchmark, instance, "berkmin", decision_strategy="global")


@pytest.mark.parametrize("window", [1, 2, 4, 8])
@pytest.mark.parametrize("instance", INSTANCES, ids=lambda i: i.name)
def test_remark2_top_clause_window(benchmark, instance, window):
    solve_case(benchmark, instance, "berkmin", top_clause_window=window)


@pytest.mark.parametrize("minimize", [False, True], ids=["off", "on"])
@pytest.mark.parametrize("instance", INSTANCES, ids=lambda i: i.name)
def test_clause_minimization(benchmark, instance, minimize):
    solve_case(benchmark, instance, "berkmin", clause_minimization=minimize)
