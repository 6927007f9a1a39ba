"""Supervision behaviours shared by every engine that launches workers.

Portfolio lanes and grouped sessions run as job kinds on the same
supervised pool as the batch engine.  These tests pin the behaviours
that are specific to those kinds: warm resume of a killed lane, a hard
group timeout that degrades only its own group, and the portfolio
CLI's SIGTERM cleanup.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time

import pytest

from repro.generators import pigeonhole_formula
from repro.parallel import PortfolioSolver, solve_grouped
from repro.reliability import FaultPlan, FaultSpec, RetryPolicy
from repro.solver.result import SolveStatus

pytestmark = pytest.mark.fault_injection

FAST_RETRY = RetryPolicy(max_attempts=3, backoff=0.01)

CHAIN_GROUP = [
    ([[1, 2], [-1, -2]], [1]),
    ([[2, 3], [-2, -3]], [1, -3]),
    ([], [1, 3]),
]
SHRINK_GROUP = [
    ([[1, 2]], []),
    ([[-1]], []),
    ([[-2]], []),
]


def test_killed_lane_warm_resumes_from_its_checkpoint(tmp_path):
    portfolio = PortfolioSolver(
        ["berkmin"],
        retry=FAST_RETRY,
        verification="full",
        checkpoint_dir=tmp_path,
        checkpoint_interval=100,
        fault_plan=FaultPlan(
            specs=(FaultSpec("signal", worker=0, attempt=0, after_conflicts=300),)
        ),
    )
    result = portfolio.solve(pigeonhole_formula(6))
    assert result.status is SolveStatus.UNSAT
    assert result.verified == "proof"
    assert result.attempts[0].outcome.startswith("worker crashed")
    assert result.attempts[1].resumed_from_conflicts >= 100
    assert result.stats.worker_retries == 1


def test_grouped_hard_timeout_degrades_only_the_hung_group():
    grouped = solve_grouped(
        [CHAIN_GROUP, SHRINK_GROUP],
        jobs=2,
        verification="sat",
        timeout=1.0,
        fault_plan=FaultPlan.single("hang", worker=0, seconds=30.0),
    )
    victim, survivor = grouped.groups
    assert victim.degraded
    assert victim.failure
    assert len(victim.results) == len(CHAIN_GROUP)
    assert all(result.status is SolveStatus.UNKNOWN for result in victim.results)
    assert not survivor.degraded
    assert [result.status for result in survivor.results] == [
        SolveStatus.SAT, SolveStatus.SAT, SolveStatus.UNSAT,
    ]
    assert grouped.retries == 0


def _children(pid: int) -> list[int]:
    """Live child processes of ``pid`` (scanned from /proc)."""
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        # fields[0] is the state, fields[1] the parent pid.
        if int(fields[1]) == pid and fields[0] != "Z":
            children.append(int(entry))
    return children


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return state != "Z"


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
def test_portfolio_cli_sigterm_cleans_up_every_worker(tmp_path):
    from repro.cli import main

    path = tmp_path / "hole10.cnf"
    assert main(["generate", "hole", "--size", "10", "-o", str(path)]) == 0
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "solve", str(path),
         "--portfolio", "--jobs", "2"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    try:
        stop = time.monotonic() + 30.0
        workers: list[int] = []
        while len(workers) < 2:
            assert proc.poll() is None, "the portfolio finished before SIGTERM"
            assert time.monotonic() < stop, "workers never started"
            time.sleep(0.05)
            workers = _children(proc.pid)
        proc.send_signal(signal.SIGTERM)
        stdout, _ = proc.communicate(timeout=30.0)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 143
    assert "terminated (SIGTERM)" in stdout
    assert not [pid for pid in workers if _alive(pid)]


_IDLE_POOL = """
import sys, time
from repro.cnf.formula import CnfFormula
from repro.parallel.pool import Job, JobPool
from repro.solver.config import berkmin_config

pool = JobPool(1)
job = pool.submit(Job(job_id=0, formula=CnfFormula([[1, 2]]), config=berkmin_config()))
while not pool.idle:
    pool.poll()
assert job.result.status.name == "SAT"
print(pool._idle[0].process.pid, flush=True)
time.sleep(60)
"""


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
def test_idle_worker_exits_when_its_parent_is_killed():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.Popen(
        [sys.executable, "-c", _IDLE_POOL], stdout=subprocess.PIPE, text=True, env=env
    )
    try:
        worker = int(proc.stdout.readline())
        assert worker in _children(proc.pid)
        proc.kill()
        proc.wait(timeout=10.0)
        stop = time.monotonic() + 10.0
        while _alive(worker):
            assert time.monotonic() < stop, "the idle worker outlived its parent"
            time.sleep(0.05)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
