"""JobPool: streaming supervision, deadlines, retries, drain."""

import time

import pytest

from repro.cnf.formula import CnfFormula
from repro.generators import pigeonhole_formula
from repro.observability import RingBufferSink, validate_event
from repro.parallel.pool import DEADLINE_EXPIRED, Job, JobPool
from repro.parallel.worker import strip_for_worker
from repro.reliability.faults import FaultPlan, FaultSpec
from repro.reliability.retry import RetryPolicy
from repro.solver.config import VERIFY_FULL, config_by_name
from repro.solver.result import SolveStatus

SAT_FORMULA = CnfFormula([[1, 2], [-1, 2]])
UNSAT_FORMULA = CnfFormula([[1], [-1]])


def worker_config(seed: int = 7):
    return strip_for_worker(config_by_name("berkmin", seed=seed), VERIFY_FULL)


def run_until_idle(pool: JobPool, timeout: float = 60.0) -> list[Job]:
    finished: list[Job] = []
    stop = time.monotonic() + timeout
    while not pool.idle:
        assert time.monotonic() < stop, "pool did not converge"
        finished.extend(pool.poll())
    return finished


@pytest.fixture
def pool_factory():
    pools: list[JobPool] = []

    def make(**kwargs):
        kwargs.setdefault("verification", VERIFY_FULL)
        pool = JobPool(kwargs.pop("size", 2), **kwargs)
        pools.append(pool)
        return pool

    yield make
    for pool in pools:
        pool.close()


def test_submits_stream_to_verified_results(pool_factory):
    pool = pool_factory(size=2)
    done_order: list[int] = []
    jobs = [
        Job(job_id=0, formula=SAT_FORMULA, config=worker_config(),
            on_done=lambda job: done_order.append(job.job_id)),
        Job(job_id=1, formula=UNSAT_FORMULA, config=worker_config(),
            on_done=lambda job: done_order.append(job.job_id)),
    ]
    for job in jobs:
        pool.submit(job)
    assert pool.load == 2
    run_until_idle(pool)
    assert sorted(done_order) == [0, 1]
    assert jobs[0].result.status is SolveStatus.SAT
    assert jobs[0].result.verified is not None
    assert jobs[1].result.status is SolveStatus.UNSAT
    assert jobs[1].result.verified is not None
    assert pool.retries == 0


def test_queued_deadline_expires_without_launching(pool_factory):
    pool = pool_factory(size=1)
    job = Job(
        job_id=0, formula=SAT_FORMULA, config=worker_config(),
        deadline=time.monotonic() - 1.0,
    )
    pool.submit(job)
    run_until_idle(pool)
    assert job.result.status is SolveStatus.UNKNOWN
    assert job.result.limit_reason == DEADLINE_EXPIRED
    assert job.attempts == 0  # cancelled, never launched


def test_budget_kill_is_an_honest_unknown(pool_factory):
    pool = pool_factory(size=1)
    job = Job(
        job_id=0, formula=pigeonhole_formula(9), config=worker_config(),
        budget=0.2,
    )
    pool.submit(job)
    run_until_idle(pool)
    assert job.result.status is SolveStatus.UNKNOWN
    assert job.result.limit_reason == "time budget"
    assert job.attempts == 1  # a blown budget is not retried


def launches(trace: RingBufferSink) -> list[tuple[str, int]]:
    return [
        (event["type"], event["attempt"])
        for event in trace.events
        if event["type"] in ("worker_start", "worker_retry")
    ]


def test_crashed_worker_is_recycled_and_retried(pool_factory):
    trace = RingBufferSink()
    pool = pool_factory(
        size=1,
        retry=RetryPolicy(max_attempts=3, backoff=0.01),
        fault_plan=FaultPlan.single("crash", worker=0, attempt=0),
        trace=trace,
    )
    job = Job(job_id=0, formula=SAT_FORMULA, config=worker_config())
    pool.submit(job)
    run_until_idle(pool)
    assert job.result.status is SolveStatus.SAT
    assert job.result.verified is not None
    assert pool.retries == 1
    assert [record.outcome for record in job.history][-1] == "ok"
    faults = [
        (event["lane"], event["reason"], event["will_retry"])
        for event in trace.events
        if event["type"] == "worker_fault"
    ]
    assert faults == [(0, job.history[0].outcome, True)]
    assert launches(trace) == [("worker_start", 0), ("worker_retry", 1)]
    assert trace.events[-1] == {
        "type": "job_end", "lane": 0, "answered": True, "attempt": 1,
        "status": "SAT",
    }
    for event in trace.events:
        assert validate_event(event) is None, event


def test_preempted_relaunch_is_not_traced_as_a_retry(pool_factory):
    trace = RingBufferSink()
    pool = pool_factory(size=1, trace=trace)
    job = pool.submit(
        Job(
            job_id=0, formula=pigeonhole_formula(9), config=worker_config(),
            stop=pool.context.Event(),
        )
    )
    pool.poll()
    assert pool.preempt(0, "adapt:test", 1.0) == 0
    stop = time.monotonic() + 30.0
    while job.attempts < 2:
        assert time.monotonic() < stop, "preempted job was never relaunched"
        pool.poll()
    assert job.history[0].outcome == "adapt:test"
    assert launches(trace) == [("worker_start", 0), ("worker_start", 1)]
    assert pool.retries == 0


def test_every_job_ends_with_exactly_one_job_end(pool_factory):
    trace = RingBufferSink()
    pool = pool_factory(size=1, trace=trace)
    jobs = [
        pool.submit(Job(job_id=0, formula=pigeonhole_formula(9), config=worker_config())),
        pool.submit(Job(job_id=1, formula=pigeonhole_formula(9), config=worker_config())),
        pool.submit(
            Job(
                job_id=2, formula=pigeonhole_formula(9), config=worker_config(),
                deadline=time.monotonic() + 0.3,
            )
        ),
    ]
    stop = time.monotonic() + 1.0
    while time.monotonic() < stop:
        pool.poll()
    pool.shed("terminated (drain)")
    assert [job.result.limit_reason for job in jobs] == [
        "terminated (drain)", "terminated (drain)", DEADLINE_EXPIRED,
    ]
    ends = [event for event in trace.events if event["type"] == "job_end"]
    assert sorted(event["lane"] for event in ends) == [0, 1, 2]
    assert not any(event["answered"] for event in ends)
    assert {event["lane"]: event["limit_reason"] for event in ends} == {
        0: "terminated (drain)", 1: "terminated (drain)", 2: DEADLINE_EXPIRED,
    }
    for event in ends:
        assert validate_event(event) is None, event


def test_stalled_worker_is_terminated_by_the_heartbeat_watchdog(pool_factory):
    pool = pool_factory(
        size=1,
        retry=RetryPolicy(max_attempts=3, backoff=0.01),
        stall_seconds=0.5,
        fault_plan=FaultPlan.single("stall", worker=0, attempt=0, seconds=30.0),
    )
    job = Job(job_id=0, formula=SAT_FORMULA, config=worker_config())
    pool.submit(job)
    run_until_idle(pool)
    assert job.result.status is SolveStatus.SAT
    assert job.history[0].outcome == "stalled (no heartbeat)"
    assert pool.retries == 1


def test_exhausted_retries_degrade_truthfully(pool_factory):
    pool = pool_factory(
        size=1,
        retry=RetryPolicy(max_attempts=2, backoff=0.01),
        fault_plan=FaultPlan(
            specs=(
                FaultSpec(mode="crash", worker=0, attempt=0),
                FaultSpec(mode="crash", worker=0, attempt=1),
            )
        ),
    )
    job = Job(job_id=0, formula=SAT_FORMULA, config=worker_config())
    pool.submit(job)
    run_until_idle(pool)
    assert job.result.status is SolveStatus.UNKNOWN
    assert job.result.degraded
    assert job.attempts == 2


def test_drain_finalizes_everything_and_refuses_new_work(pool_factory):
    pool = pool_factory(size=1)
    slow = Job(job_id=0, formula=pigeonhole_formula(9), config=worker_config())
    queued = Job(job_id=1, formula=SAT_FORMULA, config=worker_config())
    pool.submit(slow)
    pool.submit(queued)
    pool.poll()  # launch the slow job into the only slot
    pool.drain(grace_seconds=0.1, cancel_seconds=1.5)
    assert slow.done and queued.done
    assert slow.result.status is SolveStatus.UNKNOWN
    with pytest.raises(RuntimeError):
        pool.submit(Job(job_id=2, formula=SAT_FORMULA, config=worker_config()))


def test_finalized_jobs_are_pruned_from_the_pool_index(pool_factory):
    # A long-running server streams an unbounded number of jobs through
    # one pool; retaining finalized Jobs (formula + history + reply
    # closure) would leak until OOM.
    pool = pool_factory(size=2)
    jobs = [
        Job(job_id=0, formula=SAT_FORMULA, config=worker_config()),
        Job(job_id=1, formula=UNSAT_FORMULA, config=worker_config()),
    ]
    for job in jobs:
        pool.submit(job)
    run_until_idle(pool)
    assert all(job.done for job in jobs)  # callers keep their references
    assert pool.jobs == {}
    assert pool._collected == {}


def test_saturated_pool_still_expires_queued_deadlines(pool_factory):
    pool = pool_factory(size=1)
    slow = Job(job_id=0, formula=pigeonhole_formula(9), config=worker_config())
    queued = Job(
        job_id=1, formula=SAT_FORMULA, config=worker_config(),
        deadline=time.monotonic() + 0.3,
    )
    pool.submit(slow)
    pool.submit(queued)
    pool.poll()  # the slow job owns the only slot
    stop = time.monotonic() + 30.0
    while not queued.done:
        assert time.monotonic() < stop, "queued deadline never expired"
        pool.poll()
    # The expiry fired while the pool was still saturated — the reply
    # must not wait for a slot to free up.
    assert 0 in pool.active
    assert queued.result.status is SolveStatus.UNKNOWN
    assert queued.result.limit_reason == DEADLINE_EXPIRED
    pool.shed("test over")


def test_duplicate_job_id_is_rejected(pool_factory):
    pool = pool_factory(size=1)
    pool.submit(Job(job_id=0, formula=SAT_FORMULA, config=worker_config()))
    with pytest.raises(ValueError):
        pool.submit(Job(job_id=0, formula=SAT_FORMULA, config=worker_config()))
    run_until_idle(pool)
