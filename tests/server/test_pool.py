"""JobPool: streaming supervision, deadlines, retries, drain, and the
persistent workers behind its slots."""

import asyncio
import multiprocessing
import os
import signal
import time

import pytest

from repro.cnf.formula import CnfFormula
from repro.generators import pigeonhole_formula
from repro.observability import RingBufferSink, validate_event
from repro.parallel.pool import DEADLINE_EXPIRED, Job, JobPool
from repro.parallel.sharing import ShareClient
from repro.parallel.worker import strip_for_worker
from repro.reliability.faults import FaultPlan, FaultSpec
from repro.reliability.retry import RetryPolicy
from repro.server.protocol import Request
from repro.server.service import SolverService
from repro.solver.config import VERIFY_FULL, config_by_name
from repro.solver.result import SolveStatus

SAT_FORMULA = CnfFormula([[1, 2], [-1, 2]])
UNSAT_FORMULA = CnfFormula([[1], [-1]])

#: Module state a job kind can overwrite inside its worker.
MARKER = "pristine"


# Job kinds for the worker-reuse tests.  They live at module top level,
# so a launch message naming them pickles.
def pid_kind(tag, formula, config, limits, stop, results, *rest):
    """Post the worker's pid and the MARKER it sees."""
    results.put((tag, (os.getpid(), MARKER)))


def poison_kind(tag, formula, config, limits, stop, results, *rest):
    """Overwrite MARKER in the worker, then fail."""
    global MARKER
    MARKER = "poisoned"
    raise RuntimeError("this job leaves its worker poisoned")


def import_kind(tag, formula, config, limits, stop, results, heartbeat,
                attempt, fault, checkpoint_path, checkpoint_interval,
                telemetry_seconds, share_max_lbd, import_queue, *rest):
    """Stamp the heartbeat on entry, then post the first import frames
    addressed to this job (waiting up to 10 s for them)."""
    heartbeat.value = started = time.monotonic()
    client = ShareClient(tag[0], attempt, results, import_queue)
    frames: list = []
    while not frames and time.monotonic() - started < 10.0:
        time.sleep(0.01)
        frames = client.drain()
    results.put((tag, frames))


def accept(payload):
    return None


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


# ---------------------------------------------------------------------------
# Persistent workers
# ---------------------------------------------------------------------------
def run_kind(pool: JobPool, job_id: int, kind=pid_kind) -> Job:
    job = pool.submit(
        Job(job_id=job_id, formula=SAT_FORMULA, config=worker_config(),
            worker=kind, check=accept)
    )
    run_until_idle(pool)
    return job


def live_worker_pids() -> set[int]:
    return {process.pid for process in multiprocessing.active_children()}


def test_clean_jobs_run_in_one_persistent_worker(pool_factory):
    pool = pool_factory(size=1)
    first = run_kind(pool, 0)
    second = run_kind(pool, 1)
    assert first.result[0] == second.result[0]
    assert first.result[0] in live_worker_pids()
    assert second.result[1] == "pristine"


def test_a_job_that_poisons_its_worker_cannot_poison_the_next(pool_factory):
    pool = pool_factory(size=1)
    (pid, _) = run_kind(pool, 0).result
    poisoned = run_kind(pool, 1, kind=poison_kind)
    assert poisoned.result.status is SolveStatus.UNKNOWN
    assert poisoned.result.limit_reason.startswith("worker crashed")
    after = run_kind(pool, 2)
    assert after.result[0] != pid
    assert after.result[1] == "pristine"


@pytest.mark.parametrize(
    "ending,pool_kwargs,job_kwargs,outcome",
    [
        ("crash", {"fault_plan": FaultPlan.single("crash", worker=1)}, {},
         "worker crashed (exit 3)"),
        ("stall",
         {"fault_plan": FaultPlan.single("stall", worker=1, seconds=30.0),
          "stall_seconds": 0.5},
         {}, "stalled (no heartbeat)"),
        ("deadline", {}, {"formula": pigeonhole_formula(9), "budget": 0.3},
         "time budget"),
        ("corrupt", {"fault_plan": FaultPlan.single("corrupt", worker=1)}, {},
         "corrupted result"),
        ("fail", {}, {"formula": pigeonhole_formula(9)}, "quarantined (test)"),
    ],
)
def test_every_faulty_ending_retires_the_worker(
    pool_factory, ending, pool_kwargs, job_kwargs, outcome
):
    pool = pool_factory(size=1, **pool_kwargs)
    (pid, _) = run_kind(pool, 0).result
    faulty = pool.submit(
        Job(job_id=1, config=worker_config(), **{"formula": SAT_FORMULA, **job_kwargs})
    )
    if ending == "fail":
        pool.poll()  # launch it
        pool.fail(1, "quarantined (test)")
    run_until_idle(pool)
    assert faulty.result.status is SolveStatus.UNKNOWN
    assert [record.outcome for record in faulty.history] == [outcome]
    assert pid not in live_worker_pids()
    assert run_kind(pool, 2).result[0] != pid


def test_a_retired_worker_exits_at_eof_while_later_slots_live(pool_factory):
    # Workers forked later inherit the parent's end of every earlier
    # slot's job pipe unless they close it; then an earlier worker that
    # posted would never see EOF and would have to be killed.
    pool = pool_factory(size=2, fault_plan=FaultPlan.single("corrupt", worker=2))
    pool.submit(Job(job_id=0, formula=SAT_FORMULA, config=worker_config()))
    pool.submit(Job(job_id=1, formula=pigeonhole_formula(9), config=worker_config()))
    while 0 in pool.jobs:
        pool.poll()
    (idle,) = pool._idle  # job 0's worker; job 1 runs in the later slot
    first = idle.process
    corrupted = pool.submit(Job(job_id=2, formula=SAT_FORMULA, config=worker_config()))
    while not corrupted.done:
        pool.poll()
    assert corrupted.history[0].outcome == "corrupted result"
    assert 1 in pool.active  # the later slot is still busy
    assert first.exitcode == 0
    pool.shed("test over")


def test_budget_unknown_keeps_the_worker(pool_factory):
    pool = pool_factory(size=1)
    (pid, _) = run_kind(pool, 0).result
    budgeted = pool.submit(
        Job(job_id=1, formula=pigeonhole_formula(8), config=worker_config(),
            limits={"max_conflicts": 50})
    )
    run_until_idle(pool)
    assert budgeted.result.limit_reason == "conflict budget"
    assert run_kind(pool, 2).result[0] == pid


def test_tick_that_finds_a_crashed_worker_does_not_block():
    # Three attempts crash at entry; each tick that finds one dead must
    # read its channel without waiting.  A tick that launches an attempt
    # may also reap it, if it crashes fast enough, so the test times only
    # the ticks that find an attempt it saw and joined dead beforehand,
    # and never joins attempt 3, the healthy one, which stays alive as a
    # persistent worker.  The fastest measured tick is bounded, so one
    # slow scheduling slice cannot fail the test.
    crashing = 3
    service = SolverService(
        pool_size=1,
        retry=RetryPolicy(max_attempts=crashing + 1, backoff=0.01),
        fault_plan=FaultPlan(
            specs=tuple(FaultSpec("crash", worker=0, attempt=a) for a in range(crashing))
        ),
    )
    replies: list[dict] = []
    ticks: list[float] = []
    observed: set[int] = set()
    stop = time.monotonic() + 30.0
    try:
        service.handle(Request(op="solve", request_id=1, clauses=[[1, 2]]),
                       "client", replies.append)
        while not replies:
            assert time.monotonic() < stop, "the retried request never answered"
            slots = list(service.pool.active.values())
            if slots and slots[0].attempt < crashing:
                (slot,) = slots
                observed.add(slot.attempt)
                slot.process.join(10.0)  # dead before the measured tick
                assert slot.process.exitcode == 3
                started = time.perf_counter()
                service.tick()
                ticks.append(time.perf_counter() - started)
                assert slot.attempt not in {s.attempt for s in service.pool.active.values()}
                continue
            service.tick()
            time.sleep(0.005)
        assert service.pool.retries == crashing
    finally:
        service.close()
    assert ticks, "no attempt was seen before the tick that reaped it"
    assert len(ticks) == len(observed)
    assert min(ticks) < 0.05, ticks
    assert replies[0]["kind"] == "result" and replies[0]["status"] == "SAT"

def test_close_stops_waiting_once_every_attempt_has_posted(pool_factory):
    pool = pool_factory(size=2)
    for job_id in (0, 1):
        pool.submit(
            Job(job_id=job_id, formula=pigeonhole_formula(10), config=worker_config())
        )
    pool.poll()
    workers = [slot.process for slot in pool.active.values()]
    assert len(workers) == 2
    time.sleep(0.2)  # both are searching
    started = time.monotonic()
    pool.close(5.0)
    assert time.monotonic() - started < 2.0
    assert not [process for process in workers if process.is_alive()]
    assert not live_worker_pids() & {process.pid for process in workers}


def test_a_frame_queued_for_one_job_never_reaches_the_next(pool_factory):
    from repro.parallel.sharing import ClauseBus

    bus = ClauseBus(SAT_FORMULA, 2, rng=None)
    pool = pool_factory(size=1, bus=bus)
    run_kind(pool, 0)
    (slot,) = pool._idle
    # Frames the bus routed to job 0 arrive after job 0 has ended: one
    # already in the pipe when job 1 starts, one only once it runs.
    slot.imports.put((0, 0, 0, b"stale frame"))
    stop = time.monotonic() + 10.0
    while slot.imports.empty():
        assert time.monotonic() < stop, "the frame never reached the pipe"
        time.sleep(0.01)
    job = pool.submit(
        Job(job_id=1, formula=SAT_FORMULA, config=worker_config(),
            worker=import_kind, check=accept)
    )
    launched = time.monotonic()
    pool.poll(timeout=0.0)  # launch job 1 into the same slot
    while slot.heartbeat.value < launched:
        assert time.monotonic() < stop, "job 1 never started"
        time.sleep(0.01)
    slot.imports.put((0, 0, 0, b"late frame"))
    slot.imports.put((1, 0, 0, b"frame for job 1"))
    run_until_idle(pool)
    assert job.result == [(0, b"frame for job 1")]


def test_worker_sigterm_is_fatal_and_never_reaches_the_parent_loop(pool_factory):
    # The service forks workers from a process whose event loop handles
    # SIGTERM; a worker must not inherit that handling.
    handled: list[int] = []

    async def scenario():
        loop = asyncio.get_running_loop()
        loop.add_signal_handler(signal.SIGTERM, handled.append, signal.SIGTERM)
        try:
            pool = pool_factory(size=1)
            (pid, _) = run_kind(pool, 0).result
            (slot,) = pool._idle
            os.kill(pid, signal.SIGTERM)
            slot.process.join(5.0)
            await asyncio.sleep(0.2)  # a forwarded signal would run now
            return slot.process.exitcode
        finally:
            loop.remove_signal_handler(signal.SIGTERM)

    assert asyncio.run(scenario()) == -signal.SIGTERM
    assert handled == []
