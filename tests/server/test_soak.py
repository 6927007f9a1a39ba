"""The soak test: hundreds of concurrent clients against a faulted pool.

The acceptance scenario for the solver service: >=500 concurrent
requests from many connections against a 4-worker pool while a fault
plan kills workers mid-search (SIGKILL after 100 conflicts), at entry
(crash), by wedging (stall), and by corrupting a result.  Every client
must get a verified answer, a truthful UNKNOWN, or an explicit
BUSY/DEADLINE refusal — no hangs, no wrong answers, no orphaned
worker processes, and a clean shutdown afterwards.
"""

import asyncio
import multiprocessing
import time

from repro.generators import pigeonhole_formula
from repro.observability import RingBufferSink
from repro.reliability.faults import FaultPlan, FaultSpec
from repro.reliability.retry import RetryPolicy
from repro.server.admission import AdmissionController
from repro.server.client import AsyncSolverClient
from repro.server.ops import ServiceOps
from repro.server.server import SolverServer
from repro.server.service import SolverService
from repro.solver.config import VERIFY_FULL, config_by_name

CONNECTIONS = 8
REQUESTS_PER_CONNECTION = 63  # 8 * 63 = 504 flood requests

# Distinct formulas with ground truth known by construction.  Each
# appears many times across the flood, so the shared answer cache and
# its single-flight-free concurrency both get exercised.
FLOOD = []
for j in range(1, 26):
    FLOOD.append(([[j]], "SAT"))
    FLOOD.append(([[j], [-j]], "UNSAT"))

# The four victims are submitted first so they take pool job ids 0-3,
# which is what the fault plan keys on.  All four first attempts die;
# retries run clean.
HOLE6 = [list(clause) for clause in pigeonhole_formula(6).clauses]
VICTIMS = [
    (HOLE6, "UNSAT"),  # job 0: SIGKILL mid-search after 100 conflicts
    ([[101, 102], [-101, 102]], "SAT"),  # job 1: crash at entry
    ([[103], [104]], "SAT"),  # job 2: computes, then wedges (stall)
    ([[105, 106], [105, -106]], "SAT"),  # job 3: corrupted result
]
FAULT_PLAN = FaultPlan(
    specs=(
        FaultSpec(mode="signal", worker=0, attempt=0, after_conflicts=100),
        FaultSpec(mode="crash", worker=1, attempt=0),
        FaultSpec(mode="stall", worker=2, attempt=0, seconds=60.0),
        FaultSpec(mode="corrupt", worker=3, attempt=0),
    )
)

HOLE8 = [list(clause) for clause in pigeonhole_formula(8).clauses]


def test_soak_500_concurrent_requests_under_worker_killing_faults():
    spans = RingBufferSink(capacity=65536)

    async def scenario():
        service = SolverService(
            pool_size=4,
            config=config_by_name("berkmin", seed=42),
            verification=VERIFY_FULL,
            retry=RetryPolicy(max_attempts=3, backoff=0.02),
            stall_seconds=1.0,
            admission=AdmissionController(max_queue=64, per_client=64),
            fault_plan=FAULT_PLAN,
            ops=ServiceOps(spans),
        )
        server = SolverServer(service, port=0)
        await server.start()
        try:
            clients = [AsyncSolverClient(port=server.port) for _ in range(CONNECTIONS)]
            for client in clients:
                await client.connect()
            try:
                # Victims first: wait until all four occupy job ids 0-3.
                victim_tasks = [
                    asyncio.create_task(
                        clients[0].solve(clauses, timeout=30.0)
                    )
                    for clauses, _ in VICTIMS
                ]
                deadline = time.monotonic() + 20.0
                while service._next_job_id < len(VICTIMS):
                    assert time.monotonic() < deadline, "victims never submitted"
                    await asyncio.sleep(0.01)
                # Two probes whose deadlines cannot be met: explicit
                # DEADLINE replies, never silence.
                probe_tasks = [
                    asyncio.create_task(clients[1].solve(HOLE8, timeout=0.05))
                    for _ in range(2)
                ]
                flood_tasks = []
                for c, client in enumerate(clients):
                    for r in range(REQUESTS_PER_CONNECTION):
                        clauses, _ = FLOOD[(c * REQUESTS_PER_CONNECTION + r) % len(FLOOD)]
                        flood_tasks.append(
                            asyncio.create_task(client.solve(clauses, timeout=15.0))
                        )
                everything = victim_tasks + probe_tasks + flood_tasks
                replies = await asyncio.wait_for(
                    asyncio.gather(*everything), timeout=300.0
                )
            finally:
                for client in clients:
                    await client.close()
        finally:
            await server.shutdown()
        return replies, service

    replies, service = asyncio.run(scenario())
    victims = replies[: len(VICTIMS)]
    probes = replies[len(VICTIMS) : len(VICTIMS) + 2]
    flood = replies[len(VICTIMS) + 2 :]
    expected = [truth for _, truth in VICTIMS] + [None, None] + [
        FLOOD[(c * REQUESTS_PER_CONNECTION + r) % len(FLOOD)][1]
        for c in range(CONNECTIONS)
        for r in range(REQUESTS_PER_CONNECTION)
    ]

    # Every request got exactly one reply, and ≥500 were in flight.
    assert len(replies) == len(VICTIMS) + 2 + CONNECTIONS * REQUESTS_PER_CONNECTION
    assert len(replies) >= 500

    # No hangs happened (gather returned) and every reply is one of the
    # contract's explicit outcomes.
    kinds = {reply["kind"] for reply in replies}
    assert kinds <= {"result", "busy", "deadline"}, kinds

    # Zero wrong answers: every definite result matches ground truth
    # and carries its verification witness; every UNKNOWN is truthful.
    wrong = []
    for reply, truth in zip(replies, expected):
        if reply["kind"] != "result":
            continue
        if reply["status"] == "UNKNOWN":
            if not reply.get("limit_reason"):
                wrong.append(reply)
        else:
            if truth is not None and reply["status"] != truth:
                wrong.append(reply)
            if reply["verified"] is None:
                wrong.append(reply)
    assert not wrong, wrong[:5]

    # The probes' deadlines were honored with explicit refusals.
    assert all(probe["kind"] == "deadline" for probe in probes), probes

    # The fault plan really did kill workers, and the pool healed:
    # every victim recovered to its true answer on a clean retry.
    assert service.pool.retries >= 3, service.pool.stats if hasattr(service.pool, "stats") else service.pool.retries
    for reply, (_, truth) in zip(victims, VICTIMS):
        assert reply["kind"] == "result" and reply["status"] == truth, reply
        assert reply["verified"] is not None

    # The long-running server does not leak: every finalized job left
    # the pool's index, and no disconnected client's admission state
    # survived its final release.
    assert service.pool.jobs == {}
    assert service.admission.summary()["clients"] == 0

    # Observability held under fire: every reply is attributable to a
    # *complete* span tree (admission -> reply, every span closed), and
    # no request was left open after its reply went out.
    assert service.ops.open_count == 0, service.ops.open_requests()
    assert len(spans) < spans.capacity  # the ring kept every span event
    starts = [e for e in spans.events if e["type"] == "span_start"]
    ends = [e for e in spans.events if e["type"] == "span_end"]
    roots = [e for e in ends if e["name"] == "request"]
    assert len(roots) == service.ops.finished == len(replies)
    unclosed = {(e["request_id"], e["span_id"]) for e in starts} - {
        (e["request_id"], e["span_id"]) for e in ends
    }
    assert not unclosed, sorted(unclosed)[:5]
    assert {root["kind"] for root in roots} <= {"result", "busy", "deadline"}
    assert {e["op"] for e in starts if e["name"] == "request"} == {"solve"}
    # The faulted victims show up as multi-attempt trees: the retries
    # the pool performed are visible per-request, not just as a counter.
    attempts: dict = {}
    for start in starts:
        if start["name"].startswith("solve-attempt-"):
            attempts[start["request_id"]] = attempts.get(start["request_id"], 0) + 1
    retried = [rid for rid, count in attempts.items() if count >= 2]
    assert len(retried) >= 3, sorted(attempts.values())[-8:]
    # The scrape survives the same load and reports real percentiles.
    from repro.server.ops import prometheus_text

    scrape = prometheus_text(service)
    assert 'reprosat_phase_latency_seconds{phase="solve",quantile="0.99"}' in scrape
    assert 'reprosat_replies_total{kind="result"}' in scrape

    # No orphaned worker processes survive shutdown.
    deadline = time.monotonic() + 5.0
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    assert multiprocessing.active_children() == []
