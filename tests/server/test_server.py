"""End-to-end service tests: asyncio server + client over a real socket."""

import asyncio
import json

import pytest

from repro.server.admission import REASON_QUEUE_FULL, AdmissionController
from repro.server.client import AsyncSolverClient, SolverClient
from repro.server.server import SolverServer
from repro.server.service import REASON_DRAINING, SolverService
from repro.solver.config import VERIFY_FULL, config_by_name

SAT_CLAUSES = [[1, 2], [-1, 2], [1, -2]]
UNSAT_CLAUSES = [[1, 2], [-1, 2], [1, -2], [-1, -2]]


def _hole(holes):
    from repro.generators import pigeonhole_formula

    return [list(clause) for clause in pigeonhole_formula(holes).clauses]


def run(coroutine):
    return asyncio.run(coroutine)


def make_service(**kwargs):
    kwargs.setdefault("pool_size", 2)
    kwargs.setdefault("config", config_by_name("berkmin", seed=11))
    kwargs.setdefault("verification", VERIFY_FULL)
    kwargs.setdefault("retry", 1)
    return SolverService(**kwargs)


async def serve(service, **kwargs):
    server = SolverServer(service, **kwargs)
    await server.start()
    return server


def test_concurrent_solves_get_correct_verified_answers():
    async def scenario():
        service = make_service()
        server = await serve(service)
        try:
            async with AsyncSolverClient(port=server.port) as client:
                replies = await asyncio.wait_for(
                    asyncio.gather(
                        client.solve(SAT_CLAUSES, timeout=10.0),
                        client.solve(UNSAT_CLAUSES, timeout=10.0),
                        client.ping(),
                    ),
                    timeout=60.0,
                )
        finally:
            await server.shutdown()
        return replies

    sat, unsat, pong = run(scenario())
    assert sat["kind"] == "result" and sat["status"] == "SAT"
    assert sat["verified"] is not None
    assert unsat["kind"] == "result" and unsat["status"] == "UNSAT"
    assert unsat["verified"] is not None
    assert pong["kind"] == "pong"


def test_repeat_request_is_answered_from_the_cache():
    async def scenario():
        service = make_service()
        server = await serve(service)
        try:
            async with AsyncSolverClient(port=server.port) as client:
                first = await asyncio.wait_for(
                    client.solve(UNSAT_CLAUSES, timeout=10.0), timeout=60.0
                )
                second = await asyncio.wait_for(
                    client.solve(UNSAT_CLAUSES, timeout=10.0), timeout=60.0
                )
        finally:
            await server.shutdown()
        return first, second, service.cache.summary()

    first, second, cache = run(scenario())
    assert first["kind"] == "result" and first["cached"] is None
    assert second["kind"] == "result" and second["cached"] == "exact"
    assert second["status"] == "UNSAT"
    assert cache["hits"] >= 1


def test_cache_hit_replies_as_the_miss_did():
    """The empty formula's model is empty, and a cache hit must say so
    too, not drop the ``model`` key."""

    async def scenario():
        service = make_service(pool_size=1)
        server = await serve(service)
        try:
            async with AsyncSolverClient(port=server.port) as client:
                return [
                    await asyncio.wait_for(client.solve([], timeout=10.0), timeout=60.0)
                    for _ in range(2)
                ]
        finally:
            await server.shutdown()

    miss, hit = run(scenario())
    assert miss["cached"] is None and hit["cached"] == "exact"
    assert miss["model"] == []
    for reply in (miss, hit):
        del reply["id"], reply["cached"], reply["wall_seconds"]
    assert hit == miss


def test_overload_is_an_explicit_busy_not_a_hang():
    async def scenario():
        service = make_service(
            pool_size=1,
            admission=AdmissionController(max_queue=1, per_client=8),
        )
        server = await serve(service)
        try:
            async with AsyncSolverClient(port=server.port) as client:
                slow = asyncio.create_task(client.solve(_hole(8), timeout=2.0))
                await asyncio.sleep(0.2)  # the slow job owns the one slot
                shed = await asyncio.wait_for(
                    client.solve(SAT_CLAUSES, timeout=5.0), timeout=30.0
                )
                slow_reply = await asyncio.wait_for(slow, timeout=30.0)
        finally:
            await server.shutdown()
        return shed, slow_reply

    shed, slow_reply = run(scenario())
    assert shed["kind"] == "busy" and shed["reason"] == REASON_QUEUE_FULL
    assert slow_reply["kind"] in ("result", "deadline")


def test_expired_deadline_is_an_explicit_deadline_reply():
    async def scenario():
        service = make_service(pool_size=1)
        server = await serve(service)
        try:
            async with AsyncSolverClient(port=server.port) as client:
                reply = await asyncio.wait_for(
                    client.solve(_hole(9), timeout=0.05), timeout=60.0
                )
        finally:
            await server.shutdown()
        return reply

    reply = run(scenario())
    assert reply["kind"] == "deadline"
    assert reply["reason"] in ("time budget", "deadline expired")


def test_bad_requests_get_error_replies_not_disconnects():
    async def scenario():
        service = make_service()
        server = await serve(service)
        try:
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            writer.write(b"this is not json\n")
            await writer.drain()
            garbage_reply = await asyncio.wait_for(reader.readline(), timeout=10.0)
            async with AsyncSolverClient(port=server.port) as client:
                unknown_config = await asyncio.wait_for(
                    client.solve(SAT_CLAUSES, config="frobnicate"), timeout=10.0
                )
                still_alive = await asyncio.wait_for(client.ping(), timeout=10.0)
            writer.close()
            await writer.wait_closed()
        finally:
            await server.shutdown()
        return garbage_reply, unknown_config, still_alive

    garbage_reply, unknown_config, still_alive = run(scenario())
    import json

    assert json.loads(garbage_reply)["kind"] == "error"
    assert unknown_config["kind"] == "error"
    assert "frobnicate" in unknown_config["error"]
    assert still_alive["kind"] == "pong"


def test_a_literal_past_the_variable_bound_is_an_error_before_admission():
    """The request is refused as malformed: no worker launches and the
    breaker records nothing (the pool would otherwise crash and retry a
    worker growing tables past int32)."""
    from repro.observability import RingBufferSink

    ring = RingBufferSink()

    async def scenario():
        service = make_service(pool_size=1, trace=ring)
        server = await serve(service)
        try:
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            writer.write(b'{"op": "solve", "id": 7, "clauses": [[1, -2000000000]]}\n')
            await writer.drain()
            reply = await asyncio.wait_for(reader.readline(), timeout=10.0)
            writer.close()
            await writer.wait_closed()
            async with AsyncSolverClient(port=server.port) as client:
                alive = await asyncio.wait_for(client.ping(), timeout=10.0)
        finally:
            await server.shutdown()
        return service, json.loads(reply), alive

    service, reply, alive = run(scenario())
    assert reply["kind"] == "error"
    assert "literals must name variables up to" in reply["error"]
    assert "2000000000" not in reply["error"]
    assert alive["kind"] == "pong"
    kinds = {event["type"] for event in ring.events}
    assert not kinds & {"worker_start", "worker_retry", "worker_fault", "job_end"}
    assert service.breaker.summary()["tracked"] == 0
    assert service.pool.retries == 0 and not service.pool.jobs


def test_connection_the_server_closes_reaches_eof_while_a_worker_idles():
    # Workers outlive their jobs; one forked while this connection was
    # open must not keep the connection open after the server closes it.
    async def scenario():
        from repro.server.protocol import MAX_LINE_BYTES

        service = make_service(pool_size=1)
        server = await serve(service)
        try:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port, limit=2 * MAX_LINE_BYTES
            )
            writer.write(b'{"id": 1, "op": "solve", "clauses": [[1, 2]]}\n')
            await writer.drain()
            solved = await asyncio.wait_for(reader.readline(), timeout=30.0)
            assert service.pool.idle and service.pool._idle  # the worker lives on
            writer.write(b"x" * (MAX_LINE_BYTES + 1) + b"\n")
            await writer.drain()
            refused = await asyncio.wait_for(reader.readline(), timeout=10.0)
            rest = await asyncio.wait_for(reader.read(), timeout=5.0)
            writer.close()
        finally:
            await server.shutdown()
        return solved, refused, rest

    import json

    solved, refused, rest = run(scenario())
    assert json.loads(solved)["status"] == "SAT"
    assert json.loads(refused)["kind"] == "error"
    assert rest == b""


def test_stats_op_reports_service_health():
    async def scenario():
        service = make_service()
        server = await serve(service)
        try:
            async with AsyncSolverClient(port=server.port) as client:
                await asyncio.wait_for(
                    client.solve(SAT_CLAUSES, timeout=10.0), timeout=60.0
                )
                stats = await asyncio.wait_for(client.stats(), timeout=10.0)
        finally:
            await server.shutdown()
        return stats

    stats = run(scenario())
    assert stats["kind"] == "stats"
    payload = stats["stats"]
    assert payload["pool"]["size"] == 2
    assert payload["replies"].get("result", 0) >= 1
    assert payload["requests"] >= 2


def test_unix_socket_transport(tmp_path):
    path = str(tmp_path / "repro.sock")

    async def scenario():
        service = make_service()
        server = await serve(service, unix_path=path)
        try:
            async with AsyncSolverClient(unix_path=path) as client:
                reply = await asyncio.wait_for(
                    client.solve(SAT_CLAUSES, timeout=10.0), timeout=60.0
                )
        finally:
            await server.shutdown()
        return reply

    reply = run(scenario())
    assert reply["kind"] == "result" and reply["status"] == "SAT"


def test_graceful_drain_answers_everything_before_exit():
    async def scenario():
        service = make_service(pool_size=1)
        server = await serve(service, drain_grace=0.5)
        try:
            async with AsyncSolverClient(port=server.port) as client:
                slow = asyncio.create_task(client.solve(_hole(9), timeout=20.0))
                await asyncio.sleep(0.3)  # the slow solve is mid-search
                server.request_stop()
                # The drain must still answer the in-flight request.
                shutdown = asyncio.create_task(server.shutdown())
                slow_reply = await asyncio.wait_for(slow, timeout=30.0)
                await asyncio.wait_for(shutdown, timeout=30.0)
        finally:
            service.close()
        return slow_reply, service.draining

    slow_reply, draining = run(scenario())
    # Cooperative cancel: the in-flight search answers honestly.
    assert slow_reply["kind"] in ("result", "deadline")
    if slow_reply["kind"] == "result":
        assert slow_reply["status"] in ("UNSAT", "UNKNOWN")
    assert draining


def test_draining_service_refuses_new_solves():
    async def scenario():
        service = make_service()
        server = await serve(service)
        try:
            async with AsyncSolverClient(port=server.port) as client:
                service.draining = True
                reply = await asyncio.wait_for(
                    client.solve(SAT_CLAUSES, timeout=5.0), timeout=10.0
                )
        finally:
            await server.shutdown()
        return reply

    reply = run(scenario())
    assert reply["kind"] == "busy" and reply["reason"] == REASON_DRAINING


def test_cache_hit_does_not_consume_the_half_open_breaker_trial():
    from repro.checkpoint.snapshot import canonical_fingerprint
    from repro.cnf.formula import CnfFormula
    from repro.server.breaker import CircuitBreaker
    from repro.server.protocol import Request
    from repro.solver.result import SolveResult, SolveStatus

    breaker = CircuitBreaker(threshold=1, cooldown_seconds=0.0)
    service = make_service(pool_size=1, breaker=breaker)
    try:
        fingerprint = canonical_fingerprint(CnfFormula(SAT_CLAUSES).clauses)
        service.cache.store(
            fingerprint,
            (),
            SolveResult(status=SolveStatus.SAT, model={1: True, 2: True}),
        )
        breaker.record_failure(fingerprint)  # open; cooldown 0 => half-open
        sent = []
        service.handle(
            Request(op="solve", request_id="r1", clauses=SAT_CLAUSES),
            "client-1",
            sent.append,
        )
        assert sent and sent[0]["kind"] == "result" and sent[0]["cached"] == "exact"
        # The cached reply resolved without touching the breaker: the
        # single half-open trial is still available to a real request.
        assert breaker.allows(fingerprint)
    finally:
        service.close()


def test_pump_survives_a_tick_exception():
    async def scenario():
        service = make_service()
        server = await serve(service)
        original_tick = service.tick
        failures = {"count": 0}

        def bad_tick():
            if failures["count"] < 3:
                failures["count"] += 1
                raise RuntimeError("injected tick failure")
            return original_tick()

        service.tick = bad_tick
        try:
            async with AsyncSolverClient(port=server.port) as client:
                reply = await asyncio.wait_for(
                    client.solve(SAT_CLAUSES, timeout=10.0), timeout=60.0
                )
        finally:
            service.tick = original_tick
            await server.shutdown()
        return reply, server.pump_errors

    reply, pump_errors = run(scenario())
    # The pump swallowed the injected failures and kept driving the
    # pool: the solve still got its reply instead of hanging forever.
    assert reply["kind"] == "result" and reply["status"] == "SAT"
    assert pump_errors >= 1


def test_blocking_client_roundtrip():
    async def scenario():
        service = make_service()
        server = await serve(service)
        try:
            reply = await asyncio.to_thread(blocking_solve, server.port)
        finally:
            await server.shutdown()
        return reply

    def blocking_solve(port):
        with SolverClient(port=port) as client:
            return client.solve(UNSAT_CLAUSES, timeout=10.0)

    reply = run(scenario())
    assert reply["kind"] == "result" and reply["status"] == "UNSAT"


def test_metrics_op_over_the_wire_and_top_cli(capsys):
    async def scenario():
        service = make_service()
        server = await serve(service)
        try:
            async with AsyncSolverClient(port=server.port) as client:
                reply = await client.solve(SAT_CLAUSES)
                assert reply["kind"] == "result"
                metrics = await client.metrics()
                blocking = await asyncio.to_thread(top_roundtrip, server.port)
        finally:
            await server.shutdown()
        return metrics, blocking

    def top_roundtrip(port):
        from repro.cli import main

        metrics_reply = SolverClient(port=port).metrics()
        code = main(["top", "--once", "--port", str(port)])
        return metrics_reply, code

    metrics, (blocking_metrics, top_code) = run(scenario())
    assert metrics["kind"] == "metrics"
    body = metrics["metrics"]
    assert 'reprosat_requests_total{op="solve"} 1' in body
    assert 'reprosat_phase_latency_seconds{phase="solve",quantile="0.99"}' in body
    # The blocking client sees the same scrape surface.
    assert blocking_metrics["kind"] == "metrics"
    assert "reprosat_pool_size 2" in blocking_metrics["metrics"]
    # `repro-sat top --once` polled the live service and exited cleanly.
    assert top_code == 0
    err = capsys.readouterr().err
    assert "top: " in err and "requests" in err


def test_top_against_no_server_is_one_line_error(capsys):
    from repro.cli import main

    code = main(["top", "--once", "--port", "1"])  # nothing listens there
    assert code == 2
    assert "repro-sat: error:" in capsys.readouterr().err
