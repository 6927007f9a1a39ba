"""The asyncio front end: sockets, backpressure, signals.

:class:`SolverServer` owns everything transport-shaped so that
:class:`~repro.server.service.SolverService` can stay synchronous and
testable: it accepts TCP or UNIX-socket connections, reads
line-delimited JSON requests, feeds them to the service, and writes
replies back — thousands of concurrent clients multiplexed onto one
event loop and one worker pool.

Design points:

* **One pump, no threads, woken by results.**  A single background
  task calls ``service.tick()`` (a non-blocking pool poll), then awaits
  the pool's own handles — each running attempt's result pipe and
  process sentinel — and a wake event the connection handler sets after
  each request, so a launch and a reply each wait for nothing but the
  event loop.  A short cadence remains only as the timeout that drives
  heartbeat and deadline sweeps.  Job completion callbacks therefore
  run inside the event loop, where they may touch connection state
  freely.
* **Backpressure is per-connection.**  Each connection may have at most
  ``max_pending`` requests outstanding; slot ``n+1`` is only granted
  after the reply to an earlier request has been *written and drained*
  to that client's socket.  A client that stops reading stops being
  read — its own requests queue up in its kernel buffer — while the
  pool keeps serving everyone else.
* **Graceful drain on SIGTERM/SIGINT.**  The listener closes (no new
  connections), in-flight requests are refused with ``busy ("server
  draining")``, the pool gets ``drain_grace`` seconds to finish or
  checkpoint running jobs, every produced reply is flushed, and the
  process exits.  No request admitted before the signal goes
  unanswered.

Run it from the CLI (``repro-sat serve --port 2727``) or embed it::

    service = SolverService(pool_size=4)
    server = SolverServer(service, unix_path="/tmp/repro.sock")
    asyncio.run(server.serve_forever())
"""

from __future__ import annotations

import asyncio
import contextlib
import signal
import sys

from repro.server.protocol import (
    MAX_LINE_BYTES,
    ProtocolError,
    encode_reply,
    error_reply,
    parse_request,
)
from repro.server.service import SolverService

#: Pump timeout while jobs are in flight / while everything is idle:
#: the heartbeat and deadline sweep cadence (results wake it sooner).
_PUMP_BUSY_SECONDS = 0.005
_PUMP_IDLE_SECONDS = 0.02


class SolverServer:
    """Serve one :class:`SolverService` over TCP or a UNIX socket.

    Args:
        service: the transport-free request router.
        host / port: TCP listening address (used when ``unix_path`` is
            None; ``port=0`` picks a free port, exposed as ``.port``).
        unix_path: serve on a UNIX domain socket at this path instead.
        max_pending: per-connection outstanding-request bound (the
            backpressure window).
        drain_grace: seconds granted to in-flight jobs on SIGTERM.
    """

    def __init__(
        self,
        service: SolverService,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        unix_path: str | None = None,
        max_pending: int = 32,
        drain_grace: float = 10.0,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self.unix_path = unix_path
        self.max_pending = max_pending
        self.drain_grace = drain_grace
        self._server: asyncio.AbstractServer | None = None
        self._pump_task: asyncio.Task | None = None
        self._stop = None  # asyncio.Event, created on start()'s loop
        self._wake = None  # asyncio.Event: a request was handled
        #: Signal number that triggered the drain (None for a
        #: programmatic :meth:`request_stop`) — the CLI turns SIGTERM
        #: into exit code 143.
        self.stop_signum: int | None = None
        #: Exceptions swallowed (and logged) by the pump guard.
        self.pump_errors = 0
        self._next_client = 0
        self._connections: set[asyncio.Task] = set()
        self._outboxes: set[asyncio.Queue] = set()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the listener and start the supervision pump."""
        self._stop = asyncio.Event()
        self._wake = asyncio.Event()
        if self.unix_path is not None:
            self._server = await asyncio.start_unix_server(
                self._handle_connection, path=self.unix_path, limit=MAX_LINE_BYTES
            )
        else:
            self._server = await asyncio.start_server(
                self._handle_connection, self.host, self.port, limit=MAX_LINE_BYTES
            )
            self.port = self._server.sockets[0].getsockname()[1]
        self._pump_task = asyncio.get_running_loop().create_task(self._pump())
        self._pump_task.add_done_callback(self._pump_exited)
        if self.service.trace is not None:
            self.service.trace.emit(
                {
                    "type": "server_start",
                    "address": self.unix_path or f"{self.host}:{self.port}",
                    "pool_size": self.service.pool.size,
                }
            )

    async def serve_forever(self, install_signals: bool = True) -> None:
        """Start, then serve until SIGTERM/SIGINT (or :meth:`request_stop`)."""
        if self._server is None:
            await self.start()
        if install_signals:
            loop = asyncio.get_running_loop()
            for signum in (signal.SIGTERM, signal.SIGINT):
                with contextlib.suppress(NotImplementedError, ValueError):
                    loop.add_signal_handler(signum, self.request_stop, signum)
        await self._stop.wait()
        await self.shutdown()

    def request_stop(self, signum: int | None = None) -> None:
        """Begin a graceful drain (signal-handler safe)."""
        if signum is not None and self.stop_signum is None:
            self.stop_signum = signum
        if self._stop is not None:
            self._stop.set()

    async def shutdown(self) -> None:
        """Drain gracefully: refuse new work, finish old, flush, close."""
        # 1. Stop accepting connections; new solves on live connections
        #    get explicit busy("server draining") refusals.
        self.service.draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # 2. Give in-flight jobs their grace, then cancel cooperatively
        #    (final checkpoints) — replies fire into the connections'
        #    outboxes as jobs settle.
        deadline = asyncio.get_running_loop().time() + self.drain_grace
        while not self.service.pool.idle and (
            asyncio.get_running_loop().time() < deadline
        ):
            self.service.tick()
            await asyncio.sleep(_PUMP_BUSY_SECONDS)
        self.service.drain(0.0)
        # 3. Let writer tasks flush the final replies, then close.
        for outbox in list(self._outboxes):
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(outbox.join(), timeout=2.0)
        if self._pump_task is not None:
            self._pump_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._pump_task
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        self.service.close()

    async def _pump(self) -> None:
        """Drive the worker pool from the event loop, forever.

        ``tick()`` is a non-blocking poll, so running it on the loop
        keeps the whole service single-threaded — completion callbacks
        and connection readers can never race.  Between ticks the pump
        sleeps until a running attempt posts or dies, a request arrives,
        or the sweep cadence elapses.  The tick is guarded: an exception
        escaping a completion callback (admission, breaker, cache, reply
        send) must not kill the pump, because every pool-bound request
        would then hang unanswered.
        """
        loop = asyncio.get_running_loop()
        while True:
            try:
                finished = self.service.tick()
            except Exception as error:
                finished = 0
                self.pump_errors += 1
                print(f"repro-sat serve: pump tick failed: {error!r}", file=sys.stderr)
                if self.service.trace is not None:
                    with contextlib.suppress(Exception):
                        self.service.trace.emit(
                            {"type": "server_pump_error", "error": repr(error)}
                        )
            handles = self.service.pool.handles()
            for handle in handles:
                loop.add_reader(handle, self._wake.set)
            timer = loop.call_later(
                _PUMP_BUSY_SECONDS if finished or self.service.pool.load else _PUMP_IDLE_SECONDS,
                self._wake.set,
            )
            try:
                await self._wake.wait()
            finally:
                timer.cancel()
                for handle in handles:
                    loop.remove_reader(handle)
            self._wake.clear()

    def _pump_exited(self, task: asyncio.Task) -> None:
        """Make an unexpected pump death loud: drain instead of hanging.

        A cancelled pump is the normal shutdown path; anything else
        (a BaseException the guard cannot catch) would leave every
        in-flight client waiting forever, so trigger the graceful stop.
        """
        if task.cancelled():
            return
        error = task.exception()
        if error is not None:
            print(f"repro-sat serve: pump task died: {error!r}", file=sys.stderr)
            self.request_stop()

    # ------------------------------------------------------------------
    # Connections
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._connections.add(task)
        self._next_client += 1
        client_id = f"client-{self._next_client}"
        outbox: asyncio.Queue = asyncio.Queue()
        self._outboxes.add(outbox)
        slots = asyncio.Semaphore(self.max_pending)
        writer_task = asyncio.get_running_loop().create_task(
            self._write_replies(writer, outbox, slots)
        )
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    outbox.put_nowait(
                        (error_reply(None, "request line too long"), None)
                    )
                    break
                except (ConnectionResetError, BrokenPipeError):
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                # Backpressure: block THIS reader until one of its own
                # earlier replies has been written and drained.
                await slots.acquire()
                try:
                    request = parse_request(line)
                except ProtocolError as error:
                    outbox.put_nowait((error_reply(None, str(error)), slots))
                    continue

                def send(reply, _outbox=outbox, _slots=slots):
                    _outbox.put_nowait((reply, _slots))

                try:
                    self.service.handle(request, client_id, send)
                except Exception as error:  # a reply, never a dead socket
                    send(error_reply(request.request_id, f"internal error: {error}"))
                self._wake.set()  # a queued job launches at the next tick
        except asyncio.CancelledError:
            pass  # shutdown cancels readers; the finally still flushes
        finally:
            # Wait for queued replies to flush, then stop the writer.
            with contextlib.suppress(Exception, asyncio.CancelledError):
                await asyncio.wait_for(outbox.join(), timeout=5.0)
            writer_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await writer_task
            # CancelledError is a BaseException: suppress it explicitly
            # so a shutdown-time cancel can't skip the cleanup below.
            with contextlib.suppress(Exception, asyncio.CancelledError):
                writer.close()
                await writer.wait_closed()
            self.service.admission.forget(client_id)
            self._outboxes.discard(outbox)
            self._connections.discard(task)

    async def _write_replies(self, writer, outbox: asyncio.Queue, slots) -> None:
        """Write replies in completion order; each drained write frees a slot."""
        while True:
            reply, reply_slots = await outbox.get()
            try:
                writer.write(encode_reply(reply))
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError, RuntimeError):
                # The client is gone; keep consuming so outbox.join()
                # and slot releases still complete.
                pass
            finally:
                if reply_slots is not None:
                    reply_slots.release()
                outbox.task_done()


async def serve(
    *,
    pool_size: int = 4,
    host: str = "127.0.0.1",
    port: int = 2727,
    unix_path: str | None = None,
    **service_kwargs,
) -> None:
    """Convenience entry: build a service and serve until signalled."""
    service = SolverService(pool_size=pool_size, **service_kwargs)
    server = SolverServer(service, host=host, port=port, unix_path=unix_path)
    await server.serve_forever()
