"""Process entry points and queue plumbing for the parallel engine.

Workers are plain top-level functions so they stay picklable under every
``multiprocessing`` start method.  The contract with the parent is
narrow: a worker posts **exactly one** ``(tag, payload)`` tuple on the
result queue — a :class:`~repro.solver.result.SolveResult` on success,
``None`` when the solve raised — or dies without posting anything (a
hard crash), which the parent detects by watching process liveness.
That contract is what lets :class:`~repro.parallel.pool.JobPool` — the
one parent, supervising the portfolio, the batch, grouped sessions and
the solver service alike — degrade gracefully instead of hanging on a
lost worker.  The pool tags results with ``(job, attempt)`` tuples so a
late post from a terminated attempt can never be mistaken for its
retry's answer.

The reliability layer hooks in here, at process entry:

* a :class:`~repro.reliability.FaultPlan` (passed explicitly or read
  from the ``REPRO_SAT_FAULT_PLAN`` environment variable) can make this
  worker crash, die by signal, hang, corrupt its result, or stall its
  result pipe — deterministically, keyed by (worker, attempt);
* an optional ``RLIMIT_AS`` memory ceiling is installed before the
  solver is built, so runaway memory raises ``MemoryError`` (degraded
  to an honest UNKNOWN by the solve loop) instead of OOM-killing the
  machine;
* an optional shared heartbeat value is stamped from the solver's
  ``on_progress`` hook, feeding the parent's stall watchdog.
"""

from __future__ import annotations

import queue as queue_module
import time

from repro.checkpoint.writer import CheckpointWriter
from repro.parallel.sharing import ShareClient
from repro.reliability.faults import (
    FAULT_CORRUPT,
    FAULT_CORRUPT_SHARE,
    FAULT_STALL,
    FaultPlan,
    corrupt_result,
    execute_entry_fault,
)
from repro.reliability.guards import apply_memory_limit
from repro.solver.config import VERIFY_FULL, SolverConfig
from repro.solver.solver import Solver


def strip_for_worker(config: SolverConfig, verification: str) -> SolverConfig:
    """Prepare one config for the process boundary.

    Sinks stay in the parent (workers relay telemetry over the result
    queue instead of writing through a pickled sink), and a ``full``
    verification gate forces proof logging on so the parent can
    RUP-check the worker's UNSAT answers.  Everything else —
    including the arena/inprocessing knobs — crosses verbatim:
    the copy is a ``dataclasses.replace``, so a field added to
    :class:`SolverConfig` rides along automatically
    (``tests/parallel/test_worker_config.py`` enforces this by
    introspection).
    """
    overrides: dict = {}
    if verification == VERIFY_FULL and not config.proof_logging:
        overrides["proof_logging"] = True
    if config.trace is not None:
        overrides["trace"] = None
    return config.with_overrides(**overrides) if overrides else config


#: Seconds between the progress rows a worker relays when its engine
#: turns telemetry on (a trace sink is attached, or the bandit runs).
TELEMETRY_SECONDS = 0.5

#: Queue tag prefix for telemetry rows.  Results use 2-tuple
#: ``(index, attempt)`` tags (or plain ints), so a 3-tuple starting with
#: this sentinel can never collide with an answer.
TELEMETRY_TAG = "telemetry"


class _TelemetryReporter:
    """Post periodic progress rows on the result queue (best effort).

    Rides the worker's ``on_progress`` chain; every ``every_seconds`` it
    posts ``(("telemetry", lane, attempt), row)`` where ``row`` carries
    cumulative counters plus rates over the reporting window.  The
    parent sweeps these with :func:`route_telemetry`; because the tag is
    stable per (lane, attempt), an unswept queue holds at most the
    *latest* row per lane once drained into a dict — telemetry can never
    grow the parent's memory or be mistaken for an answer.
    """

    def __init__(self, lane, attempt, results, every_seconds: float,
                 trace_context=None) -> None:
        self.tag = (TELEMETRY_TAG, lane, attempt)
        self.results = results
        self.every_seconds = every_seconds
        self.request_id = (trace_context or {}).get("request_id")
        self._last_wall = time.monotonic()
        self._last = {"conflicts": 0, "propagations": 0, "shared": 0}

    def __call__(self, stats) -> None:
        now = time.monotonic()
        window = now - self._last_wall
        if window < self.every_seconds:
            return
        shared = stats.shared_exported + stats.shared_imported
        row = {
            "conflicts": stats.conflicts,
            "decisions": stats.decisions,
            "propagations": stats.propagations,
            "restarts": stats.restarts,
            "props_per_sec": round((stats.propagations - self._last["propagations"]) / window, 1),
            "conflicts_per_sec": round((stats.conflicts - self._last["conflicts"]) / window, 1),
            "shared_exported": stats.shared_exported,
            "shared_imported": stats.shared_imported,
            "shared_per_sec": round((shared - self._last["shared"]) / window, 1),
        }
        if self.request_id is not None:
            row["request_id"] = self.request_id
        self._last_wall = now
        self._last = {
            "conflicts": stats.conflicts,
            "propagations": stats.propagations,
            "shared": shared,
        }
        try:
            self.results.put_nowait((self.tag, row))
        except Exception:  # a full/broken queue must never kill the solve
            pass


def solve_in_worker(
    index,
    formula,
    config,
    limits,
    cancel_event,
    results,
    heartbeat=None,
    attempt: int = 0,
    fault=None,
    max_memory_mb=None,
    checkpoint_path=None,
    checkpoint_interval: int = 1000,
    telemetry_seconds=None,
    share_max_lbd=None,
    import_queue=None,
    lane_stop=None,
    trace_context=None,
) -> None:
    """Solve ``formula`` under ``config`` and post ``(index, result)``.

    ``index`` is an opaque tag echoed back on the result queue (a plain
    int, or an ``(instance, attempt)`` tuple under supervision).
    ``limits`` is the keyword dictionary forwarded to
    :meth:`Solver.solve`.  When ``cancel_event`` is given, an
    ``on_progress`` hook polls it at the solver's progress cadence and
    interrupts the search once it is set — the cooperative half of
    portfolio cancellation (the parent's ``terminate`` is the backstop).
    ``heartbeat`` (a shared ``multiprocessing.Value('d')``) is stamped
    with ``time.monotonic()`` at the same cadence for the parent's stall
    watchdog.  ``fault`` is the :class:`FaultSpec` scheduled for this
    launch (already resolved by the parent); when ``None``, the
    environment plan is consulted so faults can also be injected from
    outside the API.  Any exception inside the solve is converted to a
    ``None`` payload so the parent can count the worker as
    finished-without-answer.

    ``checkpoint_path`` makes the attempt crash-safe: the worker first
    warm-resumes from that file if a usable checkpoint is there (a
    missing, corrupted, or foreign file degrades to a cold start — see
    :mod:`repro.checkpoint`), then writes a fresh checkpoint every
    ``checkpoint_interval`` conflicts.  A definite answer removes the
    file; an interrupted/budgeted solve leaves a final one behind.  A
    fault with ``after_conflicts`` set fires from the same progress
    hook, *after* the checkpoint logic — so the death the fault
    simulates always has that tick's checkpoint on disk to recover from.

    ``share_max_lbd`` (an int) attaches a
    :class:`~repro.parallel.sharing.ShareClient` to the solver: learned
    glue clauses are exported on the result queue and parent-validated
    imports are drained from ``import_queue`` at restart boundaries.  A
    ``corrupt_share`` fault turns the client Byzantine — its *exports*
    lie, while the lane's own answer stays honest, which is exactly the
    attack the bus's validation layers must contain.  ``lane_stop`` is a
    per-lane preemption event, checked alongside ``cancel_event``: the
    supervisor sets it to reclaim this one lane (quarantine or adaptive
    relaunch) without cancelling the fleet.

    ``trace_context`` is an opaque correlation dict (the solver
    service's ``{"request_id": ...}``): workers never see a sink or a
    tracker, they just stamp the ID onto telemetry rows so the parent
    can attribute cross-process progress to the originating request.
    """
    try:
        if max_memory_mb is not None:
            apply_memory_limit(max_memory_mb)
        if fault is None:
            plan = FaultPlan.from_env()
            if plan is not None:
                worker_index = index[0] if isinstance(index, tuple) else index
                fault = plan.lookup(worker_index, attempt)
        deferred = fault if fault is not None and fault.after_conflicts is not None else None
        if fault is not None and deferred is None:
            execute_entry_fault(fault)  # crash/signal never return; hang sleeps

        solver = Solver(formula, config=config)
        if checkpoint_path is not None:
            from repro.checkpoint.snapshot import CheckpointWarning, try_load_checkpoint

            snapshot = try_load_checkpoint(checkpoint_path)
            if snapshot is not None and config.proof_logging and snapshot.proof is None:
                # Resuming would force proof logging off, and a verified
                # parent would then reject the answer as unjustified —
                # a cold start that keeps the proof is strictly better.
                import warnings

                warnings.warn(
                    f"checkpoint {checkpoint_path!r} carries no proof trace "
                    "but this launch must produce one; cold-starting",
                    CheckpointWarning,
                    stacklevel=2,
                )
            elif snapshot is not None:
                solver.resume(snapshot)  # graceful: cold start on any defect
        if share_max_lbd is not None:
            lane = index[0] if isinstance(index, tuple) else index
            solver.share = ShareClient(
                lane,
                attempt,
                results,
                import_queue,
                export_max_lbd=share_max_lbd,
                poison_vars=(
                    formula.num_variables
                    if fault is not None and fault.mode == FAULT_CORRUPT_SHARE
                    else None
                ),
            )
        telemetry = None
        if telemetry_seconds is not None:
            lane = index[0] if isinstance(index, tuple) else index
            telemetry = _TelemetryReporter(
                lane, attempt, results, telemetry_seconds,
                trace_context=trace_context,
            )
        on_progress = None
        if (
            cancel_event is not None
            or heartbeat is not None
            or deferred is not None
            or telemetry is not None
            or lane_stop is not None
        ):

            def on_progress(
                stats,
                _solver=solver,
                _event=cancel_event,
                _stop=lane_stop,
                _beat=heartbeat,
                _telemetry=telemetry,
                _deferred=deferred,
            ):
                if _beat is not None:
                    _beat.value = time.monotonic()
                if _event is not None and _event.is_set():
                    _solver.interrupt()
                if _stop is not None and _stop.is_set():
                    _solver.interrupt()
                if _telemetry is not None:
                    _telemetry(stats)
                if (
                    _deferred is not None
                    and stats.conflicts >= _deferred.after_conflicts
                ):
                    execute_entry_fault(_deferred)  # crash/signal: no return

        writer = None
        if checkpoint_path is not None:
            writer = CheckpointWriter(
                solver,
                checkpoint_path,
                every_conflicts=checkpoint_interval,
                chain=on_progress,
            )
        result = solver.solve(on_progress=writer or on_progress, **limits)
        if writer is not None:
            writer.finalize(result)
        if fault is not None:
            if fault.mode == FAULT_CORRUPT:
                result = corrupt_result(result, formula)
            elif fault.mode == FAULT_STALL:
                # The answer exists but the pipe goes silent: post nothing
                # and stop heartbeating, until the parent gives up on us.
                time.sleep(fault.seconds)
                return
        results.put((index, result))
    except Exception:
        results.put((index, None))


def drain_results(results_queue, collected: dict, timeout: float = 0.0) -> None:
    """Move every queued ``(tag, payload)`` pair into ``collected``.

    Blocks at most ``timeout`` seconds for the first item, then sweeps
    whatever else is already queued without blocking.
    """
    block = timeout
    while True:
        try:
            if block > 0:
                index, payload = results_queue.get(timeout=block)
            else:
                index, payload = results_queue.get_nowait()
        except queue_module.Empty:
            return
        collected[index] = payload
        block = 0.0


def route_telemetry(collected: dict, trace=None) -> int:
    """Pop telemetry rows out of a drained ``collected`` dict.

    Telemetry rides the result queue under 3-tuple
    ``("telemetry", lane, attempt)`` tags; answers never use those, so
    this sweep is what keeps the pool's "every tag is a result"
    invariant intact.  Each popped row is emitted on ``trace`` as one
    ``lane_progress`` event when a sink is given (the dashboard and the
    adaptive lane manager fold them).  Returns the number of rows
    routed.
    """
    routed = 0
    for tag in [key for key in collected if isinstance(key, tuple) and len(key) == 3]:
        if tag[0] != TELEMETRY_TAG:
            continue
        row = collected.pop(tag)
        routed += 1
        if row is not None and trace is not None:
            trace.emit({"type": "lane_progress", "lane": tag[1], **row})
    return routed
