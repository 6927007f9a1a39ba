"""Command-line interface.

Subcommands::

    repro-sat solve FILE.cnf [--config NAME] [--max-conflicts N] [--proof]
                             [--verify LEVEL] [--portfolio] [--jobs N]
                             [--retries N] [--checkpoint PATH]
                             [--checkpoint-interval N] [--proof-out PATH]
                             [--trace-out T.jsonl] [--metrics-out M.csv]
                             [--dashboard]
    repro-sat batch FILE.cnf... [--config NAME] [--jobs N] [--timeout S]
                                [--proof] [--verify LEVEL] [--retries N]
                                [--checkpoint DIR] [--checkpoint-interval N]
                                [--trace-out T.jsonl] [--metrics-out M.csv]
                                [--dashboard]
    repro-sat session FILE.icnf [--config NAME] [--max-conflicts N]
                                [--no-cache] [--retain-max-lbd N]
                                [--stats] [--trace-out T.jsonl]
    repro-sat generate FAMILY [options] -o FILE.cnf
    repro-sat experiment {table1..table10,fig1,all} [--scale quick|default]
    repro-sat bench [--out BENCH_2.json] [--scale quick|default|full]
                    [--repeats N] [--profile] [--session [--rounds N]]
    repro-sat audit [--rounds N | --quick] [--seed N] [--verbose]
                    [--trace-out T.jsonl] [--metrics-out M.csv] [--dashboard]
    repro-sat serve [--host H] [--port N | --unix-path P] [--pool-size N]
                    [--config NAME] [--verify LEVEL] [--retries N]
                    [--default-timeout S] [--max-timeout S] [--max-queue N]
                    [--per-client N] [--checkpoint DIR] [--trace-out T.jsonl]
                    [--latency-objective S] [--dashboard]
    repro-sat top [--host H] [--port N | --unix-path P] [--interval S]
                  [--iterations N | --once]
    repro-sat trace-summary TRACE.jsonl [--json] [--service]
    repro-sat trace-export TRACE.jsonl -o OUT.json [--request ID]

``solve`` prints a SAT-competition-style result line (``s SATISFIABLE``
plus a ``v`` model line, or ``s UNSATISFIABLE``) and the solver
statistics; ``--portfolio`` (or ``--jobs``) races diverse
configurations in parallel and reports the winner.  ``batch`` solves
many files concurrently with per-instance budgets.  On both parallel
paths ``--verify`` (or ``--proof``, implying ``--verify full``) gates
every answer through the trusted-results check, and ``--retries``
relaunches crashed/stalled workers under a
:class:`~repro.reliability.RetryPolicy`.  ``session`` streams an
iCNF-style incremental command file (clause lines plus ``a ... 0``
solve lines) through one :class:`~repro.session.SolverSession`, so
learned clauses and cached answers carry across the queries (see
docs/API.md, "Incremental solving").  ``generate`` writes
instances from any generator family.  ``experiment`` regenerates the
paper's tables.  ``bench`` times the split binary-implication BCP
against the watched-literal reference path on a pinned suite and can
write a ``BENCH_*.json`` perf report (see docs/BENCHMARKS.md);
``bench --session`` instead times incremental BMC depth sweeps
against fresh one-shot solves (the ``BENCH_6.json`` report).
``audit`` fuzzes both parallel engines — and the incremental session
layer, and the solver service — under random fault plans and fails
unless every answer comes back definite, correct, and verified (see
docs/ROBUSTNESS.md).  ``serve`` runs the solver service: an asyncio
front end multiplexing line-delimited JSON solve requests over TCP or
a UNIX socket onto a self-healing worker pool, with admission control,
deadline propagation, and a circuit breaker (protocol and semantics:
docs/API.md "Solver service"; robustness model: docs/ROBUSTNESS.md).

SIGTERM is handled gracefully everywhere workers run: ``serve`` drains
(stops admitting, finishes or checkpoints in-flight jobs, flushes
replies), ``batch`` stops launching and drains its pool (final
checkpoints included), and a sequential ``solve`` interrupts
cooperatively and finalizes its checkpoint.  All exit with code 143 so
supervisors (systemd, Kubernetes) see a clean terminated shutdown;
Ctrl-C keeps exiting 130.

Observability (docs/OBSERVABILITY.md): ``--trace-out`` streams the
structured search/supervision events to a JSONL file, ``--metrics-out``
writes the periodic metrics time-series (CSV or JSONL by extension),
and ``--dashboard`` renders the live fleet view for the parallel
engines.  ``trace-summary`` aggregates a recorded trace into the
decision-source / skin-effect / LBD / restart report (the shape of the
paper's Table 3 evidence); ``trace-summary --service`` reads the same
JSONL as a *service* story instead (requests by op, replies by kind,
per-phase latency, span-tree completeness).  ``top`` polls a running
service's ``stats`` op and renders a live ops panel; ``trace-export``
turns recorded ``span_start``/``span_end`` events into Chrome-trace /
Perfetto JSON timelines.  Ctrl-C on a dashboarded run exits cleanly
with code 130.
"""

from __future__ import annotations

import argparse
import importlib
import signal
import sys
from collections.abc import Sequence

from repro.cnf.dimacs import DimacsError, parse_dimacs_file, write_dimacs_file
from repro.proof import check_rup_proof
from repro.solver.config import (
    CONFIG_FACTORIES,
    VERIFICATION_LEVELS,
    VERIFY_FULL,
    VERIFY_OFF,
    VERIFY_SAT,
    config_by_name,
)
from repro.solver.result import SolveStatus
from repro.solver.solver import Solver

EXPERIMENTS = [
    "table1", "table2", "table3", "table4", "table5",
    "table6", "table7", "table8", "table9", "table10", "fig1",
]


def _add_observability_flags(parser: argparse.ArgumentParser) -> None:
    """The shared telemetry flags (solve / batch / audit)."""
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="stream structured search/supervision events to this JSONL "
        "file (schema: docs/OBSERVABILITY.md; summarize with "
        "`repro-sat trace-summary`)",
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="write the periodic metrics time-series here "
        "(.csv for CSV, anything else for JSONL)",
    )
    parser.add_argument(
        "--dashboard",
        action="store_true",
        help="render the live fleet dashboard on stderr "
        "(lane states, aggregate rates, ETA)",
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro-sat",
        description="BerkMin reproduction: CDCL SAT solver, generators, experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve a DIMACS CNF file")
    solve.add_argument("file", help="path to a .cnf file")
    solve.add_argument(
        "--config",
        default="berkmin",
        choices=sorted(CONFIG_FACTORIES),
        help="solver configuration (default: berkmin)",
    )
    solve.add_argument("--max-conflicts", type=int, default=None)
    solve.add_argument("--max-seconds", type=float, default=None)
    solve.add_argument("--seed", type=int, default=0)
    solve.add_argument(
        "--proof",
        action="store_true",
        help="log a DRUP proof and verify it on UNSAT answers",
    )
    solve.add_argument("--stats", action="store_true", help="print solver statistics")
    solve.add_argument(
        "--portfolio",
        action="store_true",
        help="race diverse configurations in parallel; first answer wins "
        "(--config picks the first portfolio member)",
    )
    solve.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="parallel workers for the portfolio (implies --portfolio)",
    )
    solve.add_argument(
        "--share",
        action="store_true",
        help="portfolio only: exchange glue-tier learned clauses between "
        "lanes over the validated (CRC + RUP-gated) clause bus; "
        "Byzantine sharers are quarantined",
    )
    solve.add_argument(
        "--share-max-lbd",
        type=int,
        default=None,
        metavar="LBD",
        help="largest LBD a lane exports to the bus (implies --share; "
        "default: the config's glue tier)",
    )
    solve.add_argument(
        "--verify",
        default=None,
        choices=VERIFICATION_LEVELS,
        help="trusted-results gate: model-check SAT answers (sat) and "
        "RUP-check UNSAT proofs (full); --proof implies full",
    )
    solve.add_argument(
        "--retries",
        type=int,
        default=None,
        help="portfolio only: total attempts per configuration before a "
        "crashed/stalled lane degrades (default: 1, no retries)",
    )
    solve.add_argument(
        "--checkpoint",
        default=None,
        metavar="PATH",
        help="crash-safe checkpointing: write periodic snapshots to this "
        "file (a directory of per-lane files with --portfolio) and "
        "warm-resume from it on start when it holds a usable snapshot; "
        "an interrupted (Ctrl-C) or budget-stopped solve leaves a final "
        "checkpoint behind",
    )
    solve.add_argument(
        "--checkpoint-interval",
        type=int,
        default=1000,
        metavar="N",
        help="conflicts between periodic checkpoint writes (default: 1000)",
    )
    solve.add_argument(
        "--proof-out",
        default=None,
        metavar="PATH",
        help="write the DRUP proof of an UNSAT answer to this file "
        "(atomic write; implies proof logging)",
    )
    _add_observability_flags(solve)
    solve.add_argument(
        "--metrics-interval",
        type=int,
        default=512,
        metavar="N",
        help="conflicts between metrics time-series rows "
        "(with --metrics-out; default: 512)",
    )

    batch = sub.add_parser(
        "batch", help="solve many DIMACS files concurrently"
    )
    batch.add_argument("files", nargs="+", help="paths to .cnf files")
    batch.add_argument(
        "--config",
        default="berkmin",
        choices=sorted(CONFIG_FACTORIES),
        help="solver configuration for every file (default: berkmin)",
    )
    batch.add_argument("--jobs", type=int, default=None, help="concurrent workers")
    batch.add_argument("--max-conflicts", type=int, default=None)
    batch.add_argument("--max-seconds", type=float, default=None)
    batch.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="hard per-file wall-clock limit (crashed/overdue files "
        "report UNKNOWN; the batch always completes)",
    )
    batch.add_argument("--seed", type=int, default=0)
    batch.add_argument("--stats", action="store_true", help="print aggregated statistics")
    batch.add_argument(
        "--proof",
        action="store_true",
        help="log DRUP proofs in workers and verify every answer "
        "(shorthand for --verify full)",
    )
    batch.add_argument(
        "--verify",
        default=None,
        choices=VERIFICATION_LEVELS,
        help="trusted-results gate for every file's answer",
    )
    batch.add_argument(
        "--retries",
        type=int,
        default=None,
        help="total attempts per file before a crashed/stalled worker "
        "degrades to UNKNOWN (default: 1, no retries)",
    )
    batch.add_argument(
        "--stall-seconds",
        type=float,
        default=None,
        help="heartbeat watchdog: terminate (and retry) workers silent "
        "for this many seconds",
    )
    batch.add_argument(
        "--checkpoint",
        default=None,
        metavar="DIR",
        help="directory of per-file checkpoints: workers snapshot "
        "periodically, retries warm-resume from the last good "
        "checkpoint, and a re-run over the same directory resumes "
        "every unfinished file",
    )
    batch.add_argument(
        "--checkpoint-interval",
        type=int,
        default=1000,
        metavar="N",
        help="conflicts between periodic checkpoint writes (default: 1000)",
    )
    _add_observability_flags(batch)

    session = sub.add_parser(
        "session",
        help="stream an iCNF-style incremental command file through one "
        "solver session (clauses persist, learned clauses are retained, "
        "answers are cached)",
    )
    session.add_argument(
        "file",
        help="incremental command file ('-' for stdin): DIMACS clause "
        "lines add clauses, 'a <lits> 0' lines solve under those "
        "assumptions ('a 0' solves unconditionally); 'p inccnf' "
        "headers and 'c' comments are ignored",
    )
    session.add_argument(
        "--config",
        default="berkmin",
        choices=sorted(CONFIG_FACTORIES),
        help="solver configuration (default: berkmin)",
    )
    session.add_argument("--max-conflicts", type=int, default=None)
    session.add_argument("--max-seconds", type=float, default=None)
    session.add_argument("--seed", type=int, default=0)
    session.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the answer cache (every query searches)",
    )
    session.add_argument(
        "--retain-max-lbd",
        type=int,
        default=None,
        metavar="N",
        help="keep learned clauses with LBD <= N between queries "
        "(default: 8; negative keeps the whole database)",
    )
    session.add_argument(
        "--verify",
        default=None,
        choices=VERIFICATION_LEVELS,
        help="trusted-results gate for every query's answer",
    )
    session.add_argument(
        "--stats", action="store_true", help="print session statistics at the end"
    )
    session.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="stream session_* and search events to this JSONL file",
    )

    generate = sub.add_parser("generate", help="write a benchmark instance")
    generate.add_argument(
        "family",
        choices=["hole", "hanoi", "queens", "xor", "ksat", "adder", "pipe", "sudoku"],
    )
    generate.add_argument("-o", "--output", required=True)
    generate.add_argument("--size", type=int, default=6, help="family size parameter")
    generate.add_argument("--extra", type=int, default=None, help="second parameter")
    generate.add_argument("--seed", type=int, default=0)

    experiment = sub.add_parser("experiment", help="regenerate a paper table/figure")
    experiment.add_argument("name", choices=EXPERIMENTS + ["all"])
    experiment.add_argument("--scale", default="default", choices=["default", "quick"])

    atpg = sub.add_parser(
        "atpg", help="stuck-at test-pattern generation for a random circuit"
    )
    atpg.add_argument("--inputs", type=int, default=6)
    atpg.add_argument("--gates", type=int, default=30)
    atpg.add_argument("--seed", type=int, default=0)

    bmc = sub.add_parser("bmc", help="bounded model checking of a counter design")
    bmc.add_argument("--bits", type=int, default=5)
    bmc.add_argument("--target", type=int, default=19)
    bmc.add_argument("--bound", type=int, default=20)
    bmc.add_argument("--enable", action="store_true", help="add an enable input")

    bench = sub.add_parser(
        "bench",
        help="run the pinned BCP perf suite (props/s, conflicts/s, "
        "decisions/s per instance)",
    )
    bench.add_argument(
        "--out",
        default=None,
        help="write the JSON report here (e.g. BENCH_2.json at the repo root)",
    )
    bench.add_argument(
        "--scale",
        default="default",
        choices=["quick", "default", "full"],
        help="suite size (default: default)",
    )
    bench.add_argument(
        "--config",
        default="berkmin",
        choices=sorted(CONFIG_FACTORIES),
        help="configuration timed on the suite (default: berkmin)",
    )
    bench.add_argument(
        "--repeats",
        type=int,
        default=2,
        help="timed runs per instance; minimum wall time is kept",
    )
    bench.add_argument(
        "--no-agreement",
        action="store_true",
        help="skip the all-configs agreement stage against the DPLL baseline",
    )
    bench.add_argument(
        "--profile",
        action="store_true",
        help="instead of benching: cProfile a pinned pigeonhole solve "
        "and print the top-20 cumulative entries",
    )
    bench.add_argument(
        "--holes",
        type=int,
        default=7,
        help="pigeonhole size for --profile (default: 7)",
    )
    bench.add_argument(
        "--session",
        action="store_true",
        help="instead of the BCP suite: time incremental BMC depth "
        "sweeps through SolverSession against fresh one-shot solves "
        "(write with --out BENCH_6.json)",
    )
    bench.add_argument(
        "--rounds",
        type=int,
        default=2,
        help="with --session: passes over each query stream; rounds "
        "after the first exercise the answer cache (default: 2)",
    )
    bench.add_argument(
        "--portfolio",
        action="store_true",
        help="instead of the BCP suite: A/B the clause-sharing "
        "fleet against the isolated portfolio on the multi-lane suite "
        "(write with --out BENCH_9.json)",
    )

    audit = sub.add_parser(
        "audit",
        help="fuzz the parallel engines under random fault plans and "
        "verify every answer against known ground truth",
    )
    audit.add_argument(
        "--rounds", type=int, default=100, help="randomized rounds (default: 100)"
    )
    audit.add_argument(
        "--quick",
        action="store_true",
        help="8-round smoke variant used by the default test suite",
    )
    audit.add_argument("--seed", type=int, default=0)
    audit.add_argument("--jobs", type=int, default=2, help="workers per round")
    audit.add_argument(
        "--engine",
        action="append",
        default=None,
        metavar="NAME",
        help="restrict rounds to this engine (repeatable; e.g. "
        "--engine fleet for a sharing-focused audit; default: all)",
    )
    audit.add_argument(
        "--verbose", action="store_true", help="print one line per round"
    )
    _add_observability_flags(audit)

    serve = sub.add_parser(
        "serve",
        help="serve solve requests over TCP or a UNIX socket "
        "(line-delimited JSON onto a self-healing worker pool)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="TCP bind address")
    serve.add_argument(
        "--port",
        type=int,
        default=2727,
        help="TCP port (0 picks a free one, printed on startup)",
    )
    serve.add_argument(
        "--unix-path",
        default=None,
        metavar="PATH",
        help="serve on a UNIX domain socket instead of TCP",
    )
    serve.add_argument(
        "--pool-size", type=int, default=4, help="worker processes (default: 4)"
    )
    serve.add_argument(
        "--config",
        default="berkmin",
        choices=sorted(CONFIG_FACTORIES),
        help="default solver configuration (clients may override per "
        "request; default: berkmin)",
    )
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument(
        "--verify",
        default=None,
        choices=VERIFICATION_LEVELS,
        help="trusted-results gate applied to every answer "
        "(default: the config's level)",
    )
    serve.add_argument(
        "--retries",
        type=int,
        default=2,
        help="attempts per job before it degrades to UNKNOWN (default: 2)",
    )
    serve.add_argument(
        "--stall-seconds",
        type=float,
        default=5.0,
        help="heartbeat watchdog window for pool workers (default: 5)",
    )
    serve.add_argument(
        "--default-timeout",
        type=float,
        default=30.0,
        help="per-request budget when the client sends none (default: 30)",
    )
    serve.add_argument(
        "--max-timeout",
        type=float,
        default=300.0,
        help="cap on client-requested budgets (default: 300)",
    )
    serve.add_argument(
        "--max-queue",
        type=int,
        default=256,
        help="admission bound on queued+running jobs; beyond it clients "
        "get busy('queue full') (default: 256)",
    )
    serve.add_argument(
        "--per-client",
        type=int,
        default=32,
        help="per-client in-flight request cap (default: 32)",
    )
    serve.add_argument(
        "--drain-grace",
        type=float,
        default=10.0,
        help="seconds granted to in-flight jobs on SIGTERM (default: 10)",
    )
    serve.add_argument(
        "--checkpoint",
        default=None,
        metavar="DIR",
        help="directory of per-job checkpoints: retried jobs warm-resume "
        "instead of restarting from scratch",
    )
    serve.add_argument(
        "--checkpoint-interval",
        type=int,
        default=1000,
        metavar="N",
        help="conflicts between periodic checkpoint writes (default: 1000)",
    )
    serve.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="stream server_*, span, and supervision events to this "
        "JSONL file (summarize with `trace-summary --service`, export "
        "timelines with `trace-export`)",
    )
    serve.add_argument(
        "--latency-objective",
        type=float,
        default=1.0,
        metavar="S",
        help="latency SLO in seconds; the metrics scrape reports burn "
        "against it (default: 1.0)",
    )
    serve.add_argument(
        "--dashboard",
        action="store_true",
        help="render the live pool panel on stderr (job states mapped "
        "onto pool slots)",
    )

    top = sub.add_parser(
        "top",
        help="live ops view of a running solver service "
        "(rps, in-flight, queue depth, phase percentiles, slowest requests)",
    )
    top.add_argument("--host", default="127.0.0.1", help="service TCP address")
    top.add_argument("--port", type=int, default=2727, help="service TCP port")
    top.add_argument(
        "--unix-path",
        default=None,
        metavar="PATH",
        help="connect over a UNIX domain socket instead of TCP",
    )
    top.add_argument(
        "--interval",
        type=float,
        default=1.0,
        metavar="S",
        help="seconds between stats polls (default: 1.0)",
    )
    top.add_argument(
        "--iterations",
        type=int,
        default=None,
        metavar="N",
        help="stop after N polls (default: run until Ctrl-C)",
    )
    top.add_argument(
        "--once",
        action="store_true",
        help="poll exactly once and exit (shorthand for --iterations 1)",
    )

    trace_summary = sub.add_parser(
        "trace-summary",
        help="aggregate a recorded JSONL trace into a search report "
        "(decision-source mix, skin-effect percentiles, LBD, restarts)",
    )
    trace_summary.add_argument("file", help="trace file written by --trace-out")
    trace_summary.add_argument(
        "--json",
        action="store_true",
        help="emit the summary as JSON instead of the text report",
    )
    trace_summary.add_argument(
        "--service",
        action="store_true",
        help="summarize as a *service* trace instead: requests by op, "
        "replies by kind, per-phase latency, span-tree completeness",
    )

    trace_export = sub.add_parser(
        "trace-export",
        help="export span events from a JSONL trace as Chrome-trace / "
        "Perfetto JSON (open in chrome://tracing or ui.perfetto.dev)",
    )
    trace_export.add_argument("file", help="trace file written by --trace-out")
    trace_export.add_argument(
        "-o",
        "--out",
        required=True,
        metavar="PATH",
        help="write the Chrome-trace JSON here",
    )
    trace_export.add_argument(
        "--request",
        default=None,
        metavar="ID",
        help="restrict the export to one correlation ID (req-...)",
    )
    return parser


def _open_trace(args: argparse.Namespace):
    """A JSONL trace sink for ``--trace-out``, or None."""
    if getattr(args, "trace_out", None) is None:
        return None
    from repro.observability import JsonlTraceSink

    return JsonlTraceSink(args.trace_out)


def _open_fleet_sink(args: argparse.Namespace, row_type: str):
    """One event sink for a fleet run, fanned out per the CLI flags.

    ``--trace-out`` records every event, ``--dashboard`` folds them
    into the live :class:`FleetDashboard`, and ``--metrics-out``
    collects the ``row_type`` events as metrics rows.  Returns
    ``(sink, trace, rows)``: the fan-out (None without any flag), the
    JSONL sink or None, and the collected events or None.
    """
    from repro.observability import CallbackSink, FleetDashboard, MultiSink

    trace = _open_trace(args)
    sinks = [trace] if trace is not None else []
    rows = None
    if args.metrics_out:
        rows = []

        def collect(event: dict) -> None:
            if event["type"] == row_type:
                rows.append(dict(event))

        sinks.append(CallbackSink(collect))
    if args.dashboard:
        sinks.append(FleetDashboard())
    return (MultiSink(*sinks) if sinks else None), trace, rows


def _untyped(events: list[dict]) -> list[dict]:
    """Metrics rows from their events: everything but the ``type`` key."""
    return [{key: value for key, value in event.items() if key != "type"}
            for event in events]


def _write_rows(path: str, rows: list[dict]) -> None:
    """Write metrics rows as CSV (``.csv``) or JSONL (anything else)."""
    from repro.observability import write_rows_csv, write_rows_jsonl

    if path.lower().endswith(".csv"):
        write_rows_csv(path, rows)
    else:
        write_rows_jsonl(path, rows)


def _cmd_solve(args: argparse.Namespace) -> int:
    formula = parse_dimacs_file(args.file)
    if args.portfolio or args.jobs is not None:
        return _solve_portfolio(args, formula)
    if args.dashboard:
        print(
            "c --dashboard applies to the parallel engines "
            "(--portfolio / batch); ignored",
            file=sys.stderr,
        )
    verification = args.verify
    if args.proof and verification is None:
        verification = VERIFY_FULL
    trace = _open_trace(args)
    config = config_by_name(
        args.config,
        seed=args.seed,
        proof_logging=(
            args.proof or args.proof_out is not None or verification == VERIFY_FULL
        ),
        trace=trace,
    )
    solver = Solver(formula, config=config)
    collector = rows = None
    if args.metrics_out:
        from repro.observability import CallbackSink, MetricsCollector, MultiSink

        # The rows reach --trace-out too, but config.trace stays the
        # trace alone: the solver's own events never pass the collector.
        rows = []
        row_sink = CallbackSink(rows.append)
        collector = MetricsCollector(
            solver,
            row_sink if trace is None else MultiSink(trace, row_sink),
            every_conflicts=args.metrics_interval,
        )
    writer = None
    terminated: list[int] = []

    def _cooperative_stop(signum, frame):
        if signum == signal.SIGTERM:
            terminated.append(signum)
        solver.interrupt()

    # SIGTERM always interrupts cooperatively: the search stops at the
    # next boundary, the answer (or UNKNOWN + final checkpoint) is
    # reported, and the process exits 143.
    previous_sigterm = signal.signal(signal.SIGTERM, _cooperative_stop)
    previous_sigint = None
    if args.checkpoint:
        if solver.resume(args.checkpoint):
            print(
                f"c resumed from checkpoint {args.checkpoint} "
                f"({solver.stats.conflicts} conflicts)"
            )
        if config.proof_logging and solver.proof is None:
            # The checkpoint predates proof logging; its trace is gone, so
            # a DRUP check of this run is impossible — degrade loudly.
            print(
                "c checkpoint carries no proof trace; proof logging "
                "disabled for the resumed run",
                file=sys.stderr,
            )
            if verification == VERIFY_FULL:
                verification = VERIFY_SAT
        from repro.checkpoint import CheckpointWriter

        writer = CheckpointWriter(
            solver,
            args.checkpoint,
            every_conflicts=args.checkpoint_interval,
            chain=collector,
        )
        # Ctrl-C becomes a cooperative interrupt: the search stops at the
        # next boundary and finalize() writes the resume point to disk.
        previous_sigint = signal.signal(signal.SIGINT, _cooperative_stop)
    try:
        result = solver.solve(
            max_conflicts=args.max_conflicts,
            max_seconds=args.max_seconds,
            on_progress=writer if writer is not None else collector,
        )
        if collector is not None:
            collector.finish(result.stats)
        if writer is not None:
            writer.finalize(result)
            if result.is_unknown:
                print(f"c checkpoint written to {args.checkpoint}")
    finally:
        signal.signal(signal.SIGTERM, previous_sigterm)
        if previous_sigint is not None:
            signal.signal(signal.SIGINT, previous_sigint)
        if trace is not None:
            trace.close()
    if trace is not None:
        print(
            f"c trace written to {args.trace_out} "
            f"({trace.events_written} events)"
        )
    if rows is not None:
        _write_rows(args.metrics_out, _untyped(rows))
        print(f"c metrics written to {args.metrics_out} ({len(rows)} rows)")
    if verification is not None and verification != VERIFY_OFF:
        from repro.reliability import verify_result

        result.verified = verify_result(formula, result, verification)
    notes = []
    if result.status is SolveStatus.UNSAT and result.proof is not None:
        if args.proof:
            if result.verified != "proof":  # the gate above has not checked it yet
                check_rup_proof(formula, result.proof)
            notes.append("c proof verified (RUP)")
        if args.proof_out:
            _write_proof_file(args.proof_out, result.proof)
            notes.append(f"c proof written to {args.proof_out}")
    exit_code = _print_result(result, stats=args.stats, notes=notes)
    return 143 if terminated else exit_code


def _write_proof_file(path: str, proof) -> None:
    """Write a DRUP trace in DRAT text form, atomically."""
    from repro.checkpoint.io import atomic_write_text

    lines = []
    for op, literals in proof:
        body = " ".join([str(literal) for literal in literals] + ["0"])
        lines.append(body if op == "a" else "d " + body)
    atomic_write_text(path, "\n".join(lines) + "\n")


def _print_result(result, *, stats: bool, notes: Sequence[str]) -> int:
    """Shared SAT-competition-style result printing; returns the exit code.

    The ``s`` (and ``v``) lines come first, then the trusted gate's
    ``c answer verified`` line, the caller's ``notes``, and the stats.
    """
    if result.status is SolveStatus.SAT:
        print("s SATISFIABLE")
        assert result.model is not None
        literals = [
            variable if value else -variable
            for variable, value in sorted(result.model.items())
        ]
        print("v " + " ".join(str(literal) for literal in literals) + " 0")
        exit_code = 10
    elif result.status is SolveStatus.UNSAT:
        print("s UNSATISFIABLE")
        exit_code = 20
    else:
        print(f"s UNKNOWN ({result.limit_reason})")
        exit_code = 0
    if result.verified is not None:
        print(f"c answer verified ({result.verified})")
    for note in notes:
        print(note)
    if stats:
        for key, value in result.stats.as_dict().items():
            print(f"c {key} = {value}")
    return exit_code


def _solve_portfolio(args: argparse.Namespace, formula) -> int:
    from repro.parallel import PortfolioSolver, default_portfolio

    jobs = args.jobs if args.jobs is not None else 4
    if jobs < 1:
        print("c --jobs must be >= 1", file=sys.stderr)
        return 2
    verification = args.verify
    if args.proof and verification is None:
        # A portfolio winner's proof is checked in the parent, so
        # --proof maps onto the full trusted-results gate.
        verification = VERIFY_FULL
    configs = default_portfolio(jobs, base_seed=args.seed)
    # --config pins the first member so the named preset always races.
    configs[0] = config_by_name(args.config, seed=args.seed)
    sink, trace, rows = _open_fleet_sink(args, "lane_progress")
    portfolio = PortfolioSolver(
        configs,
        jobs=jobs,
        retry=args.retries,
        verification=verification if verification is not None else VERIFY_OFF,
        checkpoint_dir=args.checkpoint,
        checkpoint_interval=args.checkpoint_interval,
        trace=sink,
        share=args.share or args.share_max_lbd is not None,
        share_max_lbd=args.share_max_lbd,
    )
    # SIGTERM rides the existing KeyboardInterrupt cleanup (workers are
    # terminated on the way out) but exits 143 instead of 130.
    terminated: list[int] = []

    def _sigterm(signum, frame):
        terminated.append(signum)
        raise KeyboardInterrupt

    previous_sigterm = signal.signal(signal.SIGTERM, _sigterm)
    try:
        result = portfolio.solve(
            formula, max_conflicts=args.max_conflicts, max_seconds=args.max_seconds
        )
    except KeyboardInterrupt:
        if terminated:
            print("c portfolio terminated (SIGTERM); workers cleaned up")
            return 143
        raise
    finally:
        signal.signal(signal.SIGTERM, previous_sigterm)
        if sink is not None:
            sink.close()
    _report_fleet_outputs(args, trace, rows)
    retries = result.stats.worker_retries
    print(f"c portfolio of {len(configs)} configs, {jobs} jobs, "
          f"winner: {result.config_name} ({result.wall_seconds:.3f}s"
          + (f", {retries} retries" if retries else "") + ")")
    return _print_result(result, stats=args.stats, notes=())


def _report_fleet_outputs(args: argparse.Namespace, trace, rows) -> None:
    """Export and announce --trace-out / --metrics-out on a fleet run."""
    if trace is not None:
        print(
            f"c trace written to {args.trace_out} "
            f"({trace.events_written} events)"
        )
    if rows is not None:
        # One row per relayed lane_progress event, keyed by its lane.
        _write_rows(args.metrics_out, _untyped(rows))
        print(
            f"c worker telemetry written to {args.metrics_out} "
            f"({len(rows)} rows)"
        )


def _cmd_batch(args: argparse.Namespace) -> int:
    from repro.parallel import solve_batch

    if args.jobs is not None and args.jobs < 1:
        print("c --jobs must be >= 1", file=sys.stderr)
        return 2
    formulas = [parse_dimacs_file(path) for path in args.files]
    config = config_by_name(args.config, seed=args.seed)
    verification = args.verify
    if args.proof and verification is None:
        verification = VERIFY_FULL
    sink, trace, rows = _open_fleet_sink(args, "lane_progress")
    # SIGTERM drains gracefully: no new launches, running workers get a
    # cooperative cancel (final checkpoints written), partial results are
    # reported, and the process exits 143.
    import threading

    stop_event = threading.Event()
    previous_sigterm = signal.signal(
        signal.SIGTERM, lambda signum, frame: stop_event.set()
    )
    try:
        batch = solve_batch(
            formulas,
            jobs=args.jobs,
            config=config,
            max_conflicts=args.max_conflicts,
            max_seconds=args.max_seconds,
            timeout=args.timeout,
            retry=args.retries,
            verification=verification if verification is not None else VERIFY_OFF,
            stall_seconds=args.stall_seconds,
            checkpoint_dir=args.checkpoint,
            checkpoint_interval=args.checkpoint_interval,
            trace=sink,
            stop_event=stop_event,
        )
    finally:
        signal.signal(signal.SIGTERM, previous_sigterm)
        if sink is not None:
            sink.close()
    _report_fleet_outputs(args, trace, rows)
    for path, result in zip(args.files, batch.results):
        detail = f" ({result.limit_reason})" if result.is_unknown else ""
        if result.verified is not None:
            detail += f" [verified: {result.verified}]"
        print(f"{path}: {result.status.value}{detail} [{result.wall_seconds:.3f}s]")
    retries = f", {batch.retries} retries" if batch.retries else ""
    print(
        f"c batch: {len(batch)} files, {batch.num_sat} sat, "
        f"{batch.num_unsat} unsat, {batch.num_unknown} unknown{retries}, "
        f"{batch.wall_seconds:.3f}s wall"
    )
    if args.stats:
        for key, value in batch.stats.as_dict().items():
            print(f"c {key} = {value}")
    if batch.drained:
        print("c batch drained on SIGTERM (unfinished files report UNKNOWN)")
        return 143
    return 0 if batch.all_definite else 1


def _parse_session_stream(lines) -> list[tuple[str, list[int], int]]:
    """Parse an iCNF-style command stream into (kind, literals, lineno).

    ``kind`` is ``"add"`` (a clause) or ``"solve"`` (an ``a ... 0``
    line whose literals are the assumptions).  ``p`` headers and ``c``
    comments are skipped; every command line must end in ``0``.
    """
    commands: list[tuple[str, list[int], int]] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line[0] in "cp":
            continue
        tokens = line.split()
        kind = "solve" if tokens[0] == "a" else "add"
        body = tokens[1:] if kind == "solve" else tokens
        try:
            literals = [int(token) for token in body]
        except ValueError as error:
            raise DimacsError(f"session stream line {lineno}: {error}") from None
        if not literals or literals[-1] != 0:
            raise DimacsError(
                f"session stream line {lineno}: command lines must end in 0"
            )
        if 0 in literals[:-1]:
            raise DimacsError(
                f"session stream line {lineno}: literal 0 inside a command"
            )
        commands.append((kind, literals[:-1], lineno))
    return commands


def _cmd_session(args: argparse.Namespace) -> int:
    from repro.session import DEFAULT_RETAIN_MAX_LBD, SolverSession

    if args.file == "-":
        commands = _parse_session_stream(sys.stdin)
    else:
        with open(args.file, encoding="utf-8") as stream:
            commands = _parse_session_stream(stream)
    retain = DEFAULT_RETAIN_MAX_LBD
    if args.retain_max_lbd is not None:
        retain = None if args.retain_max_lbd < 0 else args.retain_max_lbd
    trace = _open_trace(args)
    config = config_by_name(
        args.config,
        seed=args.seed,
        verification=args.verify if args.verify is not None else VERIFY_OFF,
        trace=trace,
    )
    limits = {}
    if args.max_conflicts is not None:
        limits["max_conflicts"] = args.max_conflicts
    if args.max_seconds is not None:
        limits["max_seconds"] = args.max_seconds
    session_kwargs = {"retain_max_lbd": retain}
    if args.no_cache:
        session_kwargs["cache"] = None
    unknowns = 0
    try:
        with SolverSession(config=config, **session_kwargs) as session:
            for kind, literals, lineno in commands:
                if kind == "add":
                    session.add_clause(literals)
                    continue
                result = session.solve(assumptions=literals, **limits)
                prefix = f"c query {session.calls} (line {lineno})"
                if result.status is SolveStatus.SAT:
                    print(f"{prefix}: s SATISFIABLE")
                    model = result.model or {}
                    literals_out = [
                        variable if value else -variable
                        for variable, value in sorted(model.items())
                    ]
                    print("v " + " ".join(map(str, literals_out)) + " 0")
                elif result.status is SolveStatus.UNSAT:
                    print(f"{prefix}: s UNSATISFIABLE")
                    core = session.unsat_core()
                    if core is not None:
                        print("c core " + " ".join([*map(str, sorted(core)), "0"]))
                else:
                    unknowns += 1
                    print(f"{prefix}: s UNKNOWN ({result.limit_reason})")
                if result.verified is not None:
                    print(f"c answer verified ({result.verified})")
            stats = session.stats
            cache_line = ""
            if session.cache is not None:
                summary = session.cache.summary()
                cache_line = (
                    f", cache {summary['hits']} hits / {summary['misses']} misses"
                )
            print(
                f"c session: {stats.session_calls} queries, "
                f"{stats.cache_hits} cache hits, "
                f"{stats.retained_clauses} clauses retained{cache_line}"
            )
            if args.stats:
                for key, value in stats.as_dict().items():
                    print(f"c {key} = {value}")
    finally:
        if trace is not None:
            trace.close()
    if trace is not None:
        print(
            f"c trace written to {args.trace_out} "
            f"({trace.events_written} events)"
        )
    return 0 if not unknowns else 1


def _cmd_generate(args: argparse.Namespace) -> int:
    size, extra, seed = args.size, args.extra, args.seed
    if args.family == "hole":
        from repro.generators import pigeonhole_formula

        formula = pigeonhole_formula(size)
    elif args.family == "hanoi":
        from repro.generators import hanoi_formula

        formula = hanoi_formula(size, extra)
    elif args.family == "queens":
        from repro.generators import queens_formula

        formula = queens_formula(size)
    elif args.family == "xor":
        from repro.generators import random_xor_system, xor_system_formula

        system = random_xor_system(size, extra or size, 3, seed, planted=True)
        formula = xor_system_formula(system)
    elif args.family == "ksat":
        from repro.generators import planted_ksat

        formula = planted_ksat(size, extra or int(4.1 * size), 3, seed)
    elif args.family == "adder":
        from repro.circuits import adder_equivalence_miter

        formula = adder_equivalence_miter(size)
    elif args.family == "pipe":
        from repro.circuits import pipeline_equivalence_miter

        formula, _ = pipeline_equivalence_miter(size, extra or 2)
    elif args.family == "sudoku":
        from repro.generators import sudoku_formula, sudoku_puzzle

        formula = sudoku_formula(sudoku_puzzle())
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(args.family)
    write_dimacs_file(formula, args.output)
    print(
        f"wrote {args.output}: {formula.num_variables} variables, "
        f"{formula.num_clauses} clauses"
    )
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    names = EXPERIMENTS if args.name == "all" else [args.name]
    for name in names:
        module = importlib.import_module(f"repro.experiments.{name}")
        table = module.build(scale=args.scale, progress=lambda msg: print(f"c {msg}"))
        print(table.render())
        print()
    return 0


def _cmd_atpg(args: argparse.Namespace) -> int:
    from repro.circuits import random_circuit, run_atpg

    circuit = random_circuit(args.inputs, args.gates, seed=args.seed)
    report = run_atpg(circuit)
    print(f"circuit {circuit.name}: {circuit.num_gates} gates")
    print(f"faults {report.total_faults}, testable {report.testable_faults}, "
          f"coverage {100 * report.coverage:.1f}%")
    print(f"test set: {len(report.test_set())} distinct patterns")
    for result in report.results:
        if result.testable:
            vector = "".join(
                "1" if result.pattern[net] else "0" for net in circuit.inputs
            )
            print(f"  {result.fault}: pattern {vector}")
        else:
            print(f"  {result.fault}: untestable (redundant)")
    return 0


def _cmd_bmc(args: argparse.Namespace) -> int:
    from repro.circuits import counter_circuit, unroll
    from repro.solver.solver import Solver

    circuit = counter_circuit(args.bits, args.target, with_enable=args.enable)
    encoding = unroll(circuit, args.bound)
    result = Solver(encoding.formula).solve()
    print(f"{circuit.name} within {args.bound} cycles: {result.status.value}")
    if result.is_sat:
        trace = encoding.decode_trace(result.model, circuit)
        for step, snapshot in enumerate(trace):
            bits = "".join(
                "1" if snapshot[r] else "0" for r in reversed(circuit.registers)
            )
            print(f"  cycle {step:3d}: {bits}" + ("  <- BAD" if snapshot["bad"] else ""))
            if snapshot["bad"]:
                break
        return 10
    return 20 if result.is_unsat else 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro import bench as bench_module

    if args.profile:
        print(
            bench_module.profile_bcp(holes=args.holes, config_name=args.config)
        )
        return 0
    if args.session:
        try:
            report = bench_module.run_session_bench(
                scale=args.scale,
                config_name=args.config,
                rounds=args.rounds,
            )
        except bench_module.BenchAgreementError as error:
            print(f"SESSION DISAGREEMENT: {error}", file=sys.stderr)
            return 1
        print(bench_module.format_session_table(report))
        if args.out:
            bench_module.write_report(report, args.out)
            print(f"report written to {args.out}")
        return 0 if report["aggregate"]["meets_target"] else 1
    if args.portfolio:
        try:
            report = bench_module.run_portfolio_bench(
                scale=args.scale, repeats=args.repeats
            )
        except bench_module.BenchAgreementError as error:
            print(f"SHARING DISAGREEMENT: {error}", file=sys.stderr)
            return 1
        print(bench_module.format_portfolio_table(report))
        if args.out:
            bench_module.write_report(report, args.out)
            print(f"report written to {args.out}")
        # The 1.3x sharing target is calibrated on the default suite;
        # quick runs are agreement smoke only.
        if args.scale != "quick" and not report["aggregate"]["meets_target"]:
            return 1
        return 0
    try:
        report = bench_module.run_bcp_bench(
            scale=args.scale,
            config_name=args.config,
            repeats=args.repeats,
            agreement=not args.no_agreement,
        )
    except bench_module.BenchAgreementError as error:
        print(f"ORACLE DISAGREEMENT: {error}", file=sys.stderr)
        return 1
    print(bench_module.format_table(report))
    if args.out:
        bench_module.write_report(report, args.out)
        print(f"report written to {args.out}")
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    from repro.reliability import AUDIT_ENGINES, run_audit

    if args.engine:
        unknown = [name for name in args.engine if name not in AUDIT_ENGINES]
        if unknown:
            print(
                f"c unknown --engine {', '.join(unknown)} "
                f"(choose from {', '.join(AUDIT_ENGINES)})",
                file=sys.stderr,
            )
            return 2
    rounds = 8 if args.quick else args.rounds
    # Audit rounds run their engines internally, so --metrics-out means
    # "one row per audit_round event", not relayed worker telemetry.
    sink, trace, rows = _open_fleet_sink(args, "audit_round")
    try:
        report = run_audit(
            rounds,
            seed=args.seed,
            jobs=args.jobs,
            engines=args.engine,
            log=print if args.verbose else None,
            trace=sink,
        )
    finally:
        if sink is not None:
            sink.close()
    if trace is not None:
        print(
            f"c trace written to {args.trace_out} "
            f"({trace.events_written} events)"
        )
    if rows is not None:
        _write_rows(args.metrics_out, rows)
        print(
            f"c round metrics written to {args.metrics_out} "
            f"({len(rows)} rows)"
        )
    for failure in report.failures:
        print(f"c {failure}")
    print(report.summary())
    return 0 if report.ok else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.server import AdmissionController, SolverServer, SolverService

    if args.pool_size < 1:
        print("c --pool-size must be >= 1", file=sys.stderr)
        return 2
    trace = _open_trace(args)
    service = SolverService(
        pool_size=args.pool_size,
        config=config_by_name(args.config, seed=args.seed),
        retry=args.retries,
        verification=args.verify,
        stall_seconds=args.stall_seconds,
        default_timeout=args.default_timeout,
        max_timeout=args.max_timeout,
        admission=AdmissionController(
            max_queue=args.max_queue, per_client=args.per_client
        ),
        checkpoint_dir=args.checkpoint,
        checkpoint_interval=args.checkpoint_interval,
        trace=trace,
        latency_objective=args.latency_objective,
    )
    dashboard = None
    if args.dashboard:
        from repro.observability import FleetDashboard, MultiSink
        from repro.server import ServiceDashboardAdapter

        # The panel folds the pool's supervision events only; the
        # service's span and server_* events go to --trace-out alone.
        dashboard = ServiceDashboardAdapter(FleetDashboard(), args.pool_size)
        service.pool.trace = MultiSink(dashboard, service.pool.trace)
    server = SolverServer(
        service,
        host=args.host,
        port=args.port,
        unix_path=args.unix_path,
        drain_grace=args.drain_grace,
    )

    async def run() -> None:
        await server.start()
        address = args.unix_path or f"{args.host}:{server.port}"
        print(f"c serving on {address} (pool of {args.pool_size})", flush=True)
        await server.serve_forever()

    try:
        asyncio.run(run())
    finally:
        if dashboard is not None:
            dashboard.emit({"type": "fleet_end", "summary": "service drained"})
            dashboard.close()
        if trace is not None:
            trace.close()
    stats = service.stats()
    print(
        f"c drained: {stats['requests']} requests, "
        f"{stats['pool']['retries']} worker retries, "
        f"{stats['uptime_seconds']:.1f}s up"
    )
    if server.stop_signum == signal.SIGTERM:
        return 143
    if server.stop_signum == signal.SIGINT:
        return 130
    return 0


def _cmd_trace_summary(args: argparse.Namespace) -> int:
    import json

    from repro.observability import (
        TraceFormatError,
        format_service_summary,
        format_summary,
        summarize_service_trace,
        summarize_trace,
    )

    summarize = summarize_service_trace if args.service else summarize_trace
    formatter = format_service_summary if args.service else format_summary
    try:
        summary = summarize(args.file)
    except TraceFormatError as error:
        print(f"repro-sat: error: {error}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(summary, indent=2))
    else:
        print(formatter(summary))
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    import time as _time

    from repro.observability import OpsTop
    from repro.server import SolverClient

    iterations = 1 if args.once else args.iterations
    view = OpsTop()
    polled = 0
    try:
        with SolverClient(
            host=args.host, port=args.port, unix_path=args.unix_path
        ) as client:
            while iterations is None or polled < iterations:
                reply = client.stats()
                if reply.get("kind") != "stats":
                    print(
                        f"repro-sat: error: unexpected reply kind "
                        f"{reply.get('kind')!r} from service",
                        file=sys.stderr,
                    )
                    return 2
                view.update(reply["stats"])
                polled += 1
                if iterations is not None and polled >= iterations:
                    break
                _time.sleep(args.interval)
    finally:
        view.close()
    return 0


def _cmd_trace_export(args: argparse.Namespace) -> int:
    import json

    from repro.checkpoint.io import atomic_write_text
    from repro.observability import TraceFormatError, chrome_trace_from_events
    from repro.observability.summary import _iter_trace_lenient

    unknown_types: dict = {}
    try:
        events = list(_iter_trace_lenient(args.file, unknown_types))
    except TraceFormatError as error:
        print(f"repro-sat: error: {error}", file=sys.stderr)
        return 2
    exported = chrome_trace_from_events(events, request_id=args.request)
    atomic_write_text(args.out, json.dumps(exported, separators=(",", ":")) + "\n")
    spans = sum(
        1 for event in exported["traceEvents"] if event.get("ph") == "X"
    )
    requests = sum(
        1 for event in exported["traceEvents"] if event.get("ph") == "M"
    )
    print(f"c exported {spans} spans across {requests} requests to {args.out}")
    if not spans:
        print(
            "c (no span events found — was the trace recorded by "
            "`repro-sat serve --trace-out`?)",
            file=sys.stderr,
        )
    return 0


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "solve":
        return _cmd_solve(args)
    if args.command == "batch":
        return _cmd_batch(args)
    if args.command == "session":
        return _cmd_session(args)
    if args.command == "generate":
        return _cmd_generate(args)
    if args.command == "experiment":
        return _cmd_experiment(args)
    if args.command == "atpg":
        return _cmd_atpg(args)
    if args.command == "bmc":
        return _cmd_bmc(args)
    if args.command == "bench":
        return _cmd_bench(args)
    if args.command == "audit":
        return _cmd_audit(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "top":
        return _cmd_top(args)
    if args.command == "trace-summary":
        return _cmd_trace_summary(args)
    if args.command == "trace-export":
        return _cmd_trace_export(args)
    raise AssertionError("unreachable")  # pragma: no cover


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    Operational errors — an unreadable, missing, or malformed input
    file — surface as a one-line ``repro-sat: error: ...`` message on
    stderr with exit code 2, never a traceback.
    """
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (DimacsError, OSError) as error:
        print(f"repro-sat: error: {error}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        # The supervised engines clean their workers up on the way out
        # (see repro.parallel); a dashboarded Ctrl-C exits cleanly.
        print("repro-sat: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
