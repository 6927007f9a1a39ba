"""The workload process: load phase, op passes, raw results.

``run.py`` starts this script once per set-up sample.  It imports
``repro``, reads the generated inputs and, for ``service``, starts
``repro-sat serve`` and waits for its first ``pong``; then it prints
``ready`` (the parent's set-up clock stops on that line).  A set-up-only
sample exits there.  The measured run goes on to issue the op list:

* untraced (``--trace 0``): one pass through the public entry points,
  ``parse_dimacs`` + ``solve_formula`` or one ``AsyncSolverClient``
  connection;
* traced (``--trace 1``): the same list twice through the calls each
  layer exposes, first without spans (the baseline of
  ``trace.overhead``), then with a span around each call.

A pass times its ops only: each op is reduced to a small record as it
ends, and the records are checked against the proved statuses (SAT
models against the clauses that were sent) after the pass.  Each op
also leaves a signature for the parent's exact-repeat check.  Results
go to the JSON file named by ``--out``.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext

clock = time.perf_counter

#: Budget passed with each service request, seconds (never reached by
#: the service mix; a request that hits it is a failed op).
REQUEST_TIMEOUT = 60.0
#: How long a server may take to answer its first ping.
STARTUP_TIMEOUT = 60.0
#: Pings sent after the traced service pass for ``server.ping_ms``.
PING_SAMPLES = 20


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------
class Tracer:
    """In-memory spans: ``[name, start, end, parent index, op key]``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, op: str | None = None):
        parent = self._open[-1] if self._open else None
        if op is None and parent is not None:
            op = self.spans[parent][4]
        index = len(self.spans)
        self.spans.append([name, clock(), None, parent, op])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = clock()

    def durations(self, name: str) -> list[float]:
        return [end - start for span_name, start, end, _, _ in self.spans if span_name == name]

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus child spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        totals: dict[str, float] = {}
        for index, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] = totals.get(name, 0.0) + (end - start) - child[index]
        return totals

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, op in self.spans:
                handle.write(json.dumps({"name": name, "start": start, "end": end,
                                         "parent": parent, "op": op}) + "\n")


def no_span(name: str, op: str | None = None):
    return nullcontext()


def _median_ms(values: list[float]) -> float | None:
    return statistics.median(values) * 1000.0 if values else None


# ---------------------------------------------------------------------------
# Correctness gate (independent of repro: own DIMACS reader, own model check)
# ---------------------------------------------------------------------------
def dimacs_clauses(text: str) -> list[list[int]]:
    literals = [
        int(token)
        for line in text.splitlines()
        if line and line[0] not in "cp%"
        for token in line.split()
    ]
    clauses, current = [], []
    for literal in literals:
        if literal == 0:
            clauses.append(current)
            current = []
        else:
            current.append(literal)
    return clauses


def model_violation(clauses, true_literals) -> list[int] | None:
    """The first clause the model leaves unsatisfied, or ``None``."""
    true = set(true_literals)
    for clause in clauses:
        if not any(literal in true for literal in clause):
            return clause
    return None


def digest(literals) -> str:
    return hashlib.blake2b(json.dumps(literals).encode(), digest_size=8).hexdigest()


class Outcomes:
    """Per-op records of one pass: latency, failure, signature."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.failures: list[dict] = []
        self.wrong = 0
        self.signatures: dict[str, list] = {}

    def fail(self, key: str, name: str, reason: str, *, wrong: bool = False) -> None:
        self.failures.append({"key": key, "name": name, "reason": reason})
        self.wrong += wrong

    def summary(self, wall_seconds: float, ops: int) -> dict:
        return {
            "ops": ops,
            "wall_seconds": wall_seconds,
            "latencies": self.latencies,
            "failures": self.failures,
            "wrong": self.wrong,
            "signatures": self.signatures,
        }


# ---------------------------------------------------------------------------
# In-process workloads: solve, verified
# ---------------------------------------------------------------------------
def answer_record(result) -> dict:
    """What the correctness gate and the signature need from a result."""
    stats = result.stats
    return {
        "status": result.status.name,
        "limit_reason": result.limit_reason,
        "model": result.model,
        "verified": result.verified,
        "signature": [result.status.name, stats.conflicts, stats.decisions,
                      stats.propagations, len(result.proof or ())],
    }


def check_inprocess(op, answer, error, outcomes: Outcomes, verification: str) -> None:
    key, name = op["key"], op["name"]
    if error is not None:
        outcomes.fail(key, name, error)
        return
    status = answer["status"]
    outcomes.signatures[f"{key}/{name}/{op['shuffle_seed']}"] = answer["signature"]
    if status == "UNKNOWN":
        outcomes.fail(key, name, f"UNKNOWN ({answer['limit_reason']})")
    elif status != op["expected"]:
        outcomes.fail(key, name, f"wrong verdict {status}, proved {op['expected']}", wrong=True)
    elif status == "SAT":
        true = [v if value else -v for v, value in answer["model"].items()]
        clause = model_violation(dimacs_clauses(op["dimacs"]), true)
        if clause is not None:
            outcomes.fail(key, name, f"model violates clause {clause}", wrong=True)
    elif verification == "full" and answer["verified"] != "proof":
        outcomes.fail(key, name, f"UNSAT answer not proof-checked ({answer['verified']})")


def entry_point_solve(op, config):
    """What a user calls: ``parse_dimacs`` + ``solve_formula``."""
    from repro import parse_dimacs, solve_formula

    return solve_formula(parse_dimacs(op["dimacs"]), config, max_conflicts=op["budget"])


def unrolled_solve(op, config, span, layers: dict):
    """The layers ``solve_formula`` calls, one by one, each under ``span``.

    Skips the ``SolverSession`` wrapper ``solve_formula`` goes through
    (clause retention and a pristine copy of the formula for the check).
    """
    from repro import Solver, parse_dimacs, verify_result

    with span("op", op["key"]):
        with span("cnf.parse"):
            formula = parse_dimacs(op["dimacs"])
        with span("solver.load"):
            solver = Solver(formula, config)
        with span("solver.search"):
            result = solver.solve(max_conflicts=op["budget"])
        if config.verification != "off":
            checks_proof = result.status.name == "UNSAT" and config.verification == "full"
            with span("proof.check" if checks_proof else "reliability.verify"):
                result.verified = verify_result(formula, result, config.verification)
    stats = result.stats
    for field in ("conflicts", "decisions", "propagations", "restarts",
                  "db_reductions", "learned_deleted"):
        layers[field] += getattr(stats, field)
    for step, _ in result.proof or ():
        layers["lemmas" if step == "a" else "deletions"] += 1
    return result


def inprocess_pass(ops, config, call) -> dict:
    """Run ``ops`` once through ``call(op, config)``, then check the answers."""
    from repro.reliability import VerificationError

    outcomes = Outcomes()
    answers = []
    pass_started = clock()
    for op in ops:
        answer = error = None
        started = clock()
        try:
            answer = answer_record(call(op, config))
        except VerificationError as exc:
            error = f"VerificationError: {exc}"
        except Exception as exc:  # a crash is a failed op, not a dead run
            error = f"{type(exc).__name__}: {exc}"
        outcomes.latencies.append(clock() - started)
        answers.append((answer, error))
    wall = clock() - pass_started
    for op, (answer, error) in zip(ops, answers):
        check_inprocess(op, answer, error, outcomes, config.verification)
    return outcomes.summary(wall, len(ops))


def new_layers() -> dict:
    return dict.fromkeys(
        ("conflicts", "decisions", "propagations", "restarts", "db_reductions",
         "learned_deleted", "lemmas", "deletions"), 0
    )


def inprocess_layer_metrics(tracer: Tracer, layers: dict, failures: list[dict]) -> dict:
    search = tracer.durations("solver.search")
    checks = tracer.durations("proof.check")
    checked_ops = {op for name, _, _, _, op in tracer.spans if name == "proof.check"}
    checked_search = [
        end - start
        for name, start, end, _, op in tracer.spans
        if name == "solver.search" and op in checked_ops
    ]
    return {
        "cnf.parse_ms": _median_ms(tracer.durations("cnf.parse")),
        "solver.load_ms": _median_ms(tracer.durations("solver.load")),
        "solver.search_ms": _median_ms(search),
        "solver.props_per_s": layers["propagations"] / sum(search) if search else None,
        "solver.conflicts": layers["conflicts"],
        "solver.decisions": layers["decisions"],
        "solver.propagations": layers["propagations"],
        "solver.restarts": layers["restarts"],
        "solver.db_reductions": layers["db_reductions"],
        "solver.learned_deleted": layers["learned_deleted"],
        "proof.check_ms": _median_ms(checks),
        "proof.check_per_search": sum(checks) / sum(checked_search) if checks else None,
        "proof.lemmas": layers["lemmas"] if checks else None,
        "proof.deletions": layers["deletions"] if checks else None,
        "reliability.rejected": sum(
            1 for failure in failures if failure["reason"].startswith("VerificationError")
        ),
    }


# ---------------------------------------------------------------------------
# The service workload
# ---------------------------------------------------------------------------
class ServerProcess:
    """``repro-sat serve`` on a UNIX socket in the run directory."""

    def __init__(self, index: int) -> None:
        self.socket = f"svc{index}.sock"
        self.process = None
        self.startup_s = None

    def start(self) -> "ServerProcess":
        from repro.server import SolverClient

        if os.path.exists(self.socket):
            os.unlink(self.socket)
        started = clock()
        with open(self.socket + ".log", "wb") as log:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", "--unix-path", self.socket,
                 "--pool-size", "1", "--verify", "sat"],
                stdout=subprocess.DEVNULL, stderr=log,
            )
        while True:
            if self.process.poll() is not None:
                raise RuntimeError(f"server exited with {self.process.returncode} before pong")
            if clock() - started > STARTUP_TIMEOUT:
                self.stop()
                raise RuntimeError("server did not answer ping in time")
            try:
                with SolverClient(unix_path=self.socket, connect_timeout=1.0) as client:
                    if client.ping(reply_timeout=5.0).get("kind") == "pong":
                        break
            except OSError:
                time.sleep(0.005)
        self.startup_s = clock() - started
        return self

    def stop(self) -> None:
        if self.process is None or self.process.poll() is not None:
            return
        self.process.send_signal(signal.SIGTERM)
        try:
            self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()


def check_reply(request, formula, reply, outcomes: Outcomes) -> None:
    key, name = request["key"], formula["name"]
    kind = reply.get("kind")
    outcomes.signatures[f"{key}/{name}/{formula['shuffle_seed']}/{request['kind']}"] = [
        reply.get("status"), reply.get("cached"), reply.get("attempts"),
        digest(reply.get("model")),
    ]
    if kind != "result":
        outcomes.fail(key, name, f"{kind} reply: {reply.get('reason') or reply.get('error')}")
    elif reply.get("status") == "UNKNOWN":
        outcomes.fail(key, name, f"UNKNOWN ({reply.get('limit_reason')})")
    elif reply.get("status") != formula["expected"]:
        outcomes.fail(key, name, f"wrong verdict {reply.get('status')}, "
                      f"proved {formula['expected']}", wrong=True)
    elif reply["status"] == "SAT":
        clause = model_violation(formula["clauses"], reply.get("model") or ())
        if clause is not None:
            outcomes.fail(key, name, f"model violates clause {clause}", wrong=True)


async def service_pass(server: ServerProcess, requests, formulas, tracer: Tracer | None,
                       layers: dict | None) -> dict:
    """One closed-loop pass: one connection, one request in flight."""
    from repro.server import AsyncSolverClient

    span = tracer.span if tracer is not None else no_span
    outcomes = Outcomes()
    replies = []
    async with AsyncSolverClient(unix_path=server.socket) as client:
        pass_started = clock()
        for request in requests:
            formula = formulas[request["input"]]
            started = clock()
            try:
                with span(f"service.{request['kind']}", request["key"]):
                    reply = await client.solve(formula["clauses"],
                                               max_conflicts=formula["budget"],
                                               timeout=REQUEST_TIMEOUT)
            except Exception as exc:  # a dropped connection fails the op
                reply = {"kind": "exception", "reason": f"{type(exc).__name__}: {exc}"}
            elapsed = clock() - started
            outcomes.latencies.append(elapsed)
            replies.append((request, reply, elapsed))
        wall = clock() - pass_started
        if tracer is not None:
            for _ in range(PING_SAMPLES):
                with span("service.ping"):
                    pong = await client.ping()
                if pong.get("kind") != "pong":
                    raise RuntimeError(f"{pong.get('kind')} reply to ping")
            with span("service.scrape"):
                await client.metrics()
    for request, reply, _ in replies:
        check_reply(request, formulas[request["input"]], reply, outcomes)
    if layers is not None:
        layers["replies"] = [
            (request["kind"], request["input"], reply.get("kind"), reply.get("cached"),
             reply.get("attempts") or 1, elapsed)
            for request, reply, elapsed in replies
        ]
    return outcomes.summary(wall, len(requests))


def to_dimacs(clauses, num_variables: int) -> str:
    lines = [f"p cnf {num_variables} {len(clauses)}"]
    lines.extend(" ".join(map(str, clause)) + " 0" for clause in clauses)
    return "\n".join(lines) + "\n"


def reference_solves(formulas, tracer: Tracer, layers: dict) -> tuple[dict[int, float], list]:
    """In-process ``verification="sat"`` solve of each formula, by layer.

    Returns the load + search + verify seconds per formula index (what
    the service's worker spends on the solve itself) and the failures.
    """
    from repro import berkmin_config
    from repro.reliability import VerificationError

    config = berkmin_config().replace(verification="sat")
    seconds, failures = {}, []
    for index, formula in enumerate(formulas):
        variables = max((abs(lit) for clause in formula["clauses"] for lit in clause), default=0)
        op = {"key": f"ref{index}", "dimacs": to_dimacs(formula["clauses"], variables),
              "budget": formula["budget"]}
        first = len(tracer.spans)
        try:
            unrolled_solve(op, config, tracer.span, layers)
        except VerificationError as exc:
            failures.append({"key": op["key"], "name": formula["name"],
                             "reason": f"VerificationError: {exc}"})
        seconds[index] = sum(
            end - start for name, start, end, _, _ in tracer.spans[first:]
            if name in ("solver.load", "solver.search", "reliability.verify")
        )
    return seconds, failures


def service_layer_metrics(tracer: Tracer, layers: dict, reference: dict[int, float]) -> dict:
    replies = layers["replies"]
    hits = [r for r in replies if r[3]]
    misses: dict[int, float] = {}
    hit_latency: dict[int, list[float]] = {}
    for kind, index, reply_kind, cached, _, elapsed in replies:
        if kind == "miss" and not cached:
            misses[index] = elapsed
        elif kind == "hit" and cached:
            hit_latency.setdefault(index, []).append(elapsed)
    overheads = [
        misses[i] - statistics.median(hit_latency[i]) - reference[i]
        for i in hit_latency if i in misses
    ]
    return {
        "server.ping_ms": _median_ms(tracer.durations("service.ping")),
        "server.refusals": sum(1 for r in replies if r[2] in ("busy", "deadline", "error")),
        "session.cache_hits": len(hits),
        "session.cache_hit_ms": _median_ms([r[5] for r in hits]),
        "parallel.job_overhead_ms": _median_ms(overheads),
        "parallel.retries": sum(r[4] - 1 for r in replies if r[2] == "result"),
        "observability.scrape_ms": _median_ms(tracer.durations("service.scrape")),
    }


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------
def _config(workload: str):
    from repro import berkmin_config

    config = berkmin_config()
    return config.replace(verification="full") if workload == "verified" else config


def run_inprocess(data, traced: bool, tracer: Tracer) -> dict:
    ops, config = data["ops"], _config(data["workload"])
    if not traced:
        return {"passes": [inprocess_pass(ops, config, entry_point_solve)]}
    baseline = inprocess_pass(ops, config, lambda op, cfg: unrolled_solve(op, cfg, no_span,
                                                                         new_layers()))
    layers = new_layers()
    traced_pass = inprocess_pass(ops, config,
                                 lambda op, cfg: unrolled_solve(op, cfg, tracer.span, layers))
    return {"passes": [baseline, traced_pass],
            "layers": inprocess_layer_metrics(tracer, layers, traced_pass["failures"])}


def run_service(data, server: ServerProcess, traced: bool, tracer: Tracer) -> dict:
    requests, formulas = data["requests"], data["formulas"]
    try:
        result = {"passes": [asyncio.run(service_pass(server, requests, formulas, None, None))],
                  "startups": [server.startup_s]}
    finally:
        server.stop()
    if not traced:
        return result
    # A fresh server, so the traced pass meets the same cold cache.
    layers = {}
    server = ServerProcess(1).start()
    try:
        result["passes"].append(asyncio.run(
            service_pass(server, requests, formulas, tracer, layers)))
    finally:
        server.stop()
    result["startups"].append(server.startup_s)
    solver_layers = new_layers()
    reference, failures = reference_solves(formulas, tracer, solver_layers)
    metrics = inprocess_layer_metrics(tracer, solver_layers, failures)
    metrics.update(service_layer_metrics(tracer, layers, reference))
    result["layers"] = metrics
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("inputs", help="generated inputs (JSON)")
    parser.add_argument("--out", help="where to write the raw results (JSON)")
    parser.add_argument("--setup-only", action="store_true", help="exit after the load phase")
    parser.add_argument("--trace", action="store_true", help="add the traced pass")
    args = parser.parse_args(argv)

    import repro  # noqa: F401  (the import is part of the load phase)

    with open(args.inputs, encoding="utf-8") as handle:
        data = json.load(handle)
    server = ServerProcess(0).start() if data["workload"] == "service" else None
    print("ready", server.startup_s if server else "", flush=True)
    if args.setup_only:
        if server is not None:
            server.stop()
        return 0

    tracer = Tracer()
    if server is not None:
        result = run_service(data, server, args.trace, tracer)
    else:
        result = run_inprocess(data, args.trace, tracer)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result["peak_rss_mb"] = (own + children) / 1024.0
    if args.trace:
        tracer.write(os.path.splitext(args.out)[0] + ".spans.jsonl")
        result["self_ms"] = {name: seconds * 1000.0 for name, seconds in tracer.self_times().items()}
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
