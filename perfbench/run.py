"""Benchmark entry point: solve, verified and service workloads (see NOTES.md).

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload solve --seed 1 --seconds 20 --trace 0

Phases, after qdina-bench: *generate* the op list from ``--seed`` (no
clock running), warm the one-time caches (bytecode, arena kernel),
*load* (the set-up clock: workload process start to its first op,
sampled before and after the run), *run* the op list in the workload process,
*report*.  The last stdout line is one JSON object: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Everything the run writes stays under ``.perfbench_out/`` in the
checkout.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

#: Set-up-only processes started before and after the measured run; with
#: the measured run's own load phase they give the set-up samples.  Taking
#: half after the run spreads them over its length, so one slow stretch
#: of the VM does not cover them all.
SETUP_SAMPLES_EACH_SIDE = 3
#: Wall-clock cap on the measured workload process, seconds.
RUN_TIMEOUT = 170.0

END_TO_END_UNITS = {
    "setup_s": "s", "throughput_ops": "1/s", "latency_p50_ms": "ms",
    "latency_tail_ms": "ms", "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "cnf.parse_ms": "ms", "solver.load_ms": "ms", "solver.search_ms": "ms",
    "solver.props_per_s": "1/s", "solver.conflicts": "count",
    "solver.decisions": "count", "solver.propagations": "count",
    "solver.restarts": "count", "solver.db_reductions": "count",
    "solver.learned_deleted": "count", "proof.check_ms": "ms",
    "proof.check_per_search": "ratio", "proof.lemmas": "count",
    "proof.deletions": "count", "reliability.rejected": "count",
    "server.startup_s": "s", "server.ping_ms": "ms", "server.refusals": "count",
    "session.cache_hits": "count", "session.cache_hit_ms": "ms",
    "parallel.job_overhead_ms": "ms", "parallel.retries": "count",
    "observability.scrape_ms": "ms", "trace.overhead": "ratio",
    "bench.one_time_s": "s",
}
#: Layers each workload calls.  A per-layer metric of any other layer is
#: reported as 0 (the contract asks for every metric in a traced run) and
#: listed as off-path; a missing on-path measurement fails the run.
ON_PATH = {
    "solve": ("cnf", "solver", "trace", "bench"),
    "verified": ("cnf", "solver", "proof", "reliability", "trace", "bench"),
    "service": ("cnf", "solver", "reliability", "server", "session", "parallel",
                "observability", "trace", "bench"),
}


class BenchError(RuntimeError):
    """The run cannot produce a result."""


def say(message: str) -> None:
    print(f"perfbench: {message}", flush=True)


def program_digest() -> str:
    """Digest of the solver sources: signatures are only compared within one."""
    hasher = hashlib.blake2b(digest_size=8)
    for path in sorted((SRC / "repro").rglob("*")):
        if path.suffix in (".py", ".c"):
            hasher.update(str(path.relative_to(SRC)).encode())
            hasher.update(path.read_bytes())
    return hasher.hexdigest()


def warm_one_time_caches() -> float:
    """Compile bytecode and the arena kernel; returns the seconds spent.

    Both are built once per source revision and reused by every later
    run, so they are kept out of ``setup_s`` and reported on their own.
    """
    started = time.perf_counter()
    compileall.compile_dir(str(SRC / "repro"), quiet=1)
    from repro import CnfFormula, berkmin_config, solve_formula

    solve_formula(CnfFormula([[1, 2], [-1, 2], [1, -2]]),
                  berkmin_config().replace(propagation="arena"))
    return time.perf_counter() - started


def tail_percentile(values: list[float]) -> tuple[int, float]:
    """The highest whole percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    for percentile in range(99, 0, -1):
        position = (len(ordered) - 1) * percentile / 100
        low = int(position)
        high = min(low + 1, len(ordered) - 1)
        value = ordered[low] + (ordered[high] - ordered[low]) * (position - low)
        if sum(1 for v in ordered if v > value) >= 10:
            return percentile, value
    return 50, statistics.median(ordered)


class Workload:
    """One workload process started by this script."""

    def __init__(self, inputs: Path, out: Path, rundir: Path, env: dict, *, setup_only: bool,
                 trace: bool) -> None:
        command = [sys.executable, str(HERE / "workload.py"), str(inputs), "--out", str(out)]
        command += ["--setup-only"] if setup_only else []
        command += ["--trace"] if trace else []
        self.started = time.perf_counter()
        # Its own session, so a timeout can kill the server and pool workers too.
        self.process = subprocess.Popen(command, cwd=rundir, env=env, stdout=subprocess.PIPE,
                                        text=True, start_new_session=True)

    def wait_ready(self) -> tuple[float, float | None]:
        """Seconds from start to ``ready``, and the server's start-up time."""
        for line in self.process.stdout:
            if line.startswith("ready"):
                setup = time.perf_counter() - self.started
                fields = line.split()
                return setup, float(fields[1]) if len(fields) > 1 else None
        self.finish(10.0)
        raise BenchError(f"workload process exited with {self.process.returncode} before ready")

    def finish(self, timeout: float) -> None:
        try:
            self.process.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(self.process.pid, signal.SIGKILL)
            self.process.communicate()
            raise BenchError("workload process timed out") from None
        if self.process.returncode != 0:
            raise BenchError(f"workload process exited with {self.process.returncode}")


def check_repeats(workload: str, seed: int, passes: list[dict]) -> list[str]:
    """Compare op signatures across passes and with earlier runs of this seed."""
    store = OUT / f"signatures-{workload}-{seed}-{program_digest()}.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    mismatches = []
    for number, run_pass in enumerate(passes):
        for key, signature in run_pass["signatures"].items():
            if key in known and known[key] != signature:
                mismatches.append(f"pass {number} op {key}: {signature} != {known[key]}")
            known.setdefault(key, signature)
    store.write_text(json.dumps(known))
    return mismatches


def throughput(run_pass: dict) -> float:
    """Ops completed (attempted minus failed) per second of the pass's wall time."""
    return (run_pass["ops"] - len(run_pass["failures"])) / run_pass["wall_seconds"]


def end_to_end(result: dict, setup: list[float]) -> dict:
    latencies = result["passes"][0]["latencies"]
    percentile, tail = tail_percentile(latencies)
    say(f"latency_tail_ms is p{percentile} over {len(latencies)} samples")
    return {
        "setup_s": statistics.median(setup),
        "throughput_ops": throughput(result["passes"][0]),
        "latency_p50_ms": statistics.median(latencies) * 1000.0,
        "latency_tail_ms": tail * 1000.0,
        "peak_rss_mb": result["peak_rss_mb"],
    }


def per_layer(workload: str, result: dict, one_time: float, startups: list[float]) -> dict:
    baseline, traced = result["passes"]
    metrics = dict(result["layers"])
    if startups:
        metrics["server.startup_s"] = statistics.median(startups + result["startups"][1:])
    metrics["trace.overhead"] = (throughput(traced) - throughput(baseline)) / throughput(baseline)
    metrics["bench.one_time_s"] = one_time
    for name, milliseconds in sorted(result["self_ms"].items(), key=lambda kv: -kv[1])[:12]:
        say(f"self time {name}: {milliseconds:.1f} ms")
    on_path = [name for name in PER_LAYER_UNITS if name.split(".")[0] in ON_PATH[workload]]
    missing = [name for name in on_path if metrics.get(name) is None]
    if missing:
        raise BenchError("no measurement for " + ", ".join(missing))
    off_path = [name for name in PER_LAYER_UNITS if name not in on_path]
    say("off this workload's path, reported as 0: " + " ".join(off_path))
    return {name: metrics[name] if name in on_path else 0 for name in PER_LAYER_UNITS}


def run(args) -> dict:
    OUT.mkdir(exist_ok=True)
    scratch = OUT / "tmp"
    scratch.mkdir(exist_ok=True)
    # The arena kernel cache and multiprocessing's temp files follow TMPDIR.
    os.environ["TMPDIR"] = str(scratch)
    tempfile.tempdir = str(scratch)
    sys.path.insert(0, str(SRC))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))

    one_time = warm_one_time_caches()
    import inputs

    rounds = inputs.rounds_for(args.workload, args.seconds)
    data = inputs.build(args.workload, args.seed, rounds)
    tag = f"{args.workload}-{args.seed}-{os.getpid()}"
    rundir = OUT / f"run-{tag}"
    rundir.mkdir()
    inputs_path = rundir / "inputs.json"
    inputs_path.write_text(json.dumps(data))
    out_path = rundir / "result.json"
    del data
    say(f"workload={args.workload} seed={args.seed} rounds={rounds} one_time_s={one_time:.4f}")

    setup, startups = [], []

    def load(setup_only: bool) -> Workload:
        process = Workload(inputs_path, out_path, rundir, env, setup_only=setup_only,
                           trace=bool(args.trace))
        seconds, startup = process.wait_ready()
        setup.append(seconds)
        startups.extend([startup] if startup is not None else [])
        return process

    for _ in range(SETUP_SAMPLES_EACH_SIDE):
        load(setup_only=True).finish(60.0)
    load(setup_only=False).finish(RUN_TIMEOUT)
    result = json.loads(out_path.read_text())
    for _ in range(SETUP_SAMPLES_EACH_SIDE):
        load(setup_only=True).finish(60.0)
    say("setup_s samples " + " ".join(f"{s:.4f}" for s in setup))

    mismatches = check_repeats(args.workload, args.seed, result["passes"])
    if mismatches:
        for line in mismatches[:20]:
            print(f"perfbench: exact-repeat mismatch: {line}", file=sys.stderr)
        raise BenchError(f"{len(mismatches)} op signatures differ from an earlier pass or run")
    failures = [f for run_pass in result["passes"] for f in run_pass["failures"]]
    for failure in failures:
        say(f"failed op {failure['key']} {failure['name']}: {failure['reason']}")
    attempted = sum(p["ops"] for p in result["passes"])
    if args.trace:
        metrics, units = per_layer(args.workload, result, one_time, startups), PER_LAYER_UNITS
    else:
        metrics, units = end_to_end(result, setup), END_TO_END_UNITS
    for path in (inputs_path, out_path):
        path.unlink()
    return {
        "correct": all(p["wrong"] == 0 for p in result["passes"]),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("solve", "verified", "service"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no solver sources at {SRC}; run from a checkout", file=sys.stderr)
        return 2
    try:
        report = run(args)
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
