"""BCP bench — one pytest-benchmark case per pinned quick-suite instance.

``make bench-bcp`` runs the aggregate CLI harness instead
(``repro-sat bench --out BENCH_N.json``, the source of the repo-root
``BENCH_*.json`` trajectory); this module is for drilling into single
instances with pytest-benchmark's statistics:
``pytest benchmarks/bench_bcp.py --benchmark-only``.

Every case records conflict/decision/propagation counts in
``extra_info``, so a timing diff can be read next to its search-trace
fingerprint (the counts are deterministic for a pinned instance).
"""

from __future__ import annotations

import pytest

from repro.bench import bench_suite
from repro.solver.config import config_by_name
from repro.solver.solver import Solver


@pytest.mark.parametrize("instance", bench_suite("quick"), ids=lambda i: i.name)
def test_bcp_engine(benchmark, instance):
    formula = instance.build()
    config = config_by_name("berkmin")

    def run():
        return Solver(formula, config=config).solve()

    result = benchmark.pedantic(run, rounds=2, iterations=1)
    stats = result.stats
    benchmark.extra_info["instance"] = instance.name
    benchmark.extra_info["status"] = result.status.value
    benchmark.extra_info["conflicts"] = stats.conflicts
    benchmark.extra_info["decisions"] = stats.decisions
    benchmark.extra_info["propagations"] = stats.propagations
