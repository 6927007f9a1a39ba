# Convenience targets for the BerkMin reproduction.

PYTHON ?= python

.PHONY: install test test-fast test-parallel test-robustness audit perf-smoke bench bench-bcp bench-portfolio bench-sharing profile experiments report quick-report examples clean

install:
	pip install -e . --no-build-isolation || $(PYTHON) setup.py develop

# The default suite ends with a ~30-second randomized fault-injection
# audit of the parallel engines (see docs/ROBUSTNESS.md).
test:
	$(PYTHON) -m pytest tests/
	$(PYTHON) -m repro.cli audit --quick

test-fast:
	$(PYTHON) -m pytest tests/ -x -q -p no:randomly -m "not slow"

test-parallel:
	$(PYTHON) -m pytest tests/parallel/ -x -q

# The reliability layer: fault injection, supervised retries, resource
# guards, and the trusted-results gate (docs/ROBUSTNESS.md).
test-robustness:
	$(PYTHON) -m pytest tests/reliability/ tests/parallel/ tests/checkpoint/ tests/solver/test_resolve.py -x -q
	$(PYTHON) -m pytest tests/ -m fault_injection -q

# The full 100-round randomized fault audit (the release gate).
audit:
	$(PYTHON) -m repro.cli audit --verbose

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-portfolio:
	$(PYTHON) -m pytest benchmarks/bench_portfolio.py --benchmark-only

# The BCP perf harness: times the engine on the pinned suite (props/s,
# conflicts/s, decisions/s per instance), checks every preset against the
# DPLL baseline, and writes the repo's perf-trajectory data point (see
# docs/BENCHMARKS.md "Performance").
bench-bcp:
	$(PYTHON) -m repro.cli bench --out BENCH_2.json

# A/B the clause-sharing fleet vs the isolated portfolio
# (docs/BENCHMARKS.md, schema portfolio-bench/1).
bench-sharing:
	$(PYTHON) -m repro.cli bench --portfolio --out BENCH_9.json

# cProfile one pinned pigeonhole solve; prints the top-20 cumulative entries.
profile:
	$(PYTHON) -m repro.cli bench --profile

# Fast perf-harness smoke checks (also part of plain `make test`).
perf-smoke:
	$(PYTHON) -m pytest tests/ -m perf_smoke -q

experiments:
	$(PYTHON) -m repro.cli experiment all

report:
	$(PYTHON) -m repro.experiments.report --scale default -o EXPERIMENTS.md

quick-report:
	$(PYTHON) -m repro.experiments.report --scale quick

examples:
	for script in examples/*.py; do echo "== $$script"; $(PYTHON) $$script || exit 1; done

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
