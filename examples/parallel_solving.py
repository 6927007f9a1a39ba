"""Parallel solving: configuration portfolios and bulk batches.

The paper's tables are races between heuristic configurations — BerkMin,
Chaff, and the ablations — and no single configuration wins every
family.  This example turns that into practice:

1. enumerate the public config registry (``repro.available_configs``);
2. race a diverse portfolio on one hard formula — the first definite
   answer wins and reports which configuration produced it;
3. solve a mixed batch of formulas concurrently, with per-instance
   budgets and aggregated statistics.

Run: ``python examples/parallel_solving.py``
"""

import repro
from repro.generators import pigeonhole_formula, planted_ksat, queens_formula


def main() -> None:
    # 1. The config registry is a public API: name -> one-line summary.
    catalog = repro.available_configs()
    print(f"{len(catalog)} registered configurations:")
    for name in ("berkmin", "chaff", "wide_window"):
        print(f"  {name:12s} {catalog[name]}")

    # Typos in overrides fail loudly, naming the nearest valid field.
    try:
        repro.config_by_name("berkmin", restart_intervall=100)
    except TypeError as error:
        print(f"\ntypo caught: {str(error).split('(')[0].strip()}")

    # 2. Portfolio: race 4 diverse configurations, first answer wins.
    hole = pigeonhole_formula(7)
    portfolio = repro.PortfolioSolver(jobs=4)
    print(f"\nracing {[c.name for c in portfolio.configs]} on hole7 ...")
    result = portfolio.solve(hole, max_seconds=60.0)
    print(f"  {result.status.value} by {result.config_name!r} "
          f"in {result.wall_seconds:.2f}s "
          f"({result.stats.conflicts} conflicts by the winner)")

    # 3. Batch: many formulas, bounded pool, per-instance budgets.
    formulas = [
        pigeonhole_formula(5),            # UNSAT
        planted_ksat(24, 98, 3, seed=7),  # SAT by construction
        queens_formula(7),                # SAT
        pigeonhole_formula(6),            # UNSAT
    ]
    batch = repro.solve_batch(formulas, jobs=2, max_conflicts=50_000)
    print(f"\nbatch of {len(batch)} formulas "
          f"({batch.num_sat} SAT, {batch.num_unsat} UNSAT, "
          f"{batch.num_unknown} UNKNOWN) in {batch.wall_seconds:.2f}s:")
    for index, item in enumerate(batch):
        print(f"  [{index}] {item.status.value:7s} "
              f"{item.stats.conflicts:6d} conflicts, {item.wall_seconds:.3f}s")
    print(f"aggregated: {batch.stats.conflicts} conflicts, "
          f"{batch.stats.decisions} decisions across the batch")


if __name__ == "__main__":
    main()
