"""Regenerate EXPERIMENTS.md from live runs.

Runs every experiment (Tables 1-10 and Fig. 1) at the requested scale
and writes a self-contained paper-vs-measured report.  The repository's
checked-in EXPERIMENTS.md was produced by::

    python -m repro.experiments.report --scale default -o EXPERIMENTS.md

so reviewers can diff a fresh run against it.
"""

from __future__ import annotations

import argparse
import importlib
import platform
import sys
import time

EXPERIMENTS = [
    ("table1", "Section 4 — sensitivity of decision-making"),
    ("table2", "Section 5 — mobility of decision-making"),
    ("table3", "Section 6 — the skin effect"),
    ("table4", "Section 7 — branch selection"),
    ("table5", "Section 8 — clause-database management"),
    ("table6", "Section 9 — classes where Chaff and BerkMin are comparable"),
    ("table7", "Section 9 — classes where BerkMin dominates"),
    ("table8", "Section 9 — search-tree sizes"),
    ("table9", "Section 9 — database sizes"),
    ("table10", "Section 9 — competition-style robustness"),
    ("fig1", "Section 3/5 — cone variables switching from idle to active"),
]

HEADER = """\
# EXPERIMENTS — paper vs. measured

Reproduction of every table and figure of *BerkMin: A Fast and Robust
Sat-Solver* (Goldberg & Novikov, DATE 2002 / DAM 155, 2007).

**How to read this file.**  The paper's numbers are seconds on
2002 hardware (PentiumIII-700 for Tables 1-5, UltraSPARC-80/450MHz for
Tables 6-10) running hand-tuned C++ against the original DIMACS/Velev
CNFs.  The reproduction runs Python with C kernels for the search
loop (the pure-Python loops are the reference they must match, step for
step) against scaled stand-in instances (see DESIGN.md's substitution
table) under per-instance conflict budgets.  Absolute times are therefore not comparable; the
claims being reproduced are the *shapes*: which configuration wins each
class, roughly by what factor (in conflicts, the machine-independent
unit), and which configurations abort.

Regenerate with: `python -m repro.experiments.report --scale {scale} -o EXPERIMENTS.md`
(per-table: `python -m repro.experiments.tableN`).

Environment of this run: Python {python}, {machine}.

"""


def build_report(scale: str = "default", progress=print) -> str:
    """Run every experiment and return the EXPERIMENTS.md text."""
    sections = [
        HEADER.format(
            scale=scale,
            python=platform.python_version(),
            machine=platform.platform(),
        )
    ]
    for name, caption in EXPERIMENTS:
        if progress is not None:
            progress(f"[report] running {name} ({scale} scale) ...")
        module = importlib.import_module(f"repro.experiments.{name}")
        started = time.perf_counter()
        table = module.build(scale=scale)
        elapsed = time.perf_counter() - started
        sections.append(f"## {name}: {caption}\n")
        sections.append("```")
        sections.append(table.render())
        sections.append("```")
        sections.append(f"*(harness time for this experiment: {elapsed:.1f}s)*\n")
    return "\n".join(sections)


def main(argv=None) -> int:
    """CLI entry point for the report generator."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", default="default", choices=["default", "quick"])
    parser.add_argument("-o", "--output", default=None, help="write to file (default: stdout)")
    args = parser.parse_args(argv)
    report = build_report(scale=args.scale)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(report)
        print(f"wrote {args.output}")
    else:
        print(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
