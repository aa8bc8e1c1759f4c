"""Regenerate the paper's evaluation from the command line.

Usage::

    python -m repro.bench                 # every figure and table
    python -m repro.bench fig9a fig11d    # selected experiments
    python -m repro.bench --list
    python -m repro.bench --quick         # smaller workloads
    python -m repro.bench -o results.md   # also write a markdown report

Each experiment prints the paper-style rows plus the paper's stated
expectations, so the output is a self-contained paper-vs-measured
record (EXPERIMENTS.md was produced this way).
"""

from __future__ import annotations

import argparse
import sys
import time

from .experiments import EXPERIMENTS, run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the BionicDB paper's tables and figures.")
    parser.add_argument("experiments", nargs="*",
                        help="experiment ids (default: all)")
    parser.add_argument("--list", action="store_true",
                        help="list experiment ids and exit")
    parser.add_argument("--quick", action="store_true",
                        help="smaller workloads (faster, noisier)")
    parser.add_argument("-o", "--output",
                        help="also write the reports to a markdown file")
    args = parser.parse_args(argv)

    if args.list:
        for name in EXPERIMENTS:
            print(name)
        return 0

    chosen = args.experiments or list(EXPERIMENTS)
    unknown = [x for x in chosen if x not in EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiment(s): {', '.join(unknown)} "
                     f"(use --list)")

    rendered = []
    t_total = time.time()  # det: allow(wall-clock) — host-side progress display only
    for name in chosen:
        row = EXPERIMENTS[name]
        t0 = time.time()  # det: allow(wall-clock) — host-side progress display only
        report = run(row, row.quick if args.quick else None)
        report.show()
        print(f"[{name} finished in {time.time() - t0:.1f}s]")  # det: allow(wall-clock)
        rendered.append(report.render())
    print(f"\nall done in {time.time() - t_total:.1f}s "  # det: allow(wall-clock)
          f"({len(chosen)} experiments)")

    if args.output:
        with open(args.output, "w") as f:
            f.write("# BionicDB reproduction — bench output\n\n")
            for text in rendered:
                f.write("```\n" + text + "\n```\n\n")
        print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
