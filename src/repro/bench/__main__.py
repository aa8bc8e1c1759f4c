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

from . import (
    run_cluster_scale_out, run_dynamic_scheduling, run_full_tpcc_mix,
    run_fig9a, run_fig9b, run_fig10a, run_fig10b, run_fig10c, run_fig10d,
    run_fig11a, run_fig11b, run_fig11c, run_fig11d, run_fig12a, run_fig12b,
    run_fig13, run_hazard_prevention_cost, run_index3_point,
    run_index3_scan, run_latency_load, run_line_buffer_ablation, run_power,
    run_scale_up, run_table3, run_table4, run_traverse_stage_sweep,
    scanner_count_sweep,
)

#: id -> (runner, its --quick sizes); a full run uses the runner's defaults
EXPERIMENTS = {
    "fig9a": (run_fig9a, {"n_txns": 120}),
    "fig9b": (run_fig9b, {"n_txns": 100}),
    "fig10a": (run_fig10a, {"n_ops": 800}),
    "fig10b": (run_fig10b, {"n_txns": 100}),
    "fig10c": (run_fig10c, {"n_txns": 80}),
    "fig10d": (run_fig10d, {"n_txns": 120}),
    "fig11a": (run_fig11a, {"n_ops": 300}),
    "fig11b": (run_fig11b, {"n_ops": 300}),
    "fig11c": (run_fig11c, {"n_ops": 120}),
    "fig11d": (run_fig11d, {"n_txns": 80}),
    "fig11-scanners": (scanner_count_sweep, {"n_ops": 120}),
    "fig12a": (run_fig12a, {"n_txns": 100}),
    "fig12b": (run_fig12b, {"n_txns": 100}),
    "fig13": (run_fig13, {"n_txns": 100}),
    "table3": (run_table3, {}),
    "table4": (run_table4, {}),
    "power": (run_power, {}),
    "ablation-traverse": (run_traverse_stage_sweep, {"n_ops": 400}),
    "ablation-hazard": (run_hazard_prevention_cost, {"n_ops": 400}),
    "ablation-linebuf": (run_line_buffer_ablation, {"n_txns": 100}),
    "ext-dynamic": (run_dynamic_scheduling, {"n_txns": 80}),
    "ext-scaleup": (run_scale_up, {"txns_per_worker": 15}),
    "ext-cluster": (run_cluster_scale_out, {"n_txns_per_part": 20}),
    "ext-frontend": (run_latency_load, {"n_txns": 500}),
    "ext-fullmix": (run_full_tpcc_mix, {"n_txns": 100}),
    "ext-index3": (run_index3_point, {"n_ops": 200}),
    "ext-index3-scan": (run_index3_scan, {"n_ops": 40}),
}


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
        fn, quick_kw = EXPERIMENTS[name]
        t0 = time.time()  # det: allow(wall-clock) — host-side progress display only
        report = fn(**(quick_kw if args.quick else {}))
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
