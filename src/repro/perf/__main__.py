"""CLI: run paper-scale sweep points and merge them into ``BENCH_sim.json``.

Usage::

    python -m repro.perf --list
    python -m repro.perf --points ycsb_paper_300k --jobs 2
    python -m repro.perf                        # every registered point
"""

from __future__ import annotations

import argparse
import sys
import time

from .sweep import POINTS, _merge_into, _point_seed, run_sweep


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf",
        description="host-parallel paper-scale sweep runner")
    parser.add_argument("--points", default=None,
                        help="comma-separated point names (default: all)")
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes (default: one per point, "
                             "capped at CPU count)")
    parser.add_argument("--out", default="BENCH_sim.json",
                        help="merge results into this JSON file")
    parser.add_argument("--list", action="store_true",
                        help="list registered sweep points and exit")
    args = parser.parse_args(argv)

    if args.list:
        for name, params in POINTS.items():
            print(f"{name:<28s} {params['workload']:<5s} "
                  f"seed={_point_seed(name)} "
                  + " ".join(f"{k}={v}" for k, v in params.items()
                             if k != "workload"))
        return 0

    names = (args.points.split(",") if args.points else None)
    t0 = time.perf_counter()   # det: allow(wall-clock)
    results = run_sweep(names, jobs=args.jobs)
    wall = time.perf_counter() - t0   # det: allow(wall-clock)

    serial = sum(r["host_seconds"] for r in results.values())
    for name, r in results.items():
        print(f"  sweep {name:<28s} {r['host_seconds']:7.2f}s host   "
              f"{r['peak_rss_mb']:6.0f} MB   "
              f"{r['throughput_tps']:>12,.0f} tps   "
              f"commits={r['committed']} aborts={r['aborted']}")

    print(f"repro.perf: {len(results)} point(s), "
          f"{serial:.2f}s of work in {wall:.2f}s wall "
          f"({serial / wall if wall > 0 else 1:.2f}x parallel)")

    _merge_into(args.out, results)
    print(f"repro.perf: merged into {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
