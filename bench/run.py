#!/usr/bin/env python3
"""The repo benchmark's one command.

    python3 bench/run.py [--seed N] [--workload NAME]... [--seconds S]
                         [--trace [0|1]] [--out FILE]
    python3 bench/run.py --compare A.json B.json

Runs the chosen workloads (default: all four) one after another, each
in its own single-threaded child process, checks their outputs and
prints every metric by name with its unit.  The last line of each
workload's report is one JSON object ``{"correct", "attempted",
"failed", "metrics"}``: the end-to-end metrics, or with ``--trace 1``
the per-layer metrics (an untraced child for spans and counts, then a
traced child for the ``trace.*`` shares).  Exits non-zero when an
output check fails.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not __package__:
    # run as a script, its own directory leads sys.path; the repo root
    # (for the ``bench`` package) and ``src`` (for ``repro``) replace it
    sys.path[0:1] = [str(ROOT), str(ROOT / "src")]

from bench import compare  # noqa: E402
from bench.metrics import (  # noqa: E402
    END_TO_END, PAPER, PER_LAYER, WORKLOADS, kind_of, names, unit_of,
)

OUT_DIR = ROOT / "bench" / "out"
#: a child is killed (and the command fails) past this many seconds
CHILD_TIMEOUT_S = 170
#: resident memory to touch before the first timed child, per workload:
#: a little over each one's peak RSS at the parent commit
WARM_MB = {"ycsb_c_paper": 600, "tpcc_np": 100, "ordered_index": 200,
           "serve_multisite": 120}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=list(WORKLOADS),
                    help="workload to run (repeatable; default all four)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="run-phase length the burst counts are scaled "
                         "to (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1), help="also run the traced child and "
                    "report the per-layer metrics")
    ap.add_argument("--out", help="write every result as JSON to FILE")
    ap.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                    help="compare two --out files and exit")
    # internal: the parent's way of asking for one in-process run
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--scale", type=float, default=1.0,
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds is None:
        args.seconds = float(json.loads(
            (ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    return args


# -- child side ---------------------------------------------------------------
def child_main(args) -> int:
    """One workload, in this process; the result goes out as one JSON line."""
    from bench.measure import run_point
    from bench.points import POINTS
    (name,) = args.workload
    point = POINTS[name](args.seed, args.seconds, args.scale)
    trace_path = None
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"{name}.seed{args.seed}.trace.json"
    result = run_point(point, traced=bool(args.trace), trace_path=trace_path)
    result.update(seed=args.seed, note=point.note,
                  trace_file=str(trace_path.relative_to(ROOT))
                  if trace_path else None)
    print(json.dumps(result))
    return 0


# -- parent side --------------------------------------------------------------
def spawn(args, name, traced) -> dict:
    """Run one child to completion and parse its result line."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child",
           "--workload", name, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--scale", str(args.scale),
           "--trace", str(int(traced))]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                          timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise SystemExit(f"bench: child for {name} exited "
                         f"{done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def warm_up(workloads) -> float:
    """Touch as much memory as the largest chosen workload will, and
    import ``repro`` once, in a throw-away child: on a freshly restored
    VM the first paper-scale load otherwise pays seconds of first-touch
    page faults that are not program cost.  (A child, because a
    process's ``ru_maxrss`` survives exec: touching the pages here
    would become every later child's peak RSS.)"""
    megabytes = max(WARM_MB[name] for name in workloads)
    code = ("import repro.core, repro.workloads, repro.frontend\n"
            f"b = bytearray({megabytes} << 20)\n"
            "for i in range(0, len(b), 4096): b[i] = 1\n")
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT,
                   env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    return time.perf_counter() - start


def merge(untraced: dict, traced: dict) -> dict:
    """Per-layer metrics of a ``--trace 1`` run: spans and counts from
    the untraced child, ``trace.*`` from the traced one."""
    result = dict(untraced)
    layers = dict(untraced["per_layer"])
    layers.update({k: v for k, v in traced["per_layer"].items()
                   if kind_of(k) == "trace"})
    # traced over untraced host time for the same bursts
    same = Counter(outcome["kind"] for outcome in traced["bursts"])
    base = 0.0
    for outcome in untraced["bursts"]:
        if same[outcome["kind"]] > 0:
            same[outcome["kind"]] -= 1
            base += outcome["host_s"]
    layers["trace.overhead_ratio"] = traced["end_to_end"]["run_s"] / base
    result.update(per_layer=layers, traced=True,
                  trace_file=traced["trace_file"],
                  trace_self_times=traced["self_times"],
                  correct=untraced["correct"] and traced["correct"])
    return result


def fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def against_paper(result: dict) -> str:
    """The simulator's error against the paper, where EXPERIMENTS.md
    holds a reference for this workload."""
    if result["workload"] not in PAPER:
        return "unvalidated (no paper reference)"
    metric, paper = PAPER[result["workload"]]
    value = {**result["end_to_end"], **result["per_layer"]}[metric]
    shown = "" if metric == "sim_tps" else f"{metric} {value:.6g} "
    return f"{shown}vs paper {paper:g}: error {(value - paper) / paper:+.1%}"


def print_report(result: dict, trace: bool) -> None:
    e2e, spread = result["end_to_end"], result["spread"]
    print(f"\n== {result['workload']}  seed {result['seed']} "
          f"(derived {result['derived_seed']})  seconds {result['seconds']:g}")
    print("end-to-end")
    for name in names(END_TO_END):
        extra = ""
        if spread.get(name) is not None:
            extra = f"   spread {spread[name]:.3f}"
        if name == "setup_s":
            extra += "   samples " + " ".join(
                f"{s:.3f}" for s in result["setup_samples"])
        if name == "sim_tps":
            extra += "   " + against_paper(result)
        if name == "sim_p99_us":
            extra += f"   {result['latency_samples']} samples"
        print(f"  {name:<14}{fmt(e2e[name]):>12} {unit_of(name):<6}{extra}")
    by_kind = {}
    for outcome in result["bursts"]:
        by_kind.setdefault(outcome["kind"], []).append(outcome["host_s"])
    print("  bursts (host s): " + "; ".join(
        f"{kind} " + " ".join(f"{t:.3f}" for t in times)
        for kind, times in by_kind.items()))
    if result["note"]:
        print(f"  note: {result['note']}")
    print(f"  attempted {result['attempted']}  failed {result['failed']}  "
          f"sim_fingerprint {result['sim_fingerprint'][:16]}")
    for problem in result["problems"]:
        print(f"  CHECK FAILED: {problem}")
    shown = [n for n in names(PER_LAYER)
             if trace or kind_of(n) != "trace"]
    print("per-layer" + ("" if trace else " (spans and counts; "
                         "--trace 1 adds trace.*)"))
    for name in shown:
        print(f"  {name:<36}{fmt(result['per_layer'][name]):>12} "
              f"{unit_of(name)}")
    if trace:
        print("  span self time (traced child, s): " + "  ".join(
            f"{k} {v:.3f}" for k, v in
            sorted(result["trace_self_times"].items())))
        print(f"  trace written to {result['trace_file']}")
    chosen = result["per_layer"] if trace else e2e
    print(json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": chosen[name], "unit": unit_of(name)}
                    for name in chosen}}))


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.compare:
        return compare.main(*args.compare)
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit("bench: src/repro not found — nothing to measure")
    if args.child:
        return child_main(args)
    workloads = args.workload or list(WORKLOADS)
    stamp = {"python": platform.python_version(), "nproc": os.cpu_count(),
             "load1": os.getloadavg()[0]}
    stamp["warmup_s"] = warm_up(workloads)
    print("bench: python {python}  nproc {nproc}  load1 {load1:.2f}  "
          "warmup_s {warmup_s:.3f}".format(**stamp))
    results = []
    for name in workloads:      # strictly one child at a time
        result = spawn(args, name, traced=False)
        if args.trace:
            result = merge(result, spawn(args, name, traced=True))
        results.append(result)
        print_report(result, bool(args.trace))
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"stamp": stamp, "results": results}, indent=1))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
