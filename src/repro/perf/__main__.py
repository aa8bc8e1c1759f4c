"""CLI: measure simulator host performance and write ``BENCH_sim.json``.

Usage::

    python -m repro.perf                       # full run, writes BENCH_sim.json
    python -m repro.perf --smoke               # CI-sized run
    python -m repro.perf --list                # list scenarios and exit
    python -m repro.perf --scenario ycsb_smoke # restrict to named scenarios
    python -m repro.perf --out results.json    # alternate output path
    python -m repro.perf --smoke --check BENCH_sim.json
                                               # also fail if a fingerprint
                                               # left the baseline file's
    python -m repro.perf sweep ...             # paper-scale parallel sweep
                                               # (see repro.perf.sweep)

A divergence of any simulated observable from the checked-in golden
constants — or an event count above its ceiling — always fails the run.
``--check`` additionally holds the run to the fingerprints recorded in
a baseline file, i.e. it fails when ``BENCH_sim.json`` and the tree
have drifted apart.  Rates are absolute, machine-dependent and gate
nothing.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict

from .equivalence import (
    SCENARIOS, agrees, equivalence_failures, run_equivalence,
)
from .microbench import run_microbenchmarks
from .simspeed import run_simspeed
from .sweep import host_metadata, sweep_main

SCHEMA = "repro.perf/v3"


def check_regressions(results: Dict, baseline: Dict) -> list:
    """Hold the run's fingerprints to a baseline file's: observables
    equal, ``events_fired`` no higher.  Returns the failures."""
    failures = []
    current = results.get("equivalence", {})
    for name, entry in baseline.get("equivalence", {}).items():
        got = current.get(name)
        if got is None:
            failures.append(f"{name}: present in baseline but not measured")
        elif not agrees(got["fast"], entry["fast"]):
            failures.append(f"{name}: fingerprint left the baseline — "
                            f"got={got['fast']} baseline={entry['fast']}")
    return failures


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "sweep":
        return sweep_main(argv[1:])

    parser = argparse.ArgumentParser(
        prog="python -m repro.perf",
        description="simulator host-performance bench + equivalence check "
                    "(use the 'sweep' subcommand for paper-scale points)")
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized run (smaller scenarios, same checks)")
    parser.add_argument("--out", default="BENCH_sim.json",
                        help="output path (default: BENCH_sim.json)")
    parser.add_argument("--check", metavar="BASELINE",
                        help="baseline BENCH_sim.json whose fingerprints the "
                             "run must agree with")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repeats per bench (best-of, default 3)")
    parser.add_argument("--scenario", action="append", default=None,
                        metavar="NAME",
                        help="restrict equivalence/simspeed to this scenario "
                             "(repeatable; see --list)")
    parser.add_argument("--list", action="store_true",
                        help="list equivalence/simspeed scenarios and exit")
    args = parser.parse_args(argv)

    if args.list:
        for name in SCENARIOS:
            print(name)
        return 0

    scenarios = args.scenario
    if scenarios is not None:
        unknown = [s for s in scenarios if s not in SCENARIOS]
        if unknown:
            parser.error(f"unknown scenario(s) {unknown}; "
                         f"choose from {list(SCENARIOS)}")

    print("repro.perf: equivalence ...", flush=True)
    equivalence = run_equivalence(scale=1, scenarios=scenarios)
    eq_failures = equivalence_failures(equivalence)

    print("repro.perf: microbenchmarks ...", flush=True)
    micro = run_microbenchmarks(smoke=args.smoke, repeats=args.repeats)
    print("repro.perf: end-to-end sim-speed ...", flush=True)
    speed = run_simspeed(smoke=args.smoke, repeats=args.repeats,
                         scenarios=scenarios)

    results = {
        "schema": SCHEMA,
        "mode": "smoke" if args.smoke else "full",
        "repeats": args.repeats,
        "meta": host_metadata(),
        "equivalence": equivalence,
        "microbench": micro,
        "simspeed": speed,
    }
    baseline = None
    if args.check:
        # read before writing: --out may name the same file
        with open(args.check, "r", encoding="utf-8") as fh:
            baseline = json.load(fh)
        # keep an existing sweep section when overwriting the baseline
        try:
            with open(args.out, "r", encoding="utf-8") as fh:
                prior = json.load(fh)
            if "sweep" in prior:
                results["sweep"] = prior["sweep"]
                results["sweep_meta"] = prior.get("sweep_meta")
        except (OSError, ValueError):
            pass
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"repro.perf: wrote {args.out}")

    for name, entry in micro.items():
        print(f"  micro {name:<18s} {entry['rate_per_sec']:>12,.0f}/s")
    for name, entry in speed.items():
        extra = (f"{entry['sim_ns_per_host_sec']:,.0f} sim-ns/host-s"
                 if "sim_ns_per_host_sec" in entry else
                 f"{entry['host_seconds']*1e3:.1f} ms")
        print(f"  speed {name:<18s} {extra:>24s}")

    failed = False
    if eq_failures:
        failed = True
        print("repro.perf: EQUIVALENCE FAILURES:", file=sys.stderr)
        for failure in eq_failures:
            print(f"  {failure}", file=sys.stderr)
    else:
        print("repro.perf: equivalence OK (observables == golden, "
              "events_fired <= ceiling)")

    if baseline is not None:
        reg_failures = check_regressions(results, baseline)
        if reg_failures:
            failed = True
            print("repro.perf: BASELINE MISMATCH:", file=sys.stderr)
            for failure in reg_failures:
                print(f"  {failure}", file=sys.stderr)
        else:
            print(f"repro.perf: fingerprints agree with {args.check}")

    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
