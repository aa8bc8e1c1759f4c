"""CLI for the static-analysis framework.

::

    python -m repro.analysis report <proc> [--workers N] [--json]
    python -m repro.analysis list
    python -m repro.analysis lint [--json] <paths...>
    python -m repro.analysis gate [--json FILE] [--baseline FILE]
                                  [--write-baseline]

``report`` prints the CFG, per-block liveness, the footprint and WCET
passes, the commit-protocol verdict and verifier findings for one
stored procedure (see :mod:`repro.analysis.registry` for the accepted
names); ``--json`` emits the machine-readable document instead.
``lint`` is a shorthand for :mod:`repro.analysis.lint`.

``gate`` is the CI entry point: it runs :func:`~.report.analyze` once
per registry procedure, fails (exit 1) on any verifier finding or when
a procedure's footprint class regresses against the checked-in
baseline (``ANALYSIS_gate.json`` — e.g. home-anchored → unbounded
means a formerly statically-routable procedure would start bouncing
off remote nodes), and can write the per-procedure ``report --json``
documents as one JSON report for artifact upload.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import lint as lint_mod
from .registry import ResolveError, known_names, resolve
from .report import analyze, render_report, report_json

#: default baseline location (repo root, next to BENCH_sim.json)
BASELINE = "ANALYSIS_gate.json"


def _run_gate(args) -> int:
    from .footprint import CLASS_RANK
    from .registry import all_procedures

    procedures = all_procedures()
    failures = []
    classes = {}
    doc = {"procedures": {}}
    for name, program, catalog in procedures:
        result = analyze(program, catalog, args.workers)
        classes[name] = result.footprint.kind_class
        doc["procedures"][name] = result.to_json()
        findings = result.verify.findings
        for f in findings:
            failures.append(f"{name}: verifier: {f}")
        print(f"{name:<20} {classes[name]:<14} "
              f"wcet={result.wcet.total_cycles:>7.0f}cy  "
              f"mlp={result.wcet.static_mlp}  "
              f"findings={len(findings)}")

    # -- classification-regression gate ---------------------------------
    try:
        with open(args.baseline, "r", encoding="utf-8") as fh:
            baseline = json.load(fh)
    except FileNotFoundError:
        baseline = None
    if baseline is not None:
        for name, now in classes.items():
            was = baseline.get("classes", {}).get(name)
            if was is not None and CLASS_RANK[now] > CLASS_RANK[was]:
                failures.append(
                    f"{name}: footprint class regressed {was} -> {now}")

    if args.write_baseline:
        with open(args.baseline, "w", encoding="utf-8") as fh:
            json.dump({"classes": classes}, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"\nbaseline written to {args.baseline}")

    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"JSON report written to {args.json}")

    print()
    if failures:
        print(f"analysis gate: {len(failures)} failure(s)")
        for f in failures:
            print(f"  {f}")
        return 1
    print(f"analysis gate: {len(procedures)} procedures clean")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="static analysis over BionicDB stored procedures")
    sub = parser.add_subparsers(dest="command", required=True)

    p_report = sub.add_parser(
        "report", help="CFG + liveness + partition report for a procedure")
    p_report.add_argument("procedure", help="e.g. tpcc_payment, ycsb_read_4")
    p_report.add_argument("--workers", type=int, default=4,
                          help="worker count for pinned-key partition ids")
    p_report.add_argument("--json", action="store_true",
                          help="emit the machine-readable document")

    sub.add_parser("list", help="list resolvable procedure names")

    p_lint = sub.add_parser(
        "lint", help="determinism lint over Python source trees")
    p_lint.add_argument("paths", nargs="+")
    p_lint.add_argument("--json", action="store_true",
                        help="emit machine-readable findings")

    p_gate = sub.add_parser(
        "gate", help="sweep the registry; fail on findings or "
                     "classification regressions")
    p_gate.add_argument("--workers", type=int, default=4)
    p_gate.add_argument("--baseline", default=BASELINE,
                        help=f"baseline file (default {BASELINE})")
    p_gate.add_argument("--write-baseline", action="store_true",
                        help="snapshot current classes as the baseline")
    p_gate.add_argument("--json", metavar="FILE", default=None,
                        help="also write the full JSON report to FILE")

    args = parser.parse_args(argv)

    if args.command == "list":
        for name in known_names():
            print(name)
        return 0

    if args.command == "lint":
        return lint_mod.main((["--json"] if args.json else []) + args.paths)

    if args.command == "gate":
        return _run_gate(args)

    try:
        program, catalog = resolve(args.procedure)
    except ResolveError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    if args.json:
        doc = report_json(program, schemas=catalog, n_workers=args.workers)
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0
    sys.stdout.write(render_report(program, schemas=catalog,
                                   n_workers=args.workers))
    return 0


if __name__ == "__main__":                     # pragma: no cover
    sys.exit(main())
