"""CLI for the static-analysis framework.

::

    python -m repro.analysis report <proc> [--workers N] [--json]
    python -m repro.analysis list
    python -m repro.analysis lint [--json] <paths...>
    python -m repro.analysis gate [--json FILE] [--baseline FILE]
                                  [--write-baseline]

``report`` prints the CFG, per-block liveness, the footprint,
conflict and WCET passes and verifier findings for one stored
procedure (see :mod:`repro.analysis.registry` for the accepted names);
``--json`` emits the machine-readable document instead.  ``lint`` is a
shorthand for :mod:`repro.analysis.lint`.

``gate`` is the CI entry point: it sweeps every registry procedure
through all passes (the footprint pass once per procedure; the
verifier, the WCET bound and the conflict matrix share its summary),
fails (exit 1) on any verifier finding or when a procedure's
footprint class regresses against the checked-in baseline
(``ANALYSIS_gate.json`` — e.g. home-anchored → unbounded means a
formerly statically-routable procedure would start bouncing off
remote nodes), and can write the JSON report for artifact upload.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import lint as lint_mod
from .registry import ResolveError, known_names, resolve
from .report import render_report, report_json

#: default baseline location (repo root, next to BENCH_sim.json)
BASELINE = "ANALYSIS_gate.json"


def _run_gate(args) -> int:
    from .conflict import build_conflict_matrix
    from .dataflow import program_flow
    from .footprint import CLASS_RANK, analyze_footprint
    from .registry import all_procedures
    from .wcet import analyze_wcet
    from ..isa.verify import verify_program

    procedures = all_procedures()
    failures = []
    doc = {"procedures": {}, "conflicts": None}
    summaries = []
    for name, program, catalog in procedures:
        graph = program_flow(program)
        footprint = analyze_footprint(program, graph=graph)
        laid_out = footprint.with_layout(catalog, args.workers)
        wcet = analyze_wcet(program, graph=graph, footprint=footprint)
        verify = verify_program(program, schemas=catalog,
                                n_workers=args.workers, graph=graph,
                                footprint=footprint)
        summaries.append((name, laid_out))
        doc["procedures"][name] = {
            "class": laid_out.kind_class,
            "footprint": laid_out.to_json(),
            "wcet": wcet.to_json(),
            "verifier_findings": [str(f) for f in verify.findings],
        }
        for f in verify.findings:
            failures.append(f"{name}: verifier: {f}")
        print(f"{name:<20} {laid_out.kind_class:<14} "
              f"wcet={wcet.total_cycles:>7.0f}cy  "
              f"mlp={wcet.static_mlp}  "
              f"findings={len(verify.findings)}")

    matrix = build_conflict_matrix(summaries)
    doc["conflicts"] = matrix.to_json()
    print()
    print(matrix.format())

    # -- classification-regression gate ---------------------------------
    try:
        with open(args.baseline, "r", encoding="utf-8") as fh:
            baseline = json.load(fh)
    except FileNotFoundError:
        baseline = None
    if baseline is not None:
        for name, entry in doc["procedures"].items():
            was = baseline.get("classes", {}).get(name)
            now = entry["class"]
            if was is not None and CLASS_RANK[now] > CLASS_RANK[was]:
                failures.append(
                    f"{name}: footprint class regressed {was} -> {now}")
        for pair, verdict in (baseline.get("must_serialize") or {}).items():
            a, b = pair.split("|")
            try:
                if matrix.verdict(a, b) != verdict:
                    failures.append(
                        f"conflict verdict changed for ({a}, {b}): "
                        f"baseline {verdict}, now {matrix.verdict(a, b)}")
            except KeyError:
                failures.append(f"baseline pair ({a}, {b}) left the registry")

    if args.write_baseline:
        snapshot = {
            "classes": {name: entry["class"]
                        for name, entry in doc["procedures"].items()},
            "must_serialize": {
                f"{a}|{b}": matrix.verdict(a, b)
                for (a, b) in matrix.pairs("must-serialize")},
        }
        with open(args.baseline, "w", encoding="utf-8") as fh:
            json.dump(snapshot, fh, indent=2, sort_keys=True)
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
