"""``bench/run.py --compare A.json B.json``: B judged against A.

Per workload and end-to-end metric the verdict is *better*, *within
bound*, *worse*, or *unresolved* when the spread measured inside the
runs (set-up repeats, per-burst quartiles) is wider than the bound.
Count metrics, simulated metrics and ``sim_fingerprint`` are compared
exactly.  Exits non-zero on any *worse* or on more failed operations.
"""

from __future__ import annotations

import json

from .metrics import END_TO_END, PER_LAYER, kind_of, names

__all__ = ["verdict", "compare_results", "main"]

_SIMULATED = ("sim_tps", "sim_p50_us", "sim_p99_us")


def verdict(a: float, b: float, better: str, bound: float, spread) -> str:
    """Judge ``b`` against ``a`` for one end-to-end metric."""
    if spread is not None and spread > bound:
        return "unresolved"
    worse_by = (b - a) / a if better == "lower" else (a - b) / a
    if worse_by > bound:
        return "worse"
    return "better" if worse_by < -bound else "within bound"


def compare_results(a: dict, b: dict) -> tuple:
    """``(lines, n_worse)`` for one workload's two results."""
    lines, n_worse = [], 0
    for name, unit, better, bound, _definition in END_TO_END:
        spreads = [s for s in (a["spread"].get(name), b["spread"].get(name))
                   if s is not None]
        va, vb = a["end_to_end"][name], b["end_to_end"][name]
        v = verdict(va, vb, better, bound, max(spreads, default=None))
        n_worse += v == "worse"
        lines.append(f"  {name:<14}{va:>14.6g} ->{vb:>14.6g} {unit:<5}"
                     f"{(vb - va) / va:>+8.1%}  (bound {bound:.0%})  {v}")
    exact = [n for n in names(PER_LAYER) if kind_of(n) == "count"]
    moved = [f"{n}: {a['per_layer'][n]!r} -> {b['per_layer'][n]!r}"
             for n in exact if a["per_layer"][n] != b["per_layer"][n]]
    moved += [f"{n}: {a['end_to_end'][n]!r} -> {b['end_to_end'][n]!r}"
              for n in _SIMULATED if a["end_to_end"][n] != b["end_to_end"][n]]
    if a["sim_fingerprint"] != b["sim_fingerprint"]:
        moved.append("sim_fingerprint differs")
    lines.append("  simulated results identical" if not moved else
                 "  simulated results DIFFER:\n    " + "\n    ".join(moved))
    share_a = a["failed"] / a["attempted"]
    share_b = b["failed"] / b["attempted"]
    if share_b > share_a:
        n_worse += 1
        lines.append(f"  failed share rose: {share_a:.4f} -> {share_b:.4f}")
    return lines, n_worse


def main(path_a: str, path_b: str) -> int:
    with open(path_a) as fa, open(path_b) as fb:
        a = {r["workload"]: r for r in json.load(fa)["results"]}
        b = {r["workload"]: r for r in json.load(fb)["results"]}
    n_worse = 0
    for name in a:
        if name not in b:
            print(f"== {name}: only in {path_a}")
            continue
        lines, worse = compare_results(a[name], b[name])
        n_worse += worse
        print(f"== {name}  seed {a[name]['seed']} vs {b[name]['seed']}")
        print("\n".join(lines))
    print(f"{n_worse} worse" if n_worse else "no metric worse")
    return 1 if n_worse else 0
