"""Figure 11: skiplist throughput and the scan comparison.

(a) sequential loading (inserts): saturates around 8 in-flight —
    parallelism bound by pipeline depth, plus lock-table contention on
    shared entry points;
(b) point queries: same trend, higher absolute;
(c) scans of 50 tuples: the single scanner bottlenecks the pipeline;
(d) scan throughput vs Masstree and a software skiplist on the Xeon —
    the paper: HW skiplist 20% slower than Masstree and 5x slower than
    the SW skiplist; "at least 5 scanners would be required to catch
    up with SW skiplist".
"""

from __future__ import annotations

from typing import Sequence

from ..baseline import IndexStructure, SiloYcsb
from ..core import BionicConfig, BionicDB
from ..mem import IndexKind
from ..workloads import YcsbConfig, YcsbWorkload
from .report import (
    DEFAULT_INFLIGHT_AXIS, FigureReport, index_kv_throughput, silo_tput,
)

__all__ = ["run_fig11a", "run_fig11b", "run_fig11c", "run_fig11d",
           "scanner_count_sweep"]


def run_fig11a(axis: Sequence[int] = DEFAULT_INFLIGHT_AXIS,
               n_ops: int = 600) -> FigureReport:
    report = FigureReport(
        "Figure 11a", "Skiplist sequential loading (inserts) vs in-flight",
        x_label="# in-flight", unit="kOps",
        paper_expectations={
            "saturation": "~8 in-flight (bound by pipeline depth)",
            "shape": "sharp growth 1->4, modest 4->8",
            "peak": "~275 kOps",
        })
    report.xs = list(axis)
    series = report.new_series("Insert")
    for n in axis:
        series.add(index_kv_throughput("skiplist", "insert", n, n_ops))
    return report


def run_fig11b(axis: Sequence[int] = DEFAULT_INFLIGHT_AXIS,
               n_ops: int = 600) -> FigureReport:
    report = FigureReport(
        "Figure 11b", "Skiplist point queries vs in-flight",
        x_label="# in-flight", unit="kOps",
        paper_expectations={
            "shape": "same trend as inserts, higher throughput "
                     "(no tower installation)",
            "peak": "~350 kTps",
        })
    report.xs = list(axis)
    series = report.new_series("Point query")
    for n in axis:
        series.add(index_kv_throughput("skiplist", "search", n, n_ops))
    return report


def run_fig11c(axis: Sequence[int] = DEFAULT_INFLIGHT_AXIS,
               n_ops: int = 240) -> FigureReport:
    report = FigureReport(
        "Figure 11c", "Skiplist scans (50 tuples) vs in-flight",
        x_label="# in-flight", unit="kTps",
        paper_expectations={
            "shape": "pipelining efficiency deteriorated — the single "
                     "scanner is the bottleneck",
            "peak": "~40 kTps",
        })
    report.xs = list(axis)
    series = report.new_series("Scan(50)")
    for n in axis:
        series.add(index_kv_throughput("skiplist", "scan", n, n_ops))
    return report


def run_fig11d(n_txns: int = 160) -> FigureReport:
    """Scan throughput: BionicDB vs Masstree vs SW skiplist (4 workers)."""
    report = FigureReport(
        "Figure 11d", "Scan(50) throughput vs software indexes (4 workers)",
        x_label="system", unit="kTps",
        paper_expectations={
            "Masstree": "~20% faster than the HW skiplist",
            "SW skiplist": "~5x faster than the HW skiplist",
        })
    cfg = YcsbConfig(records_per_partition=4000, index_kind=IndexKind.SKIPLIST)
    workload = YcsbWorkload(cfg)
    specs = workload.make_scan_txns(n_txns)

    db = BionicDB(BionicConfig())
    workload.install(db)
    bionic_report, _ = workload.submit_all(db, specs)

    report.xs = ["BionicDB", "Masstree", "SW skiplist"]
    series = report.new_series("Scan(50)")
    series.add(bionic_report.throughput_tps)
    for structure in (IndexStructure.MASSTREE, IndexStructure.SKIPLIST):
        series.add(silo_tput(SiloYcsb(cfg, n_cores=4, structure=structure),
                             specs))
    return report


def scanner_count_sweep(counts: Sequence[int] = (1, 2, 3, 5, 8),
                        n_ops: int = 240) -> FigureReport:
    """Ablation (§5.5 discussion): redundant scanners distribute heavy
    scan loads — the paper estimates >= 5 scanners to match the SW
    skiplist."""
    report = FigureReport(
        "Figure 11 ablation", "Scan throughput vs number of scanner modules",
        x_label="# scanners", unit="kTps",
        paper_expectations={
            "claim": "at least 5 scanners required to catch the SW skiplist",
        })
    report.xs = list(counts)
    series = report.new_series("Scan(50)")
    for n in counts:
        series.add(index_kv_throughput("skiplist", "scan", 24, n_ops,
                                       n_scanners=n))
    return report
