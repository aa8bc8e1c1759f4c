"""Figure 10: hash index throughput vs in-flight DB requests.

(a) a non-transactional key-value workload driving the hash pipelines
    directly with a client-side cap on total in-flight requests —
    paper peaks: insert ≈8.5 Mops, search ≈7 Mops, saturating between
    12 and 16 in-flight requests;
(b) YCSB-C through the full machine — same saturation trend;
(c) TPC-C NewOrder — sufficient intra-transaction parallelism;
(d) TPC-C Payment — only 4 index lookups, flat beyond 4 in-flight.
"""

from __future__ import annotations

from typing import Sequence

from ..workloads import TpccConfig, TpccWorkload, YcsbConfig, YcsbWorkload
from .report import (
    DEFAULT_INFLIGHT_AXIS, FigureReport, index_kv_throughput, machine_tput,
)

__all__ = ["run_fig10a", "run_fig10b", "run_fig10c", "run_fig10d",
           "kv_throughput", "MACHINE_INFLIGHT_AXIS"]

#: the machine's axis (10b–d) starts at its 4 workers, one slot each:
#: a smaller budget would leave a coprocessor with none
MACHINE_INFLIGHT_AXIS = DEFAULT_INFLIGHT_AXIS[1:]


def kv_throughput(op: str, total_in_flight: int, n_ops: int = 2000) -> float:
    """The §5.5 KV microbenchmark: a single transaction bulk-issuing
    inserts/searches whose keys sit in its block's cells."""
    return index_kv_throughput("hash", op, total_in_flight, n_ops,
                               n_keys=8192, seed=11, key_cells=True,
                               n_buckets=2 * 8192)


def run_fig10a(axis: Sequence[int] = DEFAULT_INFLIGHT_AXIS,
               n_ops: int = 2000) -> FigureReport:
    report = FigureReport(
        "Figure 10a", "KeyValue hash index throughput vs in-flight requests",
        x_label="# in-flight", unit="Mops",
        paper_expectations={
            "peak insert": "~8.5 Mops", "peak search": "~7 Mops",
            "saturation": "between 12 and 16 in-flight requests",
        })
    report.xs = list(axis)
    insert = report.new_series("Insert")
    search = report.new_series("Search")
    for n in axis:
        insert.add(kv_throughput("insert", n, n_ops))
        search.add(kv_throughput("search", n, n_ops))
    return report


def run_fig10b(axis: Sequence[int] = MACHINE_INFLIGHT_AXIS,
               n_txns: int = 200) -> FigureReport:
    report = FigureReport(
        "Figure 10b", "YCSB-C (read-only) vs in-flight requests",
        x_label="# in-flight", unit="kTps",
        paper_expectations={
            "shape": "same saturation trend as the KV workload",
            "peak": "~450 kTps",
        })
    report.xs = list(axis)
    series = report.new_series("YCSB-C")
    for n in axis:
        series.add(machine_tput(
            YcsbWorkload(YcsbConfig(records_per_partition=5000)),
            lambda w: w.make_read_txns(n_txns), in_flight=n))
    return report


def _tpcc_tput_at(total_in_flight: int, n_txns: int,
                  neworder_fraction: float) -> float:
    return machine_tput(
        TpccWorkload(TpccConfig(items=2000, customers_per_district=100)),
        lambda w: w.make_mix(n_txns, neworder_fraction=neworder_fraction),
        in_flight=total_in_flight)


def run_fig10c(axis: Sequence[int] = MACHINE_INFLIGHT_AXIS,
               n_txns: int = 160) -> FigureReport:
    report = FigureReport(
        "Figure 10c", "TPC-C NewOrder vs in-flight requests",
        x_label="# in-flight", unit="kTps",
        paper_expectations={
            "shape": "grows with in-flight budget (intra-txn parallelism)",
            "peak": "~150 kTps",
        })
    report.xs = list(axis)
    series = report.new_series("NewOrder")
    for n in axis:
        series.add(_tpcc_tput_at(n, n_txns, neworder_fraction=1.0))
    return report


def run_fig10d(axis: Sequence[int] = MACHINE_INFLIGHT_AXIS,
               n_txns: int = 240) -> FigureReport:
    report = FigureReport(
        "Figure 10d", "TPC-C Payment vs in-flight requests",
        x_label="# in-flight", unit="kTps",
        paper_expectations={
            "shape": "no improvement beyond 4 (only 4 index lookups)",
            "peak": "~700 kTps",
        })
    report.xs = list(axis)
    series = report.new_series("Payment")
    for n in axis:
        series.add(_tpcc_tput_at(n, n_txns, neworder_fraction=0.0))
    report.note("our x counts total in-flight over 4 workers; the paper's "
                "counts one coprocessor — Payment flattens at 16 total "
                "(= 4 per coprocessor), the same 4-lookup limit")
    return report
