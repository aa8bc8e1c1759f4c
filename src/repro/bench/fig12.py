"""Figure 12: transaction interleaving vs serial execution.

(a) YCSB-C with the transaction footprint (number of DB accesses per
    transaction) varied from 1 to 64: with single-access transactions
    interleaving is ~3x faster than serial execution; the gap shrinks
    as intra-transaction parallelism grows.
(b) TPC-C NewOrder and Payment: no noticeable benefit — heavy data
    dependency (and, in our reproduction, hot-row CC aborts under
    batching) eliminate the chance for interleaving.
"""

from __future__ import annotations

from typing import Sequence

from ..core import BionicConfig
from ..softcore import SoftcoreConfig
from ..workloads import TpccConfig, TpccWorkload, YcsbConfig, YcsbWorkload
from .report import FigureReport, machine_tput

__all__ = ["run_fig12a", "run_fig12b"]

DEFAULT_FOOTPRINTS = (1, 4, 8, 16, 32, 64)


def _mode(interleaving: bool) -> BionicConfig:
    return BionicConfig(softcore=SoftcoreConfig(interleaving=interleaving))


def run_fig12a(footprints: Sequence[int] = DEFAULT_FOOTPRINTS,
               n_txns: int = 200) -> FigureReport:
    report = FigureReport(
        "Figure 12a", "Interleaving vs serial execution, YCSB-C footprint sweep",
        x_label="# DB accesses", unit="kTps",
        paper_expectations={
            "single-access txns": "interleaving ~3x faster than serial",
            "shape": "the gap shrinks as intra-txn parallelism grows",
        })
    report.xs = list(footprints)
    inter = report.new_series("Interleaving")
    serial = report.new_series("Serial")
    for n in footprints:
        for series, interleaving in ((inter, True), (serial, False)):
            series.add(machine_tput(
                YcsbWorkload(YcsbConfig(records_per_partition=5000,
                                        reads_per_txn=n)),
                lambda w: w.make_read_txns(n_txns, reads_per_txn=n),
                _mode(interleaving), procedures={n}))
    return report


def run_fig12b(n_txns: int = 200) -> FigureReport:
    report = FigureReport(
        "Figure 12b", "Interleaving vs serial execution, TPC-C",
        x_label="transaction", unit="kTps",
        paper_expectations={
            "NewOrder": "no noticeable difference (data dependency)",
            "Payment": "no noticeable difference (limited parallelism "
                       "+ data dependency)",
        })
    report.xs = ["NewOrder", "Payment"]
    inter = report.new_series("Interleaving")
    serial = report.new_series("Serial")
    for neworder_fraction in (1.0, 0.0):
        for series, interleaving in ((inter, True), (serial, False)):
            series.add(machine_tput(
                TpccWorkload(TpccConfig(items=2000,
                                        customers_per_district=100)),
                lambda w: w.make_mix(n_txns,
                                     neworder_fraction=neworder_fraction),
                _mode(interleaving)))
    report.note("the batch former closes a batch at the first transaction "
                "whose key cells meet a written warehouse/district row, so "
                "TPC-C batches are one or two transactions long — "
                "interleaving buys nothing on TPC-C, and costs nothing")
    return report
