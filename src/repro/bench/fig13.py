"""Figure 13: single-site vs multisite transactions.

Cross-partition YCSB-C with uniform random keys: 75% of the DB
accesses in a multisite transaction are remote.  The paper: on-chip
message passing makes the overhead negligible — multisite throughput
is almost the same as the single-site (100% local) ideal.
"""

from __future__ import annotations

from ..workloads import YcsbConfig, YcsbWorkload
from .report import FigureReport, machine_tput

__all__ = ["run_fig13"]


def run_fig13(n_txns: int = 200) -> FigureReport:
    report = FigureReport(
        "Figure 13", "Single-site vs multisite YCSB-C transactions",
        x_label="workload", unit="kTps",
        paper_expectations={
            "multisite (75% remote)": "almost the same as single-site — "
                                      "on-chip message passing imposes "
                                      "negligible overhead",
        })
    report.xs = ["Single-site", "Multisite (75% remote)"]
    series = report.new_series("YCSB-C")
    for remote_fraction in (0.0, 0.75):
        series.add(machine_tput(
            YcsbWorkload(YcsbConfig(records_per_partition=5000,
                                    remote_fraction=remote_fraction)),
            lambda w: w.make_read_txns(n_txns)))
    return report
