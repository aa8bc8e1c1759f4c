"""Figure 9: overall performance, BionicDB vs Silo.

(a) YCSB-C (read-only, 16 accesses): BionicDB runs 1–4 workers (the
    Virtex-5 fits four), Silo runs up to 24 cores.  The paper: with the
    same number of workers BionicDB is up to 4.5x faster; Silo needs 24
    cores to match 4 BionicDB workers.
(b) TPC-C NewOrder+Payment 50:50: comparable at equal worker counts
    (BionicDB substantially underutilised — executed almost in serial).
"""

from __future__ import annotations

from typing import Sequence

from ..baseline import SiloTpcc, SiloYcsb
from ..core import BionicConfig
from ..workloads import TpccConfig, TpccWorkload, YcsbConfig, YcsbWorkload
from .report import FigureReport, machine_tput, silo_tput

__all__ = ["run_fig9a", "run_fig9b"]


def run_fig9a(bionic_workers: Sequence[int] = (1, 2, 4),
              silo_cores: Sequence[int] = (1, 4, 8, 16, 24),
              n_txns: int = 240) -> FigureReport:
    report = FigureReport(
        "Figure 9a", "YCSB-C (read-only) overall throughput",
        x_label="# workers", unit="kTps",
        paper_expectations={
            "BionicDB@4 vs Silo@4": "~4.5x faster",
            "Silo@24": "matches BionicDB@4",
            "BionicDB@4": "~450 kTps",
        })
    xs = sorted(set(bionic_workers) | set(silo_cores))
    report.xs = xs
    bionic = report.new_series("BionicDB")
    silo = report.new_series("Silo/Xeon")
    for x in xs:
        bionic.add(machine_tput(
            YcsbWorkload(YcsbConfig(records_per_partition=5000,
                                    n_partitions=x)),
            lambda w: w.make_read_txns(n_txns), BionicConfig(n_workers=x))
            if x in bionic_workers else float("nan"))
        # one table of 4 x 5 000 rows, however many cores run on it
        ycsb = YcsbConfig(records_per_partition=5000, n_partitions=4)
        silo.add(silo_tput(SiloYcsb(ycsb, n_cores=x),
                           YcsbWorkload(ycsb).make_read_txns(n_txns))
                 if x in silo_cores else float("nan"))
    return report


def run_fig9b(bionic_workers: Sequence[int] = (1, 2, 4),
              silo_cores: Sequence[int] = (1, 4, 8, 16, 24),
              n_txns: int = 200) -> FigureReport:
    report = FigureReport(
        "Figure 9b", "TPC-C NewOrder+Payment (50:50) overall throughput",
        x_label="# workers", unit="kTps",
        paper_expectations={
            "BionicDB@4 vs Silo@4": "comparable (BionicDB underutilised)",
            "TPC-C on BionicDB": "executed almost in serial",
        })
    xs = sorted(set(bionic_workers) | set(silo_cores))
    report.xs = xs
    bionic = report.new_series("BionicDB")
    silo = report.new_series("Silo/Xeon")
    for x in xs:
        # TPC-C executes almost in serial on BionicDB (§5.4): the batch
        # former closes a batch at the warehouse and district hot rows.
        bionic.add(machine_tput(
            TpccWorkload(TpccConfig(n_partitions=x, items=2000,
                                    customers_per_district=100)),
            lambda w: w.make_mix(n_txns), BionicConfig(n_workers=x))
            if x in bionic_workers else float("nan"))
        # Silo is shared-everything: warehouses scale with threads as in
        # standard TPC-C setups
        tpcc = TpccConfig(n_partitions=max(1, x), items=2000,
                          customers_per_district=100)
        silo.add(silo_tput(SiloTpcc(tpcc, n_cores=x),
                           TpccWorkload(tpcc).make_mix(n_txns))
                 if x in silo_cores else float("nan"))
    return report
