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
from .report import FigureReport, machine_tput

__all__ = ["run_fig9a", "run_fig9b", "silo_ycsb_tput", "silo_tpcc_tput"]


def silo_ycsb_tput(n_cores: int, n_txns: int = 240,
                   records_per_partition: int = 5000,
                   n_partitions: int = 4) -> float:
    cfg = YcsbConfig(records_per_partition=records_per_partition,
                     n_partitions=n_partitions)
    workload = YcsbWorkload(cfg)
    silo = SiloYcsb(cfg, n_cores=n_cores)
    silo.install()
    return silo.run(workload.make_read_txns(n_txns)).throughput_tps


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
        silo.add(silo_ycsb_tput(x, n_txns) if x in silo_cores
                 else float("nan"))
    return report


def silo_tpcc_tput(n_cores: int, n_txns: int = 240, items: int = 2000,
                   customers_per_district: int = 100) -> float:
    # Silo is shared-everything: warehouses scale with threads as in
    # standard TPC-C setups.
    cfg = TpccConfig(n_partitions=max(1, n_cores), items=items,
                     customers_per_district=customers_per_district)
    workload = TpccWorkload(cfg)
    silo = SiloTpcc(cfg, n_cores=n_cores)
    silo.install()
    return silo.run(workload.make_mix(n_txns)).throughput_tps


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
        silo.add(silo_tpcc_tput(x, n_txns) if x in silo_cores
                 else float("nan"))
    return report
