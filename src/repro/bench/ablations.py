"""Ablations and extension studies.

These exercise the design choices DESIGN.md calls out:

* multiple Traverse stages under heavy hash conflict (§4.4.1);
* the cost of hazard prevention on contended inserts (§4.4.1);
* the softcore's tuple line buffer (our documented modeling addition);
* dynamic transaction scheduling (§4.5 future work);
* crossbar-vs-ring scale-up on a datacenter-grade device (§4.6/§7);
* shared-nothing scale-out over two chips (§4.6/§7).
"""

from __future__ import annotations

from typing import Sequence

from ..core import BionicConfig, BionicDB
from ..isa import Gp, ProcedureBuilder
from ..mem import IndexKind, TableSchema
from ..softcore import SoftcoreConfig
from ..workloads import TpccConfig, TpccWorkload, YcsbConfig, YcsbWorkload
from .report import FigureReport, index_kv_throughput, machine_tput

__all__ = [
    "run_traverse_stage_sweep", "run_hazard_prevention_cost",
    "run_line_buffer_ablation",
    "run_dynamic_scheduling", "run_scale_up", "run_cluster_scale_out",
    "run_full_tpcc_mix",
]


# -- Traverse stages under hash conflict ---------------------------------
def _conflicted_search_tput(n_traverse: int, n_buckets: int = 256,
                            n_keys: int = 4096, n_ops: int = 800) -> float:
    """Search throughput at load factor 16 (long conflict chains)."""
    return index_kv_throughput("hash", "search", 16, n_ops, n_workers=1,
                               n_keys=n_keys, seed=3, n_buckets=n_buckets,
                               n_traverse_stages=n_traverse)


def run_traverse_stage_sweep(stages: Sequence[int] = (1, 2, 4),
                             n_ops: int = 800) -> FigureReport:
    report = FigureReport(
        "Ablation: Traverse stages",
        "Hash search throughput under heavy conflict chains (load factor 16)",
        x_label="# Traverse stages", unit="kOps",
        paper_expectations={
            "§4.4.1": "if hash conflict is frequent, multiple Traverse "
                      "stages could be populated for balanced dataflow",
        })
    report.xs = list(stages)
    series = report.new_series("Search")
    for n in stages:
        series.add(_conflicted_search_tput(n, n_ops=n_ops))
    return report


# -- hazard prevention cost -----------------------------------------------
def run_hazard_prevention_cost(n_ops: int = 800) -> FigureReport:
    report = FigureReport(
        "Ablation: hazard prevention",
        "Contended insert throughput with/without pipeline-stall locks",
        x_label="mode", unit="kOps",
        paper_expectations={
            "note": "without prevention, inserts are LOST (Figure 6a) — "
                    "see tests/test_hash_pipeline.py; this measures the "
                    "stall cost prevention pays for correctness",
        })

    report.xs = ["prevention on", "prevention off (UNSAFE)"]
    series = report.new_series("Insert")
    for prevention in (True, False):
        series.add(index_kv_throughput("hash", "insert", 16, n_ops,
                                       n_workers=1, n_keys=0, n_buckets=64,
                                       hazard_prevention=prevention))
    return report


# -- line buffer ------------------------------------------------------------
def run_line_buffer_ablation(n_txns: int = 200) -> FigureReport:
    report = FigureReport(
        "Ablation: tuple line buffer",
        "TPC-C Payment with/without the softcore's record line buffer",
        x_label="mode", unit="kTps",
        paper_expectations={
            "note": "without it, every tuple-field LOAD/WRFIELD pays a "
                    "full DRAM read even within one 64-byte header line",
        })

    report.xs = ["line buffer on", "line buffer off"]
    series = report.new_series("Payment")
    for enabled in (True, False):
        series.add(machine_tput(
            TpccWorkload(TpccConfig(items=2000, customers_per_district=100)),
            lambda w: w.make_mix(n_txns, neworder_fraction=0.0),
            BionicConfig(softcore=SoftcoreConfig(line_buffer=enabled))))
    return report


# -- dynamic scheduling ----------------------------------------------------------
def _chain_proc(n_hops: int):
    b = ProcedureBuilder(f"chain{n_hops}")
    for i in range(n_hops):
        b.search(cp=i, table=0, key=b.at(i))
        b.ret(0, i)
    b.commit_handler()
    b.store(Gp(0), b.at(n_hops))
    b.commit()
    return b.build()


def run_dynamic_scheduling(n_txns: int = 120) -> FigureReport:
    report = FigureReport(
        "Extension: dynamic scheduling (§4.5 future work)",
        "Dependent-probe chains: switch-on-blocked-RET vs static interleaving",
        x_label="scheduler", unit="kTps",
        paper_expectations={
            "§4.5": "'it might be helpful to switch between transactions "
                    "dynamically whenever desired, but current "
                    "implementation does not support such dynamic "
                    "scheduling'",
        })

    def tput(dynamic: bool) -> float:
        db = BionicDB(BionicConfig(
            n_workers=4,
            softcore=SoftcoreConfig(interleaving=True,
                                    dynamic_scheduling=dynamic)))
        db.define_table(TableSchema(0, "kv", index_kind=IndexKind.HASH,
                                    hash_buckets=4096,
                                    partition_fn=lambda k, n: k % n))
        db.register_procedure(1, _chain_proc(4))
        db.load_many(columns=[(0, range(2000), [(k,) for k in range(2000)])])
        blocks, homes = [], []
        for t in range(n_txns):
            home = t % 4
            keys = [(home + 4 * (t * 5 + i)) % 2000 for i in range(4)]
            keys = [k - k % 4 + home for k in keys]  # keep keys home-local
            blocks.append(db.new_block(1, keys, worker=home))
            homes.append(home)
        rep = db.run_all(blocks, workers=homes)
        return rep.throughput_tps

    report.xs = ["static (paper)", "dynamic (extension)"]
    series = report.new_series("chain-of-4 reads")
    series.add(tput(False))
    series.add(tput(True))
    return report


# -- scale-up: bigger chip, crossbar vs ring -----------------------------------
def run_scale_up(worker_counts: Sequence[int] = (4, 8, 16, 32),
                 txns_per_worker: int = 30) -> FigureReport:
    report = FigureReport(
        "Extension: scale-up (§7)",
        "Multisite YCSB-C on a datacenter-grade FPGA, crossbar vs ring",
        x_label="# workers", unit="kTps",
        paper_expectations={
            "§4.6": "the crossbar does not scale; a ring or tree will be "
                    "required on chips fitting tens of workers",
        })
    report.xs = list(worker_counts)
    results = {}
    for topo in ("crossbar", "ring"):
        series = report.new_series(topo)
        fits = []
        for n in worker_counts:
            cfg = BionicConfig(n_workers=n, comm_topology=topo,
                               device="ultrascale_plus")
            db = BionicDB(cfg)
            workload = YcsbWorkload(YcsbConfig(
                records_per_partition=2000, n_partitions=n,
                remote_fraction=0.75))
            workload.install(db)
            rep, _ = workload.submit_all(
                db, workload.make_read_txns(txns_per_worker * n))
            series.add(rep.throughput_tps)
            fits.append(db.resource_ledger().utilization()["lut"])
        results[topo] = fits
    for topo, utils in results.items():
        pretty = ", ".join(f"{n}w={u:.0%}" for n, u in zip(worker_counts, utils))
        report.note(f"{topo} LUT utilization on Ultrascale+: {pretty}")
    return report


# -- scale-out: two chips --------------------------------------------------------
def run_cluster_scale_out(n_txns_per_part: int = 40) -> FigureReport:
    report = FigureReport(
        "Extension: scale-out (§4.6/§7)",
        "Shared-nothing cluster: 1 vs 2 chips on partition-local YCSB-C",
        x_label="configuration", unit="kTps",
        paper_expectations={
            "§7": "possible future directions include ... scaling out over "
                  "multiple chips and nodes",
        })

    def read_proc():
        b = ProcedureBuilder("read1")
        b.search(cp=0, table=0, key=b.at(0))
        b.commit_handler()
        b.ret(0, 0)
        b.store(Gp(0), b.at(1))
        b.commit()
        return b.build()

    def run(n_nodes: int) -> float:
        per = 1000
        db = BionicDB(BionicConfig(n_workers=4), n_nodes=n_nodes)
        total = db.total_workers
        db.define_table(TableSchema(
            0, "kv", index_kind=IndexKind.HASH, hash_buckets=4096,
            partition_fn=lambda k, n: min(k // per, n - 1)))
        db.register_procedure(0, read_proc())
        db.load_many(columns=(
            (0, range(p * per, p * per + 200), [[k] for k in range(200)])
            for p in range(total)))
        blocks, homes = [], []
        for t in range(n_txns_per_part * total):
            p = t % total
            blocks.append(db.new_block(
                0, [p * per + (t * 7) % 200], worker=p))
            homes.append(p)
        rep = db.run_all(blocks, workers=homes)
        return rep.throughput_tps

    report.xs = ["1 chip (4 workers)", "2 chips (8 workers)"]
    series = report.new_series("local YCSB-C")
    series.add(run(1))
    series.add(run(2))
    return report


# -- full TPC-C mix ---------------------------------------------------------
def run_full_tpcc_mix(n_txns: int = 200) -> FigureReport:
    """Extension: the standard five-transaction TPC-C mix (45% NewOrder,
    43% Payment, 4% OrderStatus, 4% Delivery, 4% StockLevel) on
    BionicDB.  The paper evaluates only the NewOrder/Payment pair;
    OrderStatus, Delivery and StockLevel are our ISA implementations
    (dynamic loops, RETN probes, per-district data dependencies)."""
    report = FigureReport(
        "Extension: full TPC-C mix",
        "Five-transaction TPC-C on BionicDB",
        x_label="mix", unit="kTps",
        paper_expectations={
            "paper scope": "NewOrder+Payment 50:50 only; the full mix "
                           "is an extension",
        })
    db = BionicDB(BionicConfig())
    workload = TpccWorkload(TpccConfig(items=2000, customers_per_district=100))
    workload.install(db)
    report.xs = ["NewOrder+Payment (paper)", "full 5-txn mix"]
    series = report.new_series("throughput")
    rep_pair, _ = workload.submit_all(db, workload.make_mix(n_txns))
    series.add(rep_pair.throughput_tps)
    rep_full, _ = workload.submit_all(db, workload.make_full_mix(n_txns))
    series.add(rep_full.throughput_tps)
    report.note(f"full-mix p99 latency: "
                f"{rep_full.latency_percentile_ns(99) / 1000:.1f} us")
    return report
