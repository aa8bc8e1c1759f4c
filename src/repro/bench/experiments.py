"""The paper's evaluation as data: one :class:`Experiment` per figure,
table or extension study of ``python -m repro.bench``.

A row holds what the report prints (ids, title, axis, series names and
the paper's expectations, verbatim), its full and ``--quick`` sizes, and
how its numbers are made.  A *grid* row's report is one float per x and
series, and the row's ``point(series, x, n)`` computes each on one of
the point runners of :mod:`.report`.  A row whose report reuses a
machine or computes its notes names a ``fill(report, n)`` instead, which
adds the values to a report whose series :func:`run` has already made.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence

from ..baseline import IndexStructure, SiloTpcc, SiloYcsb
from ..baseline.bptree import BPlusTree
from ..core import BionicConfig, BionicDB
from ..index.common import DbRequest
from ..isa import Gp, Opcode, ProcedureBuilder
from ..mem import IndexKind, TableSchema
from ..softcore import SoftcoreConfig
from ..workloads import TpccConfig, TpccWorkload, YcsbConfig, YcsbWorkload
from .fig_latency_load import latency_load
from .report import (
    DEFAULT_INFLIGHT_AXIS, FigureReport, bare_pipelines, drive_closed_loop,
    index_kv_throughput, machine_tput, silo_tput,
)
from .tables import power, table3, table4

__all__ = ["Experiment", "EXPERIMENTS", "run", "range_scan_sweep_point"]

NAN = float("nan")

#: the machine's axis (10b–d) starts at its 4 workers, one slot each:
#: a smaller budget would leave a coprocessor with none
MACHINE_INFLIGHT_AXIS = DEFAULT_INFLIGHT_AXIS[1:]


@dataclass(frozen=True)
class Experiment:
    """One row of the evaluation: a report's layout and how to fill it."""

    id: str
    fig_id: str
    title: str
    x_label: str
    unit: str
    xs: Sequence = ()
    series: Sequence[str] = ()
    #: the size knob (transactions or operations, per point or per
    #: worker) of a full run and of ``--quick``; None for the tables
    full: Optional[int] = None
    quick: Optional[int] = None
    expect: Dict[str, str] = field(default_factory=dict)
    notes: Sequence[str] = ()
    point: Optional[Callable[[str, object, int], float]] = None
    fill: Optional[Callable[[FigureReport, Optional[int]], None]] = None


def run(row: Experiment, n: Optional[int] = None,
        xs: Optional[Sequence] = None) -> FigureReport:
    """``row``'s report at size ``n`` (default: the full size) over the
    axis ``xs`` (default: the row's)."""
    report = FigureReport(row.fig_id, row.title, row.x_label,
                          list(row.xs if xs is None else xs), row.unit,
                          paper_expectations=dict(row.expect))
    series = [report.new_series(name) for name in row.series]
    n = row.full if n is None else n
    if row.fill is not None:
        row.fill(report, n)
    else:
        for x in report.xs:
            for s in series:
                s.add(row.point(s.name, x, n))
    for note in row.notes:
        report.note(note)
    return report


def _ycsb(**kw) -> YcsbWorkload:
    return YcsbWorkload(YcsbConfig(records_per_partition=5000, **kw))


def _tpcc(**kw) -> TpccWorkload:
    return TpccWorkload(TpccConfig(items=2000, customers_per_district=100,
                                   **kw))


# -- Figure 9: overall performance, BionicDB vs Silo -----------------------
# BionicDB runs 1–4 workers (the Virtex-5 fits four), Silo runs up to 24
# cores; a cell outside a system's own axis is NaN.
BIONIC_WORKERS = (1, 2, 4)
SILO_CORES = (1, 4, 8, 16, 24)
FIG9_AXIS = tuple(sorted(set(BIONIC_WORKERS) | set(SILO_CORES)))


def fig9a(series: str, x: int, n: int) -> float:
    if series == "BionicDB":
        if x not in BIONIC_WORKERS:
            return NAN
        return machine_tput(_ycsb(n_partitions=x),
                            lambda w: w.make_read_txns(n),
                            BionicConfig(n_workers=x))
    if x not in SILO_CORES:
        return NAN
    # one table of 4 x 5 000 rows, however many cores run on it
    ycsb = YcsbConfig(records_per_partition=5000, n_partitions=4)
    return silo_tput(SiloYcsb(ycsb, n_cores=x),
                     YcsbWorkload(ycsb).make_read_txns(n))


def fig9b(series: str, x: int, n: int) -> float:
    if series == "BionicDB":
        if x not in BIONIC_WORKERS:
            return NAN
        # TPC-C executes almost in serial on BionicDB (§5.4): the batch
        # former closes a batch at the warehouse and district hot rows.
        return machine_tput(_tpcc(n_partitions=x), lambda w: w.make_mix(n),
                            BionicConfig(n_workers=x))
    if x not in SILO_CORES:
        return NAN
    # Silo is shared-everything: warehouses scale with threads as in
    # standard TPC-C setups
    tpcc = TpccConfig(n_partitions=max(1, x), items=2000,
                      customers_per_district=100)
    return silo_tput(SiloTpcc(tpcc, n_cores=x),
                     TpccWorkload(tpcc).make_mix(n))


# -- Figure 11d: scans on BionicDB vs software indexes on the Xeon ----------
def fig11d(report: FigureReport, n: int) -> None:
    """Scan throughput: BionicDB vs Masstree vs SW skiplist (4 workers),
    all on one stream of scans."""
    cfg = YcsbConfig(records_per_partition=4000, index_kind=IndexKind.SKIPLIST)
    workload = YcsbWorkload(cfg)
    specs = workload.make_scan_txns(n)

    db = BionicDB(BionicConfig())
    workload.install(db)
    bionic_report, _ = workload.submit_all(db, specs)

    series, = report.series
    series.add(bionic_report.throughput_tps)
    for structure in (IndexStructure.MASSTREE, IndexStructure.SKIPLIST):
        series.add(silo_tput(SiloYcsb(cfg, n_cores=4, structure=structure),
                             specs))


# -- dynamic scheduling ------------------------------------------------------
def _chain_proc(n_hops: int):
    b = ProcedureBuilder(f"chain{n_hops}")
    for i in range(n_hops):
        b.search(cp=i, table=0, key=b.at(i))
        b.ret(0, i)
    b.commit_handler()
    b.store(Gp(0), b.at(n_hops))
    b.commit()
    return b.build()


def dynamic_scheduling_tput(dynamic: bool, n_txns: int) -> float:
    """Chains of 4 dependent reads, home-local, on 4 workers."""
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


# -- scale-up: bigger chip, crossbar vs ring ---------------------------------
def scale_up(report: FigureReport, n: int) -> None:
    """Multisite YCSB-C at ``n`` transactions per worker on each
    topology, noting each machine's LUT utilization."""
    for series in report.series:
        fits = []
        for workers in report.xs:
            cfg = BionicConfig(n_workers=workers, comm_topology=series.name,
                               device="ultrascale_plus")
            db = BionicDB(cfg)
            workload = YcsbWorkload(YcsbConfig(
                records_per_partition=2000, n_partitions=workers,
                remote_fraction=0.75))
            workload.install(db)
            rep, _ = workload.submit_all(
                db, workload.make_read_txns(n * workers))
            series.add(rep.throughput_tps)
            fits.append(db.resource_ledger().utilization()["lut"])
        pretty = ", ".join(f"{w}w={u:.0%}" for w, u in zip(report.xs, fits))
        report.note(f"{series.name} LUT utilization on Ultrascale+: {pretty}")


# -- scale-out: two chips ----------------------------------------------------
def _read_proc():
    b = ProcedureBuilder("read1")
    b.search(cp=0, table=0, key=b.at(0))
    b.commit_handler()
    b.ret(0, 0)
    b.store(Gp(0), b.at(1))
    b.commit()
    return b.build()


def cluster_tput(n_nodes: int, n_txns_per_part: int) -> float:
    """Partition-local one-read transactions on ``n_nodes`` chips of 4
    workers, 200 loaded rows per partition."""
    per = 1000
    db = BionicDB(BionicConfig(n_workers=4), n_nodes=n_nodes)
    total = db.total_workers
    db.define_table(TableSchema(
        0, "kv", index_kind=IndexKind.HASH, hash_buckets=4096,
        partition_fn=lambda k, n: min(k // per, n - 1)))
    db.register_procedure(0, _read_proc())
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


# -- full TPC-C mix ----------------------------------------------------------
def full_tpcc_mix(report: FigureReport, n: int) -> None:
    """The standard five-transaction TPC-C mix (45% NewOrder, 43%
    Payment, 4% OrderStatus, 4% Delivery, 4% StockLevel) after the
    paper's pair, on one machine.  OrderStatus, Delivery and StockLevel
    are our ISA implementations (dynamic loops, RETN probes,
    per-district data dependencies)."""
    db = BionicDB(BionicConfig())
    workload = _tpcc()
    workload.install(db)
    series, = report.series
    rep_pair, _ = workload.submit_all(db, workload.make_mix(n))
    series.add(rep_pair.throughput_tps)
    rep_full, _ = workload.submit_all(db, workload.make_full_mix(n))
    series.add(rep_full.throughput_tps)
    report.note(f"full-mix p99 latency: "
                f"{rep_full.latency_percentile_ns(99) / 1000:.1f} us")


# -- three-way index comparison ----------------------------------------------
#: ext-index3's series: the index kind and pipeline shape of each
INDEX3 = {
    "Hash": ("hash", {"n_buckets": 1 << 13}),
    "Skiplist": ("skiplist", {}),
    "B+ tree": ("bptree", {}),
    "B+ tree (wave=1)": ("bptree", {"wave_size": 1}),
}


def range_scan_sweep_point(kind: str, span: int, n_ops: int = 120,
                           n_workers: int = 4, n_keys: int = 4000,
                           total_in_flight: int = 16):
    """One selectivity point: throughput plus golden-model mismatches."""
    engine, dram, pipes = bare_pipelines(kind, n_workers, total_in_flight)
    heap = dram.heap
    golden = BPlusTree()
    for pipe in pipes:
        pipe.bulk_load_many(range(n_keys), [(k,) for k in range(n_keys)])
    for k in range(n_keys):
        golden.insert(k, k)
    rng = random.Random(29)

    def submit_one(i, on_complete):
        lo = rng.randrange(max(1, n_keys - span))
        req = DbRequest(op=Opcode.RANGE_SCAN, table_id=0, ts=1, txn_id=i,
                        key_value=lo, on_complete=on_complete)
        req.scan_hi = lo + span - 1
        req.scan_count = span
        req.scan_limit = span + 8
        req.scan_out_addr = heap.alloc(span + 8)
        pipes[i % n_workers].submit(req)

    done = drive_closed_loop(engine, n_ops, total_in_flight, submit_one)
    mismatches = 0
    for req, result in done:
        expect = golden.scan_range(req.key, req.scan_hi, limit=req.scan_count)
        got = [heap.load(req.scan_out_addr + i) for i in range(result.value)]
        if [k for k, _v in got] != [k for k, _v in expect]:
            mismatches += 1
    tput = n_ops / (engine.now * 1e-9)
    return tput, mismatches


def index3_scan(report: FigureReport, n: int) -> None:
    """Both ordered pipelines' scan throughput at each span, and their
    summed golden-model mismatches."""
    sl, bp, bad = report.series
    for span in report.xs:
        sl_t, sl_bad = range_scan_sweep_point("skiplist", span, n)
        bp_t, bp_bad = range_scan_sweep_point("bptree", span, n)
        sl.add(sl_t)
        bp.add(bp_t)
        bad.add(sl_bad + bp_bad)


EXPERIMENTS: Dict[str, Experiment] = {row.id: row for row in (
    # Figure 9: overall performance.  (a) YCSB-C (read-only, 16
    # accesses): with the same number of workers BionicDB is up to 4.5x
    # faster; Silo needs 24 cores to match 4 BionicDB workers.  (b)
    # TPC-C NewOrder+Payment 50:50: comparable at equal worker counts
    # (BionicDB substantially underutilised — executed almost in serial).
    Experiment(
        "fig9a", "Figure 9a", "YCSB-C (read-only) overall throughput",
        "# workers", "kTps", FIG9_AXIS, ("BionicDB", "Silo/Xeon"),
        full=240, quick=120,
        expect={
            "BionicDB@4 vs Silo@4": "~4.5x faster",
            "Silo@24": "matches BionicDB@4",
            "BionicDB@4": "~450 kTps",
        },
        point=fig9a),
    Experiment(
        "fig9b", "Figure 9b",
        "TPC-C NewOrder+Payment (50:50) overall throughput",
        "# workers", "kTps", FIG9_AXIS, ("BionicDB", "Silo/Xeon"),
        full=200, quick=100,
        expect={
            "BionicDB@4 vs Silo@4": "comparable (BionicDB underutilised)",
            "TPC-C on BionicDB": "executed almost in serial",
        },
        point=fig9b),
    # Figure 10: hash index throughput vs in-flight DB requests.  (a) a
    # non-transactional key-value workload driving the hash pipelines
    # directly with a client-side cap on total in-flight requests; (b)
    # YCSB-C through the full machine — same saturation trend; (c) TPC-C
    # NewOrder — sufficient intra-transaction parallelism; (d) TPC-C
    # Payment — only 4 index lookups, flat beyond 4 in-flight.
    Experiment(
        "fig10a", "Figure 10a",
        "KeyValue hash index throughput vs in-flight requests",
        "# in-flight", "Mops", DEFAULT_INFLIGHT_AXIS, ("Insert", "Search"),
        full=2000, quick=800,
        expect={
            "peak insert": "~8.5 Mops", "peak search": "~7 Mops",
            "saturation": "between 12 and 16 in-flight requests",
        },
        # the §5.5 KV microbenchmark: a single transaction bulk-issuing
        # inserts/searches (the series name, lower-cased) whose keys sit
        # in its block's cells
        point=lambda s, x, n: index_kv_throughput(
            "hash", s.lower(), x, n, n_keys=8192, seed=11, key_cells=True,
            n_buckets=2 * 8192)),
    Experiment(
        "fig10b", "Figure 10b", "YCSB-C (read-only) vs in-flight requests",
        "# in-flight", "kTps", MACHINE_INFLIGHT_AXIS, ("YCSB-C",),
        full=200, quick=100,
        expect={
            "shape": "same saturation trend as the KV workload",
            "peak": "~450 kTps",
        },
        point=lambda _s, x, n: machine_tput(
            _ycsb(), lambda w: w.make_read_txns(n), in_flight=x)),
    Experiment(
        "fig10c", "Figure 10c", "TPC-C NewOrder vs in-flight requests",
        "# in-flight", "kTps", MACHINE_INFLIGHT_AXIS, ("NewOrder",),
        full=160, quick=80,
        expect={
            "shape": "grows with in-flight budget (intra-txn parallelism)",
            "peak": "~150 kTps",
        },
        point=lambda _s, x, n: machine_tput(
            _tpcc(), lambda w: w.make_mix(n, neworder_fraction=1.0),
            in_flight=x)),
    Experiment(
        "fig10d", "Figure 10d", "TPC-C Payment vs in-flight requests",
        "# in-flight", "kTps", MACHINE_INFLIGHT_AXIS, ("Payment",),
        full=240, quick=120,
        expect={
            "shape": "no improvement beyond 4 (only 4 index lookups)",
            "peak": "~700 kTps",
        },
        notes=("our x counts total in-flight over 4 workers; the paper's "
               "counts one coprocessor — Payment flattens at 16 total "
               "(= 4 per coprocessor), the same 4-lookup limit",),
        point=lambda _s, x, n: machine_tput(
            _tpcc(), lambda w: w.make_mix(n, neworder_fraction=0.0),
            in_flight=x)),
    # Figure 11: skiplist throughput and the scan comparison.  (a)
    # sequential loading saturates around 8 in-flight — parallelism
    # bound by pipeline depth, plus lock-table contention on shared
    # entry points; (b) point queries: same trend, higher absolute; (c)
    # scans of 50 tuples: the single scanner bottlenecks the pipeline;
    # (d) the paper's HW skiplist scans 20% slower than Masstree and 5x
    # slower than the SW skiplist on the Xeon.
    Experiment(
        "fig11a", "Figure 11a",
        "Skiplist sequential loading (inserts) vs in-flight",
        "# in-flight", "kOps", DEFAULT_INFLIGHT_AXIS, ("Insert",),
        full=600, quick=300,
        expect={
            "saturation": "~8 in-flight (bound by pipeline depth)",
            "shape": "sharp growth 1->4, modest 4->8",
            "peak": "~275 kOps",
        },
        point=lambda _s, x, n: index_kv_throughput(
            "skiplist", "insert", x, n)),
    Experiment(
        "fig11b", "Figure 11b", "Skiplist point queries vs in-flight",
        "# in-flight", "kOps", DEFAULT_INFLIGHT_AXIS, ("Point query",),
        full=600, quick=300,
        expect={
            "shape": "same trend as inserts, higher throughput "
                     "(no tower installation)",
            "peak": "~350 kTps",
        },
        point=lambda _s, x, n: index_kv_throughput(
            "skiplist", "search", x, n)),
    Experiment(
        "fig11c", "Figure 11c", "Skiplist scans (50 tuples) vs in-flight",
        "# in-flight", "kTps", DEFAULT_INFLIGHT_AXIS, ("Scan(50)",),
        full=240, quick=120,
        expect={
            "shape": "pipelining efficiency deteriorated — the single "
                     "scanner is the bottleneck",
            "peak": "~40 kTps",
        },
        point=lambda _s, x, n: index_kv_throughput(
            "skiplist", "scan", x, n)),
    Experiment(
        "fig11d", "Figure 11d",
        "Scan(50) throughput vs software indexes (4 workers)",
        "system", "kTps", ("BionicDB", "Masstree", "SW skiplist"),
        ("Scan(50)",), full=160, quick=80,
        expect={
            "Masstree": "~20% faster than the HW skiplist",
            "SW skiplist": "~5x faster than the HW skiplist",
        },
        fill=fig11d),
    # Ablation (§5.5 discussion): redundant scanners distribute heavy
    # scan loads — the paper estimates >= 5 scanners to match the SW
    # skiplist.
    Experiment(
        "fig11-scanners", "Figure 11 ablation",
        "Scan throughput vs number of scanner modules",
        "# scanners", "kTps", (1, 2, 3, 5, 8), ("Scan(50)",),
        full=240, quick=120,
        expect={
            "claim": "at least 5 scanners required to catch the SW skiplist",
        },
        point=lambda _s, x, n: index_kv_throughput(
            "skiplist", "scan", 24, n, n_scanners=x)),
    # Figure 12: transaction interleaving vs serial execution.  (a)
    # YCSB-C with the transaction footprint (number of DB accesses per
    # transaction) varied from 1 to 64; (b) TPC-C NewOrder and Payment:
    # no noticeable benefit — heavy data dependency (and, in our
    # reproduction, hot-row CC aborts under batching) eliminate the
    # chance for interleaving.
    Experiment(
        "fig12a", "Figure 12a",
        "Interleaving vs serial execution, YCSB-C footprint sweep",
        "# DB accesses", "kTps", (1, 4, 8, 16, 32, 64),
        ("Interleaving", "Serial"), full=200, quick=100,
        expect={
            "single-access txns": "interleaving ~3x faster than serial",
            "shape": "the gap shrinks as intra-txn parallelism grows",
        },
        point=lambda s, x, n: machine_tput(
            _ycsb(reads_per_txn=x),
            lambda w: w.make_read_txns(n, reads_per_txn=x),
            BionicConfig(softcore=SoftcoreConfig(
                interleaving=s == "Interleaving")),
            procedures={x})),
    Experiment(
        "fig12b", "Figure 12b", "Interleaving vs serial execution, TPC-C",
        "transaction", "kTps", ("NewOrder", "Payment"),
        ("Interleaving", "Serial"), full=200, quick=100,
        expect={
            "NewOrder": "no noticeable difference (data dependency)",
            "Payment": "no noticeable difference (limited parallelism "
                       "+ data dependency)",
        },
        notes=("the batch former closes a batch at the first transaction "
               "whose key cells meet a written warehouse/district row, so "
               "TPC-C batches are one or two transactions long — "
               "interleaving buys nothing on TPC-C, and costs nothing",),
        point=lambda s, x, n: machine_tput(
            _tpcc(),
            lambda w: w.make_mix(
                n, neworder_fraction=1.0 if x == "NewOrder" else 0.0),
            BionicConfig(softcore=SoftcoreConfig(
                interleaving=s == "Interleaving")))),
    # Figure 13: cross-partition YCSB-C with uniform random keys, 75% of
    # a multisite transaction's DB accesses remote.
    Experiment(
        "fig13", "Figure 13", "Single-site vs multisite YCSB-C transactions",
        "workload", "kTps", ("Single-site", "Multisite (75% remote)"),
        ("YCSB-C",), full=200, quick=100,
        expect={
            "multisite (75% remote)": "almost the same as single-site — "
                                      "on-chip message passing imposes "
                                      "negligible overhead",
        },
        point=lambda _s, x, n: machine_tput(
            _ycsb(remote_fraction=0.0 if x == "Single-site" else 0.75),
            lambda w: w.make_read_txns(n))),
    # Table 3 (message-passing latency), Table 4 (resources), §5.8 (power)
    Experiment(
        "table3", "Table 3", "Latencies of message-passing methods",
        "primitive", "ns", series=("primitive", "total roundtrip"),
        expect={
            "On-chip MP": "24 ns primitive / 48 ns per pair",
            "L3 cache": "20 ns / 40 ns",
            "DDR3": "80 ns / 320 ns",
        },
        fill=table3),
    Experiment(
        "table4", "Table 4", "Resource utilization of BionicDB with 4 workers",
        "module", "count", series=("FF", "LUT", "BRAM"),
        expect={
            "utilization": "~70% of the Virtex-5 LX330 (FF/LUT/BRAM)",
            "skiplist share": "~50% of BionicDB's own logic",
            "BionicDB total": "~53k FFs / ~70k LUTs over 4 workers",
        },
        fill=table4),
    Experiment(
        "power", "Power (§5.8)", "Estimated power: BionicDB vs Xeon baseline",
        "system", "W", series=("power",),
        expect={
            "BionicDB (XPE estimate)": "~11.5 W",
            "4x Xeon E7 4807 TDP": "380 W",
            "headline": "an order of magnitude power saving",
        },
        fill=power),
    # Ablations of the design choices DESIGN.md calls out: multiple
    # Traverse stages under heavy hash conflict (§4.4.1), the cost of
    # hazard prevention on contended inserts (§4.4.1), and the
    # softcore's tuple line buffer (our documented modeling addition).
    Experiment(
        "ablation-traverse", "Ablation: Traverse stages",
        "Hash search throughput under heavy conflict chains (load factor 16)",
        "# Traverse stages", "kOps", (1, 2, 4), ("Search",),
        full=800, quick=400,
        expect={
            "§4.4.1": "if hash conflict is frequent, multiple Traverse "
                      "stages could be populated for balanced dataflow",
        },
        # 4096 keys in 256 buckets: long conflict chains
        point=lambda _s, x, n: index_kv_throughput(
            "hash", "search", 16, n, n_workers=1, n_keys=4096, seed=3,
            n_buckets=256, n_traverse_stages=x)),
    Experiment(
        "ablation-hazard", "Ablation: hazard prevention",
        "Contended insert throughput with/without pipeline-stall locks",
        "mode", "kOps", ("prevention on", "prevention off (UNSAFE)"),
        ("Insert",), full=800, quick=400,
        expect={
            "note": "without prevention, inserts are LOST (Figure 6a) — "
                    "see tests/test_hash_pipeline.py; this measures the "
                    "stall cost prevention pays for correctness",
        },
        point=lambda _s, x, n: index_kv_throughput(
            "hash", "insert", 16, n, n_workers=1, n_keys=0, n_buckets=64,
            hazard_prevention=x == "prevention on")),
    Experiment(
        "ablation-linebuf", "Ablation: tuple line buffer",
        "TPC-C Payment with/without the softcore's record line buffer",
        "mode", "kTps", ("line buffer on", "line buffer off"), ("Payment",),
        full=200, quick=100,
        expect={
            "note": "without it, every tuple-field LOAD/WRFIELD pays a "
                    "full DRAM read even within one 64-byte header line",
        },
        point=lambda _s, x, n: machine_tput(
            _tpcc(), lambda w: w.make_mix(n, neworder_fraction=0.0),
            BionicConfig(softcore=SoftcoreConfig(
                line_buffer=x == "line buffer on")))),
    # Extension studies: the paper's stated future-work directions —
    # dynamic transaction scheduling (§4.5), crossbar-vs-ring scale-up
    # on a datacenter-grade device and shared-nothing scale-out over two
    # chips (§4.6/§7), serving through a network front-end (§5.1), and
    # the full TPC-C mix, of which the paper evaluates only the
    # NewOrder/Payment pair.
    Experiment(
        "ext-dynamic", "Extension: dynamic scheduling (§4.5 future work)",
        "Dependent-probe chains: switch-on-blocked-RET vs static interleaving",
        "scheduler", "kTps", ("static (paper)", "dynamic (extension)"),
        ("chain-of-4 reads",), full=120, quick=80,
        expect={
            "§4.5": "'it might be helpful to switch between transactions "
                    "dynamically whenever desired, but current "
                    "implementation does not support such dynamic "
                    "scheduling'",
        },
        point=lambda _s, x, n: dynamic_scheduling_tput(
            x == "dynamic (extension)", n)),
    Experiment(
        "ext-scaleup", "Extension: scale-up (§7)",
        "Multisite YCSB-C on a datacenter-grade FPGA, crossbar vs ring",
        "# workers", "kTps", (4, 8, 16, 32), ("crossbar", "ring"),
        full=30, quick=15,
        expect={
            "§4.6": "the crossbar does not scale; a ring or tree will be "
                    "required on chips fitting tens of workers",
        },
        fill=scale_up),
    Experiment(
        "ext-cluster", "Extension: scale-out (§4.6/§7)",
        "Shared-nothing cluster: 1 vs 2 chips on partition-local YCSB-C",
        "configuration", "kTps", ("1 chip (4 workers)", "2 chips (8 workers)"),
        ("local YCSB-C",), full=40, quick=20,
        expect={
            "§7": "possible future directions include ... scaling out over "
                  "multiple chips and nodes",
        },
        point=lambda _s, x, n: cluster_tput(
            1 if x == "1 chip (4 workers)" else 2, n)),
    Experiment(
        "ext-frontend", "Extension: latency under load (front-end)",
        "YCSB-C p99 latency vs offered load through the network "
        "front-end, admission control on vs off",
        "load (x saturation)", "us", (0.25, 0.5, 0.75, 1.0, 1.25, 1.5),
        ("p99 (admission)", "p99 (no admission)"), full=1500, quick=500,
        expect={
            "§5.1": "ideally, remote clients should submit transaction "
                    "blocks through network cards — this sweep runs that "
                    "serving path",
            "queueing": "open loop past the knee: latency unbounded "
                        "without admission; pinned near capacity with it",
        },
        fill=latency_load),
    Experiment(
        "ext-fullmix", "Extension: full TPC-C mix",
        "Five-transaction TPC-C on BionicDB",
        "mix", "kTps", ("NewOrder+Payment (paper)", "full 5-txn mix"),
        ("throughput",), full=200, quick=100,
        expect={
            "paper scope": "NewOrder+Payment 50:50 only; the full mix "
                           "is an extension",
        },
        fill=full_tpcc_mix),
    # Not a paper figure — BionicDB ships hash and skiplist coprocessors
    # (§4.4); the B+ tree pipeline is this repo's extension, traversing
    # a *wave* of keys level-by-level so one DRAM fetch serves every
    # probe that crosses the same node.  The point sweep adds the B+
    # tree with wave formation disabled (wave_size=1) to show what
    # level-wise batching buys.  The scan sweep is YCSB-E style:
    # RANGE_SCAN over [lo, lo+span-1] for growing spans, every result
    # validated against the software ``baseline.bptree.BPlusTree``
    # golden model ("Parity mismatches" must stay 0).
    Experiment(
        "ext-index3", "Extension: index comparison",
        "Point-query throughput vs in-flight, by index kind",
        "# in-flight", "kOps", DEFAULT_INFLIGHT_AXIS, tuple(INDEX3),
        full=600, quick=200,
        expect={
            "hash": "fastest (O(1) probes; the paper's primary index)",
            "bptree": "between hash and skiplist — fewer levels than "
                      "skiplist towers, and waves dedup node fetches",
            "wave off": "wave_size=1 pays one root fetch per probe",
        },
        point=lambda s, x, n: index_kv_throughput(
            INDEX3[s][0], "search", x, n, **INDEX3[s][1])),
    Experiment(
        "ext-index3-scan", "Extension: range-scan selectivity",
        "RANGE_SCAN throughput vs span (YCSB-E style), skiplist vs B+ tree",
        "scan span (rows)", "kTps", (10, 25, 50, 100, 200),
        ("Skiplist RANGE_SCAN", "B+ tree RANGE_SCAN", "Parity mismatches"),
        full=120, quick=40,
        expect={
            "shape": "throughput falls with span (emit cost dominates)",
            "bptree": "wins at small spans (shallower traversal); both "
                      "converge as per-tuple emit dominates",
            "parity": "every scan must match the software B+ tree",
        },
        fill=index3_scan),
)}
