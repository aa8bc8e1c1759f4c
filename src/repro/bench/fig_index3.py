"""Extension: three-way index comparison (hash / skiplist / B+ tree).

Not a paper figure — BionicDB ships hash and skiplist coprocessors
(§4.4); the B+ tree pipeline is this repo's extension, traversing a
*wave* of keys level-by-level so one DRAM fetch serves every probe
that crosses the same node.  Two experiments:

* ``run_index3_point``: point-query throughput vs total in-flight for
  all three index kinds, plus the B+ tree with wave formation disabled
  (wave_size=1) to show what level-wise batching buys.
* ``run_index3_scan``: YCSB-E-style range-scan selectivity sweep —
  RANGE_SCAN over [lo, lo+span-1] for growing spans on the skiplist
  and B+ tree pipelines, with every result validated against the
  software ``baseline.bptree.BPlusTree`` golden model ("Parity
  mismatches" must stay 0).
"""

from __future__ import annotations

import random
from typing import Sequence

from ..baseline.bptree import BPlusTree
from ..index.common import DbRequest
from ..isa import Opcode
from .report import (
    DEFAULT_INFLIGHT_AXIS, FigureReport, bare_pipelines, drive_closed_loop,
    index_kv_throughput,
)

__all__ = ["run_index3_point", "run_index3_scan", "range_scan_sweep_point",
           "DEFAULT_SPAN_AXIS"]

DEFAULT_SPAN_AXIS = (10, 25, 50, 100, 200)


def run_index3_point(axis: Sequence[int] = DEFAULT_INFLIGHT_AXIS,
                     n_ops: int = 600) -> FigureReport:
    report = FigureReport(
        "Extension: index comparison",
        "Point-query throughput vs in-flight, by index kind",
        x_label="# in-flight", unit="kOps",
        paper_expectations={
            "hash": "fastest (O(1) probes; the paper's primary index)",
            "bptree": "between hash and skiplist — fewer levels than "
                      "skiplist towers, and waves dedup node fetches",
            "wave off": "wave_size=1 pays one root fetch per probe",
        })
    report.xs = list(axis)
    for label, kind, shape in (("Hash", "hash", {"n_buckets": 1 << 13}),
                               ("Skiplist", "skiplist", {}),
                               ("B+ tree", "bptree", {}),
                               ("B+ tree (wave=1)", "bptree",
                                {"wave_size": 1})):
        series = report.new_series(label)
        for n in axis:
            series.add(index_kv_throughput(kind, "search", n, n_ops, **shape))
    return report


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


def run_index3_scan(spans: Sequence[int] = DEFAULT_SPAN_AXIS,
                    n_ops: int = 120) -> FigureReport:
    report = FigureReport(
        "Extension: range-scan selectivity",
        "RANGE_SCAN throughput vs span (YCSB-E style), skiplist vs B+ tree",
        x_label="scan span (rows)", unit="kTps",
        paper_expectations={
            "shape": "throughput falls with span (emit cost dominates)",
            "bptree": "wins at small spans (shallower traversal); both "
                      "converge as per-tuple emit dominates",
            "parity": "every scan must match the software B+ tree",
        })
    report.xs = list(spans)
    sl = report.new_series("Skiplist RANGE_SCAN")
    bp = report.new_series("B+ tree RANGE_SCAN")
    bad = report.new_series("Parity mismatches")
    for span in spans:
        sl_t, sl_bad = range_scan_sweep_point("skiplist", span, n_ops)
        bp_t, bp_bad = range_scan_sweep_point("bptree", span, n_ops)
        sl.add(sl_t)
        bp.add(bp_t)
        bad.add(sl_bad + bp_bad)
    return report
