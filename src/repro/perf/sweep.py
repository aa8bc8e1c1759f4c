"""Host-parallel sweep runner for paper-scale simulation points.

A paper-scale point (YCSB at 300 K rows per partition on any index
kind, TPC-C with full districts) costs whole host-seconds, and a
figure is many such points — so the runner farms points across host
*processes*, one child per point (so a point's recorded peak is its own).
Every point is:

* **named** — the registry (:data:`POINTS`) maps a stable name to a
  picklable parameter dict, so a point can be re-run in isolation and
  its result diffed across commits;
* **deterministically seeded** — the workload seed is derived from the
  point's name (CRC-32), never from time or process id, so the
  simulated fingerprint of a point is a constant of the tree;
* **fingerprinted** — the result records ``now_ns``, commit/abort
  counts and the commit-timestamp hash next to the host timing and
  peak resident memory, so a sweep doubles as a large-scale
  determinism check.

Results merge into ``BENCH_sim.json`` under the ``"sweep"`` key (one
entry per point, host metadata stamped alongside); ``python -m
repro.perf`` is the command line.

Wall-clock reads below only measure host cost; all simulated
behaviour is seeded (the determinism lint enforces the split).
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import platform
import resource
import sys
import time
from typing import Dict, List, Optional
from zlib import crc32

__all__ = ["POINTS", "run_point", "run_sweep", "host_metadata"]


def _point_seed(name: str) -> int:
    """Stable per-point seed: a CRC-32 of the point's name."""
    return crc32(name.encode("utf-8")) % 1_000_000


#: the sweep-point registry.  Parameter dicts are plain JSON-able data
#: (picklable for the process pool, diffable in BENCH_sim.json).
POINTS: Dict[str, Dict[str, object]] = {
    # the paper's YCSB scale: 300 K rows per partition (§5.2), with
    # enough transactions that the run, not the ~3 s load, is most of
    # the point and the throughput rests on more than a few batches
    "ycsb_paper_300k": {
        "workload": "ycsb",
        "n_workers": 4,
        "records_per_partition": 300_000,
        "reads_per_txn": 16,
        "n_txns": 5000,
    },
    # Figure 11c at the same table size: YCSB-E's 50-row scans over a
    # skiplist of 4 x 300 K towers (a ~1 s load, a ~0.5 s run)
    "skiplist_paper_300k": {
        "workload": "ycsb",
        "n_workers": 4,
        "records_per_partition": 300_000,
        "index_kind": "skiplist",
        "op": "scan",
        "n_txns": 1000,
    },
    # its B+ tree twin: 50-row RANGE_SCANs over 4 x 300 K leaf entries
    "bptree_paper_300k": {
        "workload": "ycsb",
        "n_workers": 4,
        "records_per_partition": 300_000,
        "index_kind": "bptree",
        "op": "range",
        "n_txns": 1000,
    },
    # TPC-C at full scale-factor structure: all 10 districts per
    # warehouse with TPC-C-sized customer/item populations
    "tpcc_full_districts": {
        "workload": "tpcc",
        "n_partitions": 2,
        "districts_per_warehouse": 10,
        "customers_per_district": 3000,
        "items": 100_000,
        "n_txns": 96,
    },
}


def _digest(commits: list) -> str:
    return hashlib.sha256(repr(commits).encode("utf-8")).hexdigest()


def _fingerprint(db, report, blocks) -> Dict[str, object]:
    """The simulated observables of a finished run (``now_ns``, commit
    and abort counts, a hash of every commit's completion time) and the
    host work it took (``events_fired``)."""
    commits = [(b.txn_id, b.done_at_ns) for b in blocks
               if getattr(b, "done_at_ns", None) is not None]
    return {
        "events_fired": db.engine.events_fired,
        "now_ns": db.engine.now,
        "committed": report.committed,
        "aborted": report.aborted,
        "commit_hash": _digest(commits),
    }


def _timed_run(db, wl, make_specs, **submit_kw) -> Dict[str, object]:
    """Load ``wl`` into ``db``, then draw ``make_specs()`` and run it to
    the end: the fingerprint plus the load and run host seconds."""
    t0 = time.perf_counter()   # det: allow(wall-clock)
    wl.install(db)
    t_loaded = time.perf_counter()   # det: allow(wall-clock)
    report, blocks = wl.submit_all(db, make_specs(), **submit_kw)
    t_done = time.perf_counter()   # det: allow(wall-clock)
    out = _fingerprint(db, report, blocks)
    out["throughput_tps"] = report.throughput_tps
    out["load_host_seconds"] = t_loaded - t0
    out["run_host_seconds"] = t_done - t_loaded
    out["host_seconds"] = t_done - t0
    return out


def _run_ycsb(params: Dict, seed: int) -> Dict[str, object]:
    from ..core import BionicConfig, BionicDB
    from ..mem.schema import IndexKind
    from ..workloads import YcsbConfig, YcsbWorkload

    cfg = YcsbConfig(
        records_per_partition=int(params["records_per_partition"]),
        n_partitions=int(params["n_workers"]),
        reads_per_txn=int(params.get("reads_per_txn", 16)),
        index_kind=str(params.get("index_kind", IndexKind.HASH)),
        seed=seed)
    db = BionicDB(BionicConfig(n_workers=int(params["n_workers"])))
    wl = YcsbWorkload(cfg)
    make_txns = {"read": wl.make_read_txns,
                 "scan": wl.make_scan_txns,
                 "range": wl.make_range_txns}[str(params.get("op", "read"))]
    return _timed_run(db, wl, lambda: make_txns(int(params["n_txns"])))


def _run_tpcc(params: Dict, seed: int) -> Dict[str, object]:
    from ..core import BionicConfig, BionicDB
    from ..workloads import TpccConfig, TpccWorkload

    cfg = TpccConfig(
        n_partitions=int(params["n_partitions"]),
        districts_per_warehouse=int(params["districts_per_warehouse"]),
        customers_per_district=int(params["customers_per_district"]),
        items=int(params["items"]),
        seed=seed)
    db = BionicDB(BionicConfig(n_workers=int(params["n_partitions"])))
    wl = TpccWorkload(cfg)
    return _timed_run(db, wl, lambda: wl.make_mix(int(params["n_txns"])),
                      retry=True)


_WORKLOADS = {"ycsb": _run_ycsb, "tpcc": _run_tpcc}


def _peak_rss_mb() -> float:
    """This process's lifetime resident high-water mark — the point's
    own peak in a sweep, where each point runs in a fresh child."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (2**20 if sys.platform == "darwin" else 2**10)


def run_point(name: str) -> Dict[str, object]:
    """Execute one registered sweep point (this is the pool task —
    module-level so it pickles by qualified name)."""
    params = POINTS[name]
    seed = _point_seed(name)
    result = _WORKLOADS[str(params["workload"])](params, seed)
    result["peak_rss_mb"] = _peak_rss_mb()
    result["point"] = name
    result["seed"] = seed
    result["params"] = dict(params)
    return result


def run_sweep(names: Optional[List[str]] = None,
              jobs: Optional[int] = None) -> Dict[str, Dict[str, object]]:
    """Run each named point in a child process of its own; dict keyed
    by point.

    ``jobs`` bounds the children running at once, by default one per
    point capped by the host's CPU count.  Results come back in the
    order of ``names`` whatever the completion order, so the merged
    JSON is stable.
    """
    names = list(names) if names is not None else list(POINTS)
    unknown = [n for n in names if n not in POINTS]
    if unknown:
        raise KeyError(f"unknown sweep points: {unknown} "
                       f"(see --list for the registry)")
    jobs = jobs or min(len(names), os.cpu_count() or 1)
    # A child forked from this process starts with its resident set,
    # and a spawned one inherits its high-water mark through exec; one
    # forked from the small fork server does neither, but it needs
    # this registry handed over (with any points added at run time).
    with multiprocessing.get_context("forkserver").Pool(
            jobs, initializer=_register, initargs=(POINTS,),
            maxtasksperchild=1) as pool:
        pending = {name: pool.apply_async(run_point, (name,))
                   for name in names}
        return {name: pending[name].get() for name in names}


def _register(points: Dict[str, Dict[str, object]]) -> None:
    """Pool-child initializer: install the parent's registry."""
    POINTS.update(points)


def host_metadata() -> Dict[str, object]:
    """Host facts stamped next to any timing numbers: absolute rates
    are meaningless without them."""
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "processor": platform.processor() or platform.machine(),
        "cpu_count": os.cpu_count(),
    }


def _merge_into(path: str, sweep_results: Dict[str, Dict]) -> None:
    """Merge sweep results into an existing BENCH_sim.json (or start a
    fresh file), preserving the other sections."""
    data: Dict = {}
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    data.setdefault("sweep", {}).update(sweep_results)
    data["sweep_meta"] = host_metadata()
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
