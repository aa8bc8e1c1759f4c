"""YCSB workload (§5.3).

The paper's YCSB transaction issues 16 independent DB accesses with no
data dependency over a table of 8-byte integer keys and 1 KB payloads,
300 K records per partition.  YCSB-C is read-only; YCSB-E was modified
to be scan-only with a fixed range of 50 records; YCSB-B was omitted
(results matched C).  Keys are partitioned by range: partition
``key // records_per_partition``.

This module provides schemas, stored procedures (in the BionicDB ISA)
and transaction generators.  The same :class:`TxnSpec` descriptors
drive the software baseline so comparisons run identical request
streams.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

from ..core.system import BionicDB
from ..errors import WorkloadError
from ..isa.builder import ProcedureBuilder
from ..isa.instructions import Gp, Program
from ..mem.schema import IndexKind, TableSchema
from ..mem.txnblock import BlockLayout
from .zipf import ScrambledZipfianGenerator, UniformGenerator

__all__ = ["YcsbConfig", "TxnSpec", "YcsbWorkload",
           "YCSB_TABLE", "PROC_READ_BASE", "PROC_SCAN", "PROC_RANGE",
           "PROC_RMW_BASE", "PROC_MIX_BASE", "ycsb_columns"]

YCSB_TABLE = 0
#: proc id for an N-read transaction is PROC_READ_BASE + N
PROC_READ_BASE = 100
PROC_RMW_BASE = 300
PROC_SCAN = 200
PROC_RANGE = 201
#: proc id for a mixed transaction is PROC_MIX_BASE + n_updates
#: (total accesses fixed by the config)
PROC_MIX_BASE = 500


@dataclass(frozen=True)
class TxnSpec:
    """One generated transaction: shared by BionicDB and the baseline."""

    proc_id: int
    inputs: tuple
    home: int
    kind: str            # "read" | "scan" | "rmw"
    keys: tuple          # the accessed keys (baseline executes these)


@dataclass
class YcsbConfig:
    records_per_partition: int = 30_000   # paper: 300 K (scaled knob)
    n_partitions: int = 4
    reads_per_txn: int = 16
    scan_length: int = 50                 # paper's modified YCSB-E
    payload: str = "x" * 64               # stands in for the 1 KB row
    index_kind: str = IndexKind.HASH      # YCSB-E uses SKIPLIST
    zipfian: bool = False                 # paper's multisite runs are uniform
    remote_fraction: float = 0.0          # Figure 13: 0.75
    seed: int = 42

    def __post_init__(self):
        for name in ("records_per_partition", "n_partitions",
                     "reads_per_txn", "scan_length"):
            if getattr(self, name) < 1:
                raise WorkloadError(f"{name} must be >= 1",
                                    **{name: getattr(self, name)})
        if not 0.0 <= self.remote_fraction <= 1.0:
            raise WorkloadError("remote_fraction must be in [0, 1]",
                                remote_fraction=self.remote_fraction)
        if self.index_kind not in (IndexKind.HASH, IndexKind.SKIPLIST,
                                   IndexKind.BPTREE):
            raise WorkloadError(f"unknown index kind {self.index_kind!r}")

    @property
    def total_records(self) -> int:
        return self.records_per_partition * self.n_partitions


def ycsb_columns(cfg: YcsbConfig) -> Iterator[Tuple[int, Sequence, list]]:
    """The initial population as ``(table_id, keys, fields)`` columns,
    the one both BionicDB's loader and the Silo baseline's install.

    Row order (and so heap addresses) matches per-row ``db.load``
    exactly.  Every row offers the same one-field tuple: immutable, so
    a loader may keep it, and the hash loader keeps just this one until
    a row is read.  The columns are built when the loader asks and
    dropped with its last row, so the closing collection has no
    million-slot list to walk."""
    total = cfg.total_records
    yield YCSB_TABLE, range(total), [(cfg.payload,)] * total


class YcsbWorkload:
    """Installs YCSB on a BionicDB and generates transaction streams."""

    def __init__(self, config: Optional[YcsbConfig] = None):
        self.config = config or YcsbConfig()
        self._rng = random.Random(self.config.seed)
        if self.config.zipfian:
            self._keygen = ScrambledZipfianGenerator(
                self.config.total_records, seed=self.config.seed)
        else:
            self._keygen = UniformGenerator(
                self.config.total_records, seed=self.config.seed)

    # -- schema ------------------------------------------------------------
    def schema(self) -> TableSchema:
        cfg = self.config
        per_part = cfg.records_per_partition

        def partition_fn(key, n_partitions):
            return min(key // per_part, n_partitions - 1)

        buckets = 1 << max(8, (per_part * 2 - 1).bit_length())
        return TableSchema(YCSB_TABLE, "usertable",
                           index_kind=cfg.index_kind,
                           n_fields=1, hash_buckets=buckets,
                           partition_fn=partition_fn,
                           range_partitioned=True)

    # -- stored procedures -----------------------------------------------------
    @staticmethod
    def read_procedure(n_reads: int) -> Program:
        """N independent SEARCHes; the commit handler collects each
        result and publishes the tuple address to the output buffer."""
        b = ProcedureBuilder(f"ycsb_read_{n_reads}")
        for i in range(n_reads):
            b.search(cp=i, table=YCSB_TABLE, key=b.at(i))
        b.commit_handler()
        for i in range(n_reads):
            b.ret(0, i)
            b.store(Gp(0), b.at(n_reads + i))
        b.commit()
        return b.build()

    @staticmethod
    def rmw_procedure(n_ops: int) -> Program:
        """Read-modify-write variant (used by extension benches)."""
        b = ProcedureBuilder(f"ycsb_rmw_{n_ops}")
        for i in range(n_ops):
            b.update(cp=i, table=YCSB_TABLE, key=b.at(i))
        b.commit_handler()
        for i in range(n_ops):
            b.ret(0, i)
            b.load(1, b.at(n_ops + i))
            b.wrfield(0, 0, Gp(1))
        b.commit()
        return b.build()

    @staticmethod
    def mixed_procedure(n_reads: int, n_updates: int) -> Program:
        """YCSB-A/B style transaction: reads then UNDO-logged updates.

        Input layout: keys at @0..@total-1 (reads first), new values at
        @total..@total+n_updates-1; outputs follow.
        """
        total = n_reads + n_updates
        b = ProcedureBuilder(f"ycsb_mix_{n_reads}r{n_updates}u")
        for i in range(n_reads):
            b.search(cp=i, table=YCSB_TABLE, key=b.at(i))
        for j in range(n_updates):
            b.update(cp=n_reads + j, table=YCSB_TABLE, key=b.at(n_reads + j))
        b.commit_handler()
        for i in range(n_reads):
            b.ret(0, i)
            b.store(Gp(0), b.at(total + n_updates + i))
        for j in range(n_updates):
            b.ret(0, n_reads + j)
            b.load(1, b.at(total + j))
            b.wrfield(0, 0, Gp(1))
        b.commit()
        return b.build()

    @staticmethod
    def scan_procedure(scan_length: int, layout: BlockLayout) -> Program:
        """The modified YCSB-E transaction: one fixed-length scan."""
        b = ProcedureBuilder(f"ycsb_scan_{scan_length}")
        b.scan(cp=0, table=YCSB_TABLE, key=b.at(0), count=scan_length,
               out=b.at(layout.scan))
        b.commit_handler()
        b.ret(0, 0)
        b.store(Gp(0), b.at(layout.out))  # publish the collected count
        b.commit()
        return b.build()

    @staticmethod
    def range_procedure(scan_length: int, layout: BlockLayout) -> Program:
        """YCSB-E with an explicit high key: scan [lo, hi] bounded by
        both the key range and a count limit (skiplist or B+ tree)."""
        b = ProcedureBuilder(f"ycsb_range_{scan_length}")
        b.range_scan(cp=0, table=YCSB_TABLE, lo=b.at(0), hi=b.at(1),
                     count=scan_length, out=b.at(layout.scan))
        b.commit_handler()
        b.ret(0, 0)
        b.store(Gp(0), b.at(layout.out))  # publish the collected count
        b.commit()
        return b.build()

    # -- installation -------------------------------------------------------------
    def install(self, db: BionicDB, procedures: Sequence[int] = (),
                load_data: bool = True) -> None:
        """Define the table, register procedures, bulk-load all rows.

        ``load_data=False`` installs schema and procedures only — the
        recovery path, where data comes from a checkpoint image."""
        cfg = self.config
        if db.total_workers != cfg.n_partitions:
            raise ValueError("workload partitions must match db workers")
        db.define_table(self.schema())
        sizes = sorted(set(procedures) or {cfg.reads_per_txn})
        for n in sizes:
            db.register_procedure(PROC_READ_BASE + n, self.read_procedure(n))
            db.register_procedure(PROC_RMW_BASE + n, self.rmw_procedure(n))
        db.register_procedure(
            PROC_SCAN, self.scan_procedure(cfg.scan_length, self.scan_layout()))
        if cfg.index_kind != IndexKind.HASH:
            db.register_procedure(
                PROC_RANGE,
                self.range_procedure(cfg.scan_length, self.range_layout()))
        if not load_data:
            return
        db.load_many(columns=ycsb_columns(cfg))

    # -- block layouts -----------------------------------------------------------
    def read_layout(self, n_reads: Optional[int] = None) -> BlockLayout:
        n = n_reads or self.config.reads_per_txn
        return BlockLayout(n_inputs=n, n_outputs=n, n_scratch=2,
                           n_undo=max(4, n), n_scan=4)

    def scan_layout(self) -> BlockLayout:
        # @0 start key, @1 count out; scan buffer directly after
        return BlockLayout(n_inputs=1, n_outputs=1, n_scratch=0, n_undo=2,
                           n_scan=self.config.scan_length + 14)

    def range_layout(self) -> BlockLayout:
        # @0 low key, @1 high key, @2 count out; scan buffer after
        return BlockLayout(n_inputs=2, n_outputs=1, n_scratch=0, n_undo=2,
                           n_scan=self.config.scan_length + 14)

    # -- transaction generators -----------------------------------------------------
    def _pick_key(self, home: int) -> int:
        cfg = self.config
        if cfg.remote_fraction > 0 and self._rng.random() < cfg.remote_fraction:
            # any key outside the home partition (multisite access)
            while True:
                key = self._keygen.next()
                if key // cfg.records_per_partition != home:
                    return key
        lo = home * cfg.records_per_partition
        return lo + self._keygen.next() % cfg.records_per_partition

    def make_read_txns(self, n_txns: int,
                       reads_per_txn: Optional[int] = None) -> List[TxnSpec]:
        cfg = self.config
        n_reads = reads_per_txn or cfg.reads_per_txn
        out = []
        for t in range(n_txns):
            home = t % cfg.n_partitions
            keys = tuple(self._pick_key(home) for _ in range(n_reads))
            out.append(TxnSpec(proc_id=PROC_READ_BASE + n_reads, inputs=keys,
                               home=home, kind="read", keys=keys))
        return out

    def make_rmw_txns(self, n_txns: int,
                      ops_per_txn: Optional[int] = None) -> List[TxnSpec]:
        cfg = self.config
        n_ops = ops_per_txn or cfg.reads_per_txn
        out = []
        for t in range(n_txns):
            home = t % cfg.n_partitions
            # distinct keys: a txn must not touch its own dirty writes
            keys = set()
            while len(keys) < n_ops:
                keys.add(self._pick_key(home))
            keys = tuple(keys)
            inputs = keys + tuple(f"v{t}_{i}" for i in range(n_ops))
            out.append(TxnSpec(proc_id=PROC_RMW_BASE + n_ops, inputs=inputs,
                               home=home, kind="rmw", keys=keys))
        return out

    def make_mixed_txns(self, n_txns: int, update_fraction: float,
                        install_into=None) -> List[TxnSpec]:
        """YCSB-A (update_fraction=0.5) / YCSB-B (0.05) style mixes.

        The per-transaction composition is fixed at
        ``round(total * update_fraction)`` updates; pass a BionicDB as
        ``install_into`` to auto-register the needed procedure.
        """
        cfg = self.config
        total = cfg.reads_per_txn
        n_upd = max(0, min(total, round(total * update_fraction)))
        n_reads = total - n_upd
        proc_id = PROC_MIX_BASE + n_upd
        if install_into is not None and proc_id not in install_into.catalogue:
            install_into.register_procedure(
                proc_id, self.mixed_procedure(n_reads, n_upd))
        out = []
        for t in range(n_txns):
            home = t % cfg.n_partitions
            keys = set()
            while len(keys) < total:
                keys.add(self._pick_key(home))
            keys = tuple(keys)
            values = tuple(f"u{t}_{j}" for j in range(n_upd))
            out.append(TxnSpec(proc_id=proc_id, inputs=keys + values,
                               home=home, kind="mix", keys=keys))
        return out

    def mixed_layout(self) -> BlockLayout:
        total = self.config.reads_per_txn
        return BlockLayout(n_inputs=2 * total, n_outputs=total,
                           n_scratch=2, n_undo=total + 2, n_scan=2)

    def make_scan_txns(self, n_txns: int) -> List[TxnSpec]:
        cfg = self.config
        out = []
        for t in range(n_txns):
            home = t % cfg.n_partitions
            lo = home * cfg.records_per_partition
            # keep the whole range inside the partition
            start = lo + self._rng.randrange(
                max(1, cfg.records_per_partition - cfg.scan_length))
            out.append(TxnSpec(proc_id=PROC_SCAN, inputs=(start,),
                               home=home, kind="scan", keys=(start,)))
        return out

    def make_range_txns(self, n_txns: int,
                        span: Optional[int] = None) -> List[TxnSpec]:
        """RANGE_SCAN transactions over [start, start + span - 1], the
        whole range inside the home partition (span defaults to the
        configured scan length)."""
        cfg = self.config
        width = span or cfg.scan_length
        out = []
        for t in range(n_txns):
            home = t % cfg.n_partitions
            lo = home * cfg.records_per_partition
            start = lo + self._rng.randrange(
                max(1, cfg.records_per_partition - width))
            hi = start + width - 1
            out.append(TxnSpec(proc_id=PROC_RANGE, inputs=(start, hi),
                               home=home, kind="range", keys=(start, hi)))
        return out

    # -- submission helper --------------------------------------------------------
    def layout_for(self, spec: TxnSpec) -> BlockLayout:
        """The block layout one generated transaction needs."""
        if spec.kind == "scan":
            return self.scan_layout()
        if spec.kind == "range":
            return self.range_layout()
        if spec.kind == "mix":
            return self.mixed_layout()
        return self.read_layout(len(spec.keys))

    def submit_all(self, db: BionicDB, specs: Sequence[TxnSpec]):
        blocks, homes = [], []
        for spec in specs:
            blocks.append(db.new_block(spec.proc_id, list(spec.inputs),
                                       layout=self.layout_for(spec),
                                       worker=spec.home))
            homes.append(spec.home)
        return db.run_all(blocks, workers=homes), blocks
