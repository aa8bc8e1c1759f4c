"""A Silo-style OCC engine — the paper's software comparison system.

Silo [Tu et al., SOSP'13] is a shared-everything in-memory OLTP engine
with optimistic concurrency control: transactions read record TIDs
optimistically, buffer writes, then commit by locking the write set,
re-validating the read set and installing new TIDs.

This implementation is *functional* — real indexes (chained hash,
B+-tree standing in for Masstree, software skiplist), real TID
validation, real aborts — and *timed* by the calibrated Xeon model
(:mod:`repro.baseline.memory_model`).  Worker cores are generators
stepped by the same discrete-event engine as BionicDB
(:meth:`~repro.sim.engine.Engine.follow`), so both systems are
measured on one timeline.  A core runs a body functionally, then
waits out its modelled cost; an exception out of a body leaves
:meth:`SiloEngine.run_transactions` at once.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..sim.clock import ClockDomain
from ..sim.engine import Engine
from ..sim.stats import StatsRegistry
from .bptree import BPlusTree
from .memory_model import XeonModel
from .swskiplist import SoftwareSkiplist

__all__ = ["SiloRecord", "SiloTable", "SiloTxn", "SiloAbort", "SiloEngine",
           "SiloReport", "IndexStructure"]


class SiloAbort(Exception):
    """OCC validation failure; the worker retries the transaction."""


class IndexStructure:
    HASH = "hash"
    MASSTREE = "masstree"
    SKIPLIST = "skiplist"


class SiloRecord:
    __slots__ = ("value", "tid", "locked_by", "deleted")

    def __init__(self, value: Any, tid: int = 0):
        self.value = value
        self.tid = tid
        self.locked_by: Optional[int] = None
        self.deleted = False


class SiloTable:
    """One table: a concurrent index mapping key -> SiloRecord."""

    def __init__(self, table_id: int, name: str,
                 structure: str = IndexStructure.MASSTREE,
                 row_bytes: int = 100, expected_rows: int = 1 << 16):
        self.table_id = table_id
        self.name = name
        self.structure = structure
        self.row_bytes = row_bytes
        self.expected_rows = expected_rows
        if structure == IndexStructure.HASH:
            self._index: Any = {}
        elif structure == IndexStructure.MASSTREE:
            self._index = BPlusTree()
        elif structure == IndexStructure.SKIPLIST:
            self._index = SoftwareSkiplist()
        else:
            raise ValueError(f"unknown index structure {structure!r}")

    def __len__(self) -> int:
        return len(self._index)

    # -- functional operations -------------------------------------------
    def get_record(self, key) -> Optional[SiloRecord]:
        return self._index.get(key)

    def install(self, key, record: SiloRecord) -> bool:
        if self.structure == IndexStructure.HASH:
            if key in self._index:
                return False
            self._index[key] = record
            return True
        return self._index.insert(key, record)

    def scan_records(self, key, count: int) -> List[Tuple[Any, SiloRecord]]:
        if self.structure == IndexStructure.HASH:
            raise TypeError("hash tables do not support scans")
        return self._index.scan_from(key, count)

    # -- cost model hooks ---------------------------------------------------
    def working_set_bytes(self) -> int:
        n = max(len(self._index), self.expected_rows)
        return n * (self.row_bytes + 64)  # row + index node amortisation

    def probe_lines(self, key=None) -> int:
        """Dependent line touches for one point probe.

        Tree depth is taken at the *modelled* row count (``expected_rows``
        is pinned to paper scale) so scaled-down functional trees still
        price like full-size ones.
        """
        if self.structure == IndexStructure.HASH:
            return 2                      # bucket + record header
        if self.structure == IndexStructure.MASSTREE:
            import math
            model_depth = max(1, math.ceil(
                math.log(max(2, self.expected_rows), self._index.fanout)))
            return max(self._index.depth, model_depth) + 1
        # skiplist: the actual search path for this key
        hops = self._index.search_path_length(key) if key is not None else 24
        return max(2, hops // 2)          # two towers per line on average


@dataclass
class SiloReport:
    committed: int
    aborted: int
    elapsed_ns: float

    @property
    def throughput_tps(self) -> float:
        return self.committed / (self.elapsed_ns * 1e-9) if self.elapsed_ns else 0.0


class SiloTxn:
    """One transaction attempt: optimistic reads, buffered writes."""

    _tid_counter = itertools.count(1)

    def __init__(self, silo: "SiloEngine", worker_id: int):
        self.silo = silo
        self.model = silo.model
        self.worker_id = worker_id
        self.read_set: List[Tuple[SiloRecord, int]] = []
        self.write_set: List[Tuple[SiloTable, Any, Optional[SiloRecord], Any, bool]] = []
        self.cost_ns = self.model.txn_overhead_ns

    # -- operations (functional + cost accumulation) ----------------------
    def read(self, table: SiloTable, key, copy_payload: bool = True) -> Any:
        self.cost_ns += self.model.op_overhead_ns
        self.cost_ns += self.model.random_lines_ns(
            table.probe_lines(key), table.working_set_bytes())
        record = table.get_record(key)
        if record is None or record.deleted:
            return None
        if record.locked_by is not None and record.locked_by != self.worker_id:
            raise SiloAbort("read of write-locked record")
        self.read_set.append((record, record.tid))
        if copy_payload:
            self.cost_ns += self.model.payload_ns(table.row_bytes)
        # an uncommitted overwrite by ourselves?
        for wtable, wkey, wrec, wvalue, _ins in self.write_set:
            if wrec is record:
                return wvalue
        return record.value

    def write(self, table: SiloTable, key, value) -> bool:
        self.cost_ns += self.model.op_overhead_ns
        self.cost_ns += self.model.random_lines_ns(
            table.probe_lines(key), table.working_set_bytes())
        record = table.get_record(key)
        if record is None or record.deleted:
            return False
        self.read_set.append((record, record.tid))
        self.write_set.append((table, key, record, value, False))
        return True

    def insert(self, table: SiloTable, key, value) -> None:
        self.cost_ns += self.model.op_overhead_ns
        self.cost_ns += self.model.random_lines_ns(
            table.probe_lines(key) + 1, table.working_set_bytes())
        self.write_set.append((table, key, None, value, True))

    def scan(self, table: SiloTable, key, count: int) -> List[Any]:
        self.cost_ns += self.model.op_overhead_ns
        self.cost_ns += self.model.random_lines_ns(
            table.probe_lines(key), table.working_set_bytes())
        pairs = table.scan_records(key, count)
        out = []
        streamed = table.structure == IndexStructure.SKIPLIST
        for _k, record in pairs:
            if record.deleted:
                continue
            if record.locked_by is not None and record.locked_by != self.worker_id:
                raise SiloAbort("scan crossed a locked record")
            self.read_set.append((record, record.tid))
            self.cost_ns += self.model.validate_entry_ns
            if streamed:
                # sequential bottom-level nodes + payload stream
                self.cost_ns += self.model.payload_ns(
                    table.row_bytes + 32, streamed=True)
            else:
                # leaf hop amortised + random payload copy
                self.cost_ns += self.model.line_ns(table.working_set_bytes()) * 0.3
                self.cost_ns += self.model.payload_ns(table.row_bytes)
            out.append(record.value)
        return out

    # -- commit protocol (Silo §3: lock, validate, install) --------------------
    def lock_and_validate(self) -> None:
        """Phase 1 + 2.  Raises :class:`SiloAbort` (after releasing any
        locks taken) on conflict; on success the write set stays locked
        until :meth:`install_and_unlock`."""
        model = self.model
        self._locked: List[SiloRecord] = []
        try:
            # a global lock order that is the same in every process
            for _table, _key, record, _value, is_insert in sorted(
                    self.write_set,
                    key=lambda e: (e[0].table_id, repr(e[1]))):
                if is_insert:
                    continue
                if record.locked_by is not None and record.locked_by != self.worker_id:
                    raise SiloAbort("write-lock conflict")
                if record.locked_by is None:
                    record.locked_by = self.worker_id
                    self._locked.append(record)
                self.cost_ns += model.l3_ns  # CAS on the TID word
            for record, seen_tid in self.read_set:
                self.cost_ns += model.validate_entry_ns
                if record.tid != seen_tid:
                    raise SiloAbort("read-set TID changed")
                if record.locked_by is not None and record.locked_by != self.worker_id:
                    raise SiloAbort("read-set record locked")
        except SiloAbort:
            self.release_locks()
            raise

    def install_and_unlock(self) -> None:
        """Phase 3: install new TIDs and values, then unlock."""
        model = self.model
        try:
            tid = next(self._tid_counter)
            for table, key, record, value, is_insert in self.write_set:
                if is_insert:
                    new = SiloRecord(value, tid)
                    if not table.install(key, new):
                        raise SiloAbort("duplicate insert")
                    self.cost_ns += model.line_ns(table.working_set_bytes())
                else:
                    record.value = value
                    record.tid = tid
                    self.cost_ns += model.payload_ns(table.row_bytes) * 0.5
        finally:
            self.release_locks()

    def release_locks(self) -> None:
        for record in getattr(self, "_locked", []):
            if record.locked_by == self.worker_id:
                record.locked_by = None
        self._locked = []


class SiloEngine:
    """N worker cores over shared tables, inside a DES."""

    def __init__(self, n_cores: int, stats: Optional[StatsRegistry] = None):
        if n_cores < 1:
            raise ValueError("n_cores must be >= 1")
        self.n_cores = n_cores
        self.model = XeonModel(active_cores=n_cores)
        self.engine = Engine()
        self.clock = ClockDomain(self.engine, self.model.freq_ghz * 1000.0,
                                 name="xeon")
        self.stats = stats or StatsRegistry()
        self.tables: Dict[int, SiloTable] = {}
        self._committed = self.stats.counter("silo.committed")
        self._aborted = self.stats.counter("silo.aborted")

    # -- schema / loading ----------------------------------------------------
    def create_table(self, table: SiloTable) -> SiloTable:
        if table.table_id in self.tables:
            raise ValueError(f"duplicate table {table.table_id}")
        self.tables[table.table_id] = table
        return table

    def load(self, table_id: int, key, value) -> None:
        table = self.tables[table_id]
        if not table.install(key, SiloRecord(value)):
            raise ValueError(f"duplicate key {key!r} in load")

    # -- execution ----------------------------------------------------------
    def run_transactions(self, bodies: Sequence[Callable[[SiloTxn], None]],
                         max_retries: int = 100) -> SiloReport:
        """Execute transaction bodies across the cores; each body is a
        callable taking a :class:`SiloTxn` and issuing operations."""
        queue = deque(bodies)
        start_committed = self._committed.value
        start_aborted = self._aborted.value
        start_ns = self.engine.now

        def worker(worker_id: int):
            while queue:
                body = queue.popleft()
                for _attempt in range(max_retries):
                    txn = SiloTxn(self, worker_id)
                    try:
                        body(txn)                       # functional execution
                    except SiloAbort:
                        self._aborted.add()
                        yield txn.cost_ns
                        continue
                    yield txn.cost_ns                       # execution time
                    pre = txn.cost_ns
                    try:
                        txn.lock_and_validate()
                    except SiloAbort:
                        self._aborted.add()
                        yield txn.cost_ns - pre
                        continue
                    # hold the locks for the validate/install window
                    yield txn.cost_ns - pre
                    try:
                        txn.install_and_unlock()
                    except SiloAbort:
                        self._aborted.add()
                        continue
                    self._committed.add()
                    break
                else:
                    raise RuntimeError("transaction exceeded retry budget")

        for c in range(self.n_cores):
            self.engine.start(worker(c))
        self.engine.run()
        return SiloReport(
            committed=self._committed.value - start_committed,
            aborted=self._aborted.value - start_aborted,
            elapsed_ns=self.engine.now - start_ns,
        )
