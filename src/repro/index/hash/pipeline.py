"""The hardware hash index pipeline (§4.4.1, Figure 5a).

Stage graph::

    KeyFetch --> Hash --+--> Install                      (INSERT path)
                        +--> HeadFetch --> KeyComp --> Traverse*
                                           (SEARCH / UPDATE / REMOVE path)

Stages (:class:`~repro.index.common.PipelineBase`'s) issue memory
requests *designating the next stage as the destination* and take the
next instruction, so index operations overlap in flight.  Traverse
follows hash-conflict chains, the only internal memory stall; several
can balance the dataflow under frequent conflicts (§4.4.1).  Stalls
against a BRAM lock table prevent the insert-after-insert and
search-after-insert hazards (Figure 6b); ``hazard_prevention=False``
reproduces the lost-update anomaly of Figure 6a.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import partial
from itertools import cycle
from typing import Any, List, Optional, Tuple

from ...isa.instructions import Opcode
from ...mem.records import NULL_ADDR, TupleRecord
from ...sim.memory import ColdRows
from ...txn.cc import DbResult, ResultCode
from ..common import (
    _MASK64, _P1, _P2, _P3, _P4, _P5, _P6, _P7,
    DbRequest, IndexError_, PipelineBase, key_column, sdbm_hash,
)
from ..locks import LockTable

__all__ = ["HashTimings", "HashIndexPipeline"]

#: stage slots; Traverse stage ``k`` is slot ``_TRAVERSE + k``
_KEYFETCH, _HASH, _INSTALL, _HEADFETCH, _KEYCOMP, _TRAVERSE = range(6)


@dataclass(frozen=True)
class HashTimings:
    """Per-stage service times in FPGA cycles."""

    keyfetch: float = 2.0
    hash: float = 12.0      # byte-serial Sdbm over the key + bucket address
    headfetch: float = 2.0
    keycomp: float = 16.0   # byte-serial compare + visibility check
    install: float = 10.0
    traverse_hop: float = 4.0


class HashIndexPipeline(PipelineBase):
    """One partition's hash index coprocessor."""

    trace_category = "hash"
    issue_intervals = (24.0, 28.0)

    def __init__(self, engine, clock, dram, name: str, n_buckets: int = 0,
                 n_traverse_stages: int = 1,
                 hazard_prevention: bool = True, **kw):
        if n_buckets < 0:
            raise ValueError("n_buckets must be >= 0")
        if n_traverse_stages < 1:
            raise ValueError("need at least one Traverse stage")
        self.timings = HashTimings()
        self.n_traverse_stages = n_traverse_stages
        self.hazard_prevention = hazard_prevention
        super().__init__(engine, clock, dram, name, **kw)
        self.locks = LockTable(engine)
        self.tuple_count = 0
        if n_buckets:
            # single-table convenience (used heavily by unit tests)
            self.add_table(0, n_buckets)

    def add_table(self, table_id: int, n_buckets: int) -> None:
        """Give a table its own bucket array: one coprocessor serves
        every hash table of its partition."""
        if n_buckets < 1:
            raise ValueError("n_buckets must be >= 1")
        if table_id in self._tables:
            raise ValueError(f"table {table_id} already registered")
        self._tables[table_id] = (self.dram.heap.alloc(n_buckets), n_buckets)

    # -- stages ------------------------------------------------------------
    def _build(self) -> None:
        t = self.timings
        for body, cycles in ((self._keyfetch, t.keyfetch), (self._hash, t.hash),
                             (self._install, t.install),
                             (self._headfetch, t.headfetch),
                             (self._keycomp, t.keycomp)):
            self._stage(body, cycles)
        n = self.n_traverse_stages
        for k in range(n):
            self._stage(partial(self._traverse, _TRAVERSE + k), t.traverse_hop)
        self._traverse_rr = cycle(range(_TRAVERSE, _TRAVERSE + n))
        # destinations of the KeyFetch stage and of the bucket-head read
        self._to_hash = partial(self._put, _HASH)
        self._to_install = partial(self._put, _INSTALL)
        self._to_headfetch = partial(self._put, _HEADFETCH)

    def _enter(self, req: DbRequest) -> None:
        self._put(_KEYFETCH, req)

    # -- stage 1: KeyFetch ------------------------------------------------
    def _keyfetch(self, req: DbRequest) -> None:
        if req.op in (Opcode.SCAN, Opcode.RANGE_SCAN):
            raise IndexError_(f"{req.op.value} dispatched to a hash index")
        # fetch the block's cells, designating the Hash stage
        if self._resolve(req, self._to_hash, req):
            self._put(_HASH, req)
        self._next(_KEYFETCH)

    # -- stage 2: Hash ---------------------------------------------------
    def bucket_addr_of(self, key: Any, table_id: int = 0) -> int:
        base, n_buckets = self._table(table_id)
        return base + sdbm_hash(key) % n_buckets

    def _hash(self, req: DbRequest) -> None:
        bucket_addr = self.bucket_addr_of(req.key, req.table_id)
        req._bucket_addr = bucket_addr
        if self.hazard_prevention:
            # a stalled instruction holds the Hash stage (pipeline stall)
            # until the lock hand-over or release resumes it
            if req.op is Opcode.INSERT:
                if not self.locks.acquire(bucket_addr, self._hash_issue, req):
                    return
            elif not self.locks.wait_clear(bucket_addr, self._hash_issue, req):
                return
        self._hash_issue(req)

    def _hash_issue(self, req: DbRequest) -> None:
        """Read the bucket head, designating Install or HeadFetch."""
        dest = self._to_install if req.op is Opcode.INSERT else self._to_headfetch
        self.read_port.read_cb(req._bucket_addr, dest, req)
        self._next(_HASH)

    # -- stage 3a: Install (INSERT path) ------------------------------------
    def _install(self, item: tuple) -> None:
        req, head_addr = item
        addr = self.dram.heap.alloc()
        record = TupleRecord(key=req.key, fields=list(req.insert_payload or []),
                             addr=addr, next_addr=head_addr or NULL_ADDR,
                             read_ts=req.ts, write_ts=req.ts, dirty=True)
        self.write_port.post_write(addr, record)
        self.write_port.write_cb(req._bucket_addr, addr, self._install_done,
                                 (req, addr))
        self.tuple_count += 1
        self._next(_INSTALL)

    def _install_done(self, arg: tuple) -> None:
        (req, addr), _ = arg
        # The lock may only clear once the new head pointer is visible in
        # DRAM, otherwise a stalled reader could still load the stale head.
        if self.hazard_prevention:
            self.locks.release(req._bucket_addr)
        self._done(req, DbResult(ResultCode.OK, tuple_addr=addr))

    # -- stage 3b: HeadFetch -----------------------------------------------
    def _headfetch(self, item: tuple) -> None:
        req, head_addr = item
        if not head_addr:
            self._done(req, DbResult(ResultCode.NOT_FOUND))
        else:
            self.read_port.read_cb(head_addr, self._head_read_done,
                                   (req, head_addr))
        self._next(_HEADFETCH)

    def _head_read_done(self, arg: tuple) -> None:
        (req, addr), record = arg
        self._put(_KEYCOMP, (req, addr, record))

    # -- stage 4: KeyComp -----------------------------------------------------
    def _keycomp(self, item: tuple) -> None:
        req, addr, record = item
        if self._matches(req, record):
            self._finish_point(req, addr, record)
        else:
            self._put(next(self._traverse_rr), (req, record))
        self._next(_KEYCOMP)

    # -- stage 5: Traverse ------------------------------------------------------
    def _traverse(self, stage: int, item: tuple) -> None:
        """Follow the chain, holding the item across its memory stalls."""
        req, record = item
        next_addr = record.next_addr if record is not None else NULL_ADDR
        if not next_addr:
            self._done(req, DbResult(ResultCode.NOT_FOUND))
            self._next(stage)
        else:
            self.read_port.read_cb(next_addr, self._traverse_read,
                                   (stage, req, next_addr))

    def _traverse_read(self, arg: tuple) -> None:
        (stage, req, addr), record = arg
        if self._matches(req, record):
            self._finish_point(req, addr, record)
            self._next(stage)
        else:
            # next hop of the chain: the stage keeps its item
            self._after(self._delay[stage], self._body[stage], (req, record))

    # -- terminal behaviour ---------------------------------------------------
    @staticmethod
    def _matches(req: DbRequest, record: Optional[TupleRecord]) -> bool:
        """Key match; committed tombstones are skipped (deleted), but a
        dirty tombstone (in-flight REMOVE) must reach the visibility
        check so the access is blindly rejected per §4.7."""
        return (record is not None and record.key == req.key
                and not (record.tombstone and not record.dirty))

    # -- host-side helpers (timing-free; loading & verification) -----------
    def bulk_load(self, key: Any, fields: List[Any], ts: int = 0,
                  table_id: int = 0) -> int:
        """Install a committed tuple without consuming simulated time."""
        heap = self.dram.heap
        bucket_addr = self.bucket_addr_of(key, table_id)
        addr = heap.alloc()
        record = TupleRecord(key=key, fields=list(fields), addr=addr,
                             next_addr=heap.load(bucket_addr) or NULL_ADDR,
                             read_ts=ts, write_ts=ts, dirty=False)
        heap.store(addr, record)
        heap.store(bucket_addr, addr)
        self.tuple_count += 1
        return addr

    def _load(self, keys, fields, ts: int, table: tuple) -> Tuple[int, int]:
        """Batched :meth:`bulk_load`: identical rows, chains and heap
        addresses, with the per-row dispatch hoisted and no record
        built — the batch is the columns of one
        :class:`~repro.sim.memory.ColdRows`, whose rows the heap builds
        on first touch."""
        heap = self.dram.heap
        base, n_buckets = table
        n_rows = len(keys)
        if not n_rows:
            return 0, NULL_ADDR
        cold = ColdRows(TupleRecord.from_hash_batch, heap.alloc(n_rows), ts)
        cold.nexts = array("q")
        try:
            # a snapshot per row; a tuple offered for many rows is kept once
            cold.fields.extend(map(tuple, fields))
        finally:
            # on an error, the rows whose fields were taken go in
            if len(cold) < n_rows:
                keys = keys[:len(cold)]
            # the one place outside Heap that indexes its cell list: only
            # this table's buckets, and load()/store() cost +0.2 us a row
            cells = heap._cells
            add_next = cold.nexts.append
            cold.keys = key_column(keys)
            if type(cold.keys) is array:
                # _sdbm_int8 with the upper seven bytes' terms carried while
                # they do not change: one multiply instead of seven
                upper, carried = -1, 0
                for addr, key in enumerate(cold.keys, cold.base):
                    if key >> 8 != upper:
                        upper = key >> 8
                        carried = ((upper & 0xFF) * _P6
                                   + (upper >> 8 & 0xFF) * _P5
                                   + (upper >> 16 & 0xFF) * _P4
                                   + (upper >> 24 & 0xFF) * _P3
                                   + (upper >> 32 & 0xFF) * _P2
                                   + (upper >> 40 & 0xFF) * _P1
                                   + (upper >> 48))
                    h = carried + (key & 0xFF) * _P7 & _MASK64
                    h ^= h >> 33
                    bucket = base + (h ^ h >> 17) % n_buckets
                    add_next(cells[bucket] or NULL_ADDR)
                    cells[bucket] = addr
            else:
                for addr, key in enumerate(cold.keys, cold.base):
                    bucket = base + sdbm_hash(key) % n_buckets
                    add_next(cells[bucket] or NULL_ADDR)
                    cells[bucket] = addr
            heap.place_cold(cold)
            self.tuple_count += len(cold)
        return n_rows, cold.base + n_rows - 1

    def _chain(self, bucket_addr: int):
        """Yield ``(addr, record)`` along a bucket's chain, head first."""
        load = self.dram.heap.load
        addr = load(bucket_addr)
        while addr:
            record = load(addr)
            if record is None:
                return
            yield addr, record
            addr = record.next_addr

    def _records(self, table_id: int = 0):
        """``(key, record)`` of the newest version of every key (the one
        closest to its chain's head), bucket by bucket."""
        base, n_buckets = self._table(table_id)
        for bucket in range(base, base + n_buckets):
            seen = set()
            for _addr, record in self._chain(bucket):
                if record.key not in seen:
                    seen.add(record.key)
                    yield record.key, record

    def lookup_direct(self, key: Any, table_id: int = 0) -> Optional[TupleRecord]:
        """Timing-free probe used by tests and recovery verification."""
        for _addr, record in self._chain(self.bucket_addr_of(key, table_id)):
            if record.key == key and not record.tombstone:
                return record
        return None

    def chain_length(self, key: Any, table_id: int = 0) -> int:
        return sum(1 for _ in self._chain(self.bucket_addr_of(key, table_id)))
