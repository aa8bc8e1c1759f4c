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
from functools import partial
from itertools import cycle
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ...isa.instructions import Opcode
from ...mem.records import NULL_ADDR, TupleRecord
from ...sim.memory import ColdRows
from ...txn.cc import DbResult, ResultCode
from ..common import (
    _MASK64, _P1, _P2, _P3, _P4, _P5, _P6, _P7,
    DbRequest, IndexError_, PipelineBase, key_column, sdbm_hash,
)
from ..locks import LockTable

__all__ = ["HashIndexPipeline", "load_replicated"]

#: stage slots; Traverse stage ``k`` is slot ``_TRAVERSE + k``
_KEYFETCH, _HASH, _INSTALL, _HEADFETCH, _KEYCOMP, _TRAVERSE = range(6)


def _bucket_offsets(keys, n_buckets: int) -> Iterator[int]:
    """Yield ``sdbm_hash(key) % n_buckets`` for each key of a batch's
    key column, in order.  An ``array('q')`` column is hashed as
    ``_sdbm_int8`` with the upper seven bytes' terms carried while they
    do not change: one multiply a key instead of seven.  (Generated, not
    collected: a paper-scale batch's offsets would outlive it in RSS.)"""
    if type(keys) is not array:
        for key in keys:
            yield sdbm_hash(key) % n_buckets
        return
    upper, carried = -1, 0
    for key in keys:
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
        yield (h ^ h >> 17) % n_buckets


def load_replicated(pipes: List["HashIndexPipeline"], keys, fields,
                    ts: int = 0, table_id: int = 0) -> None:
    """Install a replicated table's key and field columns in every
    pipeline of ``pipes`` (every partition's, in worker order) as one
    cold batch each.

    A chip's partitions share its heap: with ``S`` of them, replica
    ``w`` of row ``k`` is at ``base + k * S + w``, the cell, chain and
    bucket :meth:`HashIndexPipeline.bulk_load` gives it when each row
    goes into every partition before the next row — so DRAM channel
    choice, and every simulated number after it, is the row path's.
    All batches share one key column and one field column, and each key
    is hashed once per bucket count.  A ``fields`` entry that is not
    iterable stops the column there: the rows before it go into every
    partition, and the error is raised.
    """
    rows: List[tuple] = []
    try:
        rows.extend(map(tuple, fields))
    finally:
        # on an error, the rows whose fields were taken go in
        if rows:
            _lay_out_replicas(pipes, key_column(keys[:len(rows)]), rows,
                              ts, table_id)


def _lay_out_replicas(pipes, column, rows: List[tuple], ts: int,
                      table_id: int) -> None:
    chips: Dict[int, list] = {}
    for pipe in pipes:
        chips.setdefault(id(pipe.dram.heap), []).append(pipe)
    offsets: Dict[int, array] = {}      # by bucket count
    for chip in chips.values():
        stride = len(chip)
        base = chip[0].dram.heap.alloc(len(rows) * stride)
        for w, pipe in enumerate(chip):
            table = pipe._table(table_id)
            n_buckets = table[1]
            if n_buckets not in offsets:
                offsets[n_buckets] = array(
                    "q", _bucket_offsets(column, n_buckets))
            cold = ColdRows(TupleRecord.from_batch, base + w, ts, stride)
            cold.keys, cold.fields = column, rows
            pipe._link(cold, table, offsets[n_buckets])


def _next_of(addr: int, cell: Any) -> int:
    """The chain pointer of the row in ``cell`` at ``addr``, cold or
    built; NULL_ADDR for an empty cell."""
    if cell is None:
        return NULL_ADDR
    if cell.__class__ is ColdRows:
        return cell.nexts[cell.row(addr)]
    return cell.next_addr


class HashIndexPipeline(PipelineBase):
    """One partition's hash index coprocessor."""

    trace_category = "hash"
    issue_intervals = (24.0, 28.0)
    #: per-stage service times in FPGA cycles
    keyfetch_cycles = 2.0
    hash_cycles = 12.0      # byte-serial Sdbm over the key + bucket address
    headfetch_cycles = 2.0
    keycomp_cycles = 16.0   # byte-serial compare + visibility check
    install_cycles = 10.0
    traverse_hop_cycles = 4.0

    def __init__(self, engine, clock, dram, name: str, n_buckets: int = 0,
                 n_traverse_stages: int = 1,
                 hazard_prevention: bool = True, **kw):
        if n_buckets < 0:
            raise ValueError("n_buckets must be >= 0")
        if n_traverse_stages < 1:
            raise ValueError("need at least one Traverse stage")
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
        # one word a bucket: the address of its chain's head, or 0
        self._tables[table_id] = (self.dram.heap.alloc_words(n_buckets),
                                  n_buckets)

    # -- stages ------------------------------------------------------------
    def _build(self) -> None:
        for body, cycles in ((self._keyfetch, self.keyfetch_cycles),
                             (self._hash, self.hash_cycles),
                             (self._install, self.install_cycles),
                             (self._headfetch, self.headfetch_cycles),
                             (self._keycomp, self.keycomp_cycles)):
            self._stage(body, cycles)
        n = self.n_traverse_stages
        for k in range(n):
            self._stage(partial(self._traverse, _TRAVERSE + k),
                        self.traverse_hop_cycles)
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
    # The chain walk reads each row's cell as stored: a cold row is
    # matched, followed and granted a SEARCH from its batch's columns
    # and stays cold (see ColdRows).
    def _headfetch(self, item: tuple) -> None:
        req, head_addr = item
        if not head_addr:
            self._done(req, DbResult(ResultCode.NOT_FOUND))
        else:
            self.read_port.read_cb(head_addr, self._head_read_done,
                                   (req, head_addr))
        self._next(_HEADFETCH)

    def _head_read_done(self, arg: tuple) -> None:
        (req, addr), cell = arg
        self._put(_KEYCOMP, (req, addr, cell))

    # -- stage 4: KeyComp -----------------------------------------------------
    def _keycomp(self, item: tuple) -> None:
        req, addr, cell = item
        if cell.__class__ is ColdRows:
            # cold when it landed: a row built since is seen as it is now,
            # as a record read then would show every change made to it
            cell = self.dram.heap.load_raw(addr)
        if not self._finish_at(req, addr, cell):
            self._put(next(self._traverse_rr), (req, _next_of(addr, cell)))
        self._next(_KEYCOMP)

    # -- stage 5: Traverse ------------------------------------------------------
    def _traverse(self, stage: int, item: tuple) -> None:
        """Follow the chain, holding the item across its memory stalls."""
        req, next_addr = item
        if not next_addr:
            self._done(req, DbResult(ResultCode.NOT_FOUND))
            self._next(stage)
        else:
            self.read_port.read_cb(next_addr, self._traverse_read,
                                   (stage, req, next_addr))

    def _traverse_read(self, arg: tuple) -> None:
        (stage, req, addr), cell = arg
        if self._finish_at(req, addr, cell):
            self._next(stage)
        else:
            # next hop of the chain: the stage keeps its item
            self._after(self._delay[stage], self._body[stage],
                        (req, _next_of(addr, cell)))

    # -- terminal behaviour ---------------------------------------------------
    def _finish_at(self, req: DbRequest, addr: int, cell: Any) -> bool:
        """Finish ``req`` on the row in ``cell`` at ``addr`` if it holds
        ``req``'s key; False to follow the chain.  A cold row is matched
        on its batch's key column and finished from the batch."""
        if cell.__class__ is ColdRows:
            if not cell.keys[cell.row(addr)] == req.key:
                return False
        elif not self._matches(req, cell):
            return False
        self._finish_point(req, addr, cell)
        return True

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
        n_rows = len(keys)
        if not n_rows:
            return 0, NULL_ADDR
        cold = ColdRows(TupleRecord.from_batch,
                        self.dram.heap.alloc(n_rows), ts)
        try:
            # a snapshot per row; a tuple offered for many rows is kept once
            cold.fields.extend(map(tuple, fields))
        finally:
            # on an error, the rows whose fields were taken go in
            if len(cold) < n_rows:
                keys = keys[:len(cold)]
            cold.keys = key_column(keys)
            self._link(cold, table, _bucket_offsets(cold.keys, table[1]))
        return n_rows, cold.base + n_rows - 1

    def _link(self, cold: ColdRows, table: tuple, offsets) -> None:
        """Push row ``i`` of ``cold`` (at ``base + i * stride``) onto the
        chain of ``table``'s bucket ``offsets[i]``, in row order, and
        lay the batch out cold."""
        heap = self.dram.heap
        # the table's bucket words, written in place: each row's address
        # is allocated, and load()/store() would cost +0.2 us a row
        buckets = heap.words(table[0])
        cold.nexts = array("I")         # a word a row, as a bucket is
        add_next = cold.nexts.append
        stride = cold.stride
        for addr, offset in zip(
                range(cold.base, cold.base + len(cold) * stride, stride),
                offsets):
            add_next(buckets[offset])       # an empty word is NULL_ADDR
            buckets[offset] = addr
        heap.place_cold(cold)
        self.tuple_count += len(cold)

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
        heap = self.dram.heap
        load = heap.load
        # a checkpoint's tables are mostly empty buckets: take the
        # occupied ones' chain heads from the bucket words at C speed
        for addr in filter(None, heap.words(self._table(table_id)[0])):
            seen = set()
            while addr:
                record = load(addr)
                if record is None:
                    break
                if record.key not in seen:
                    seen.add(record.key)
                    yield record.key, record
                addr = record.next_addr

    def lookup_direct(self, key: Any, table_id: int = 0) -> Optional[TupleRecord]:
        """Timing-free probe used by tests and recovery verification."""
        for _addr, record in self._chain(self.bucket_addr_of(key, table_id)):
            if record.key == key and not record.tombstone:
                return record
        return None

    def chain_length(self, key: Any, table_id: int = 0) -> int:
        return sum(1 for _ in self._chain(self.bucket_addr_of(key, table_id)))
