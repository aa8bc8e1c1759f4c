"""The hardware hash index pipeline (§4.4.1, Figure 5a).

Stage graph::

    KeyFetch --> Hash --+--> Install                      (INSERT path)
                        +--> HeadFetch --> KeyComp --> Traverse*
                                           (SEARCH / UPDATE / REMOVE path)

Every stage is a finite-state machine woken by data arrival; stages
issue memory requests *designating the next stage as the destination*
and immediately move to the next incoming instruction, so many index
operations overlap in flight.  The Traverse stage follows hash-conflict
chains and is the only stage with internal memory stalls; multiple
Traverse stages can be populated to keep the dataflow balanced under
frequent conflicts (§4.4.1).

Hazards (insert-after-insert, search-after-insert) are prevented by
pipeline stalls against a BRAM lock table (Figure 6b); setting
``hazard_prevention=False`` reproduces the lost-update anomaly of
Figure 6a — there is a regression test that does exactly that.

Event structure
---------------
A stage is a busy flag, a backlog and a service delay (the input
register / can-accept idiom): handing an item to an idle stage
schedules the stage *body* at ``now + delay`` and marks the stage busy;
a busy stage queues the item, and when the body finishes it schedules
the oldest queued item the same way or goes idle.  Bodies are bound
methods scheduled closure-free through ``Engine._schedule_fn``; memory
completions call the next stage's hand-off inside the completion firing
(``MemoryPort.read_cb`` / ``write_cb``), and admission is a plain call
(:class:`~repro.index.common.PipelineBase`).  So serving an item costs
one work item per stage plus one per DRAM access — nothing fires that
does no simulated work.

An earlier version kept a same-instant wake-up hop per stage and two
admission hops, on the theory that DRAM channel arbitration (same-
instant requests are served in engine firing order) made the creation
order of work items decide commit timestamps.  Removing them was
measured instead: every ``GOLDEN_SMOKE`` observable is unchanged and
the repo benchmark's simulated metrics move by well under 1 %
(docs/performance.md).  What *is* pinned is what the simulation
computes — completion times and result codes — not how many firings it
takes; ``events_fired`` is held as a ceiling only.
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass
from functools import partial
from itertools import cycle
from typing import Any, List, Optional

from ...isa.instructions import Opcode
from ...mem.records import NULL_ADDR, TupleRecord
from ...sim.memory import ColdRows
from ...txn.cc import DbResult, ResultCode, check_read, check_write
from ..common import (
    _MASK64, _P1, _P2, _P3, _P4, _P5, _P6, _P7,
    DbRequest, IndexError_, PipelineBase, key_column, sdbm_hash,
)
from .locktable import HazardLockTable

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

    def __init__(self, engine, clock, dram, name: str, n_buckets: int = 0,
                 timings: Optional[HashTimings] = None,
                 n_traverse_stages: int = 1,
                 hazard_prevention: bool = True,
                 max_in_flight: int = 16,
                 read_issue_interval_cycles: float = 24.0,
                 write_issue_interval_cycles: float = 28.0,
                 stats=None, tracer=None):
        if n_buckets < 0:
            raise ValueError("n_buckets must be >= 0")
        if n_traverse_stages < 1:
            raise ValueError("need at least one Traverse stage")
        self.timings = timings or HashTimings()
        self.n_traverse_stages = n_traverse_stages
        self.hazard_prevention = hazard_prevention
        self._dram = dram
        # one coprocessor serves every hash table of its partition; each
        # table gets its own bucket array: table_id -> (base, n_buckets)
        self._tables: dict = {}
        super().__init__(engine, clock, dram, name,
                         max_in_flight=max_in_flight,
                         read_issue_interval_cycles=read_issue_interval_cycles,
                         write_issue_interval_cycles=write_issue_interval_cycles,
                         stats=stats, tracer=tracer)
        self.locks = HazardLockTable(engine, name=f"{name}.locks")
        self.tuple_count = 0
        if n_buckets:
            # single-table convenience (used heavily by unit tests)
            self.add_table(0, n_buckets)

    def add_table(self, table_id: int, n_buckets: int) -> None:
        if n_buckets < 1:
            raise ValueError("n_buckets must be >= 1")
        if table_id in self._tables:
            raise ValueError(f"table {table_id} already registered")
        self._tables[table_id] = (self._dram.heap.alloc(n_buckets), n_buckets)

    # -- stage plumbing ----------------------------------------------------
    def _build(self) -> None:
        ns = self.clock.ns
        t = self.timings
        n = self.n_traverse_stages
        self._sched = self.engine._schedule_fn
        self._body = [self._keyfetch, self._hash, self._install,
                      self._headfetch, self._keycomp]
        self._body += [partial(self._traverse, _TRAVERSE + k)
                       for k in range(n)]
        # a stage is a busy flag, a backlog and the service delay charged
        # before its body runs
        self._delay = [ns(t.keyfetch), ns(t.hash), ns(t.install),
                       ns(t.headfetch), ns(t.keycomp)
                       ] + [ns(t.traverse_hop)] * n
        self._busy = [False] * len(self._delay)
        self._backlog = [deque() for _ in self._delay]
        self._traverse_rr = cycle(range(_TRAVERSE, _TRAVERSE + n))
        # destinations of the Hash stage's bucket-head read
        self._to_install = partial(self._put, _INSTALL)
        self._to_headfetch = partial(self._put, _HEADFETCH)

    def _put(self, stage: int, item: Any) -> None:
        """Hand ``item`` to a stage: an idle stage starts serving it, a
        busy one queues it behind the item in service."""
        if self._busy[stage]:
            self._backlog[stage].append(item)
        else:
            self._busy[stage] = True
            self._sched(self.engine.now + self._delay[stage],
                        self._body[stage], item)

    def _next(self, stage: int) -> None:
        """The stage is done with its item: take the next or go idle."""
        backlog = self._backlog[stage]
        if backlog:
            self._sched(self.engine.now + self._delay[stage],
                        self._body[stage], backlog.popleft())
        else:
            self._busy[stage] = False

    def _enter(self, req: DbRequest) -> None:
        self._put(_KEYFETCH, req)

    # -- stage 1: KeyFetch ------------------------------------------------
    def _keyfetch(self, req: DbRequest) -> None:
        if req.op in (Opcode.SCAN, Opcode.RANGE_SCAN):
            raise IndexError_(f"{req.op.value} dispatched to a hash index")
        if req.op is Opcode.INSERT and req.payload_addr is not None:
            # computed key: fetch the field list from its block cell
            req.key = req.key_value
            self.read_port.read_cb(req.payload_addr, self._payload_done, req)
        elif req.key_value is not None or req.key_addr is None:
            self._set_key(req, req.key_value)
            self._put(_HASH, req)
        else:
            # Fetch the search key from the transaction block,
            # designating the Hash stage as the destination.
            self.read_port.read_cb(req.key_addr, self._keyfetch_done, req)
        self._next(_KEYFETCH)

    def _keyfetch_done(self, arg: tuple) -> None:
        req, value = arg
        self._set_key(req, value)
        self._put(_HASH, req)

    def _payload_done(self, arg: tuple) -> None:
        req, value = arg
        req.insert_payload = list(value or [])
        self._put(_HASH, req)

    def _set_key(self, req: DbRequest, cell: Any) -> None:
        if req.op is Opcode.INSERT:
            # INSERT input cells hold (key, fields).
            if req.insert_payload is not None:
                req.key = cell if cell is not None else req.key_value
            elif isinstance(cell, tuple) and len(cell) == 2:
                req.key, req.insert_payload = cell
            else:
                req.key = cell
                req.insert_payload = []
        else:
            req.key = cell

    # -- stage 2: Hash ---------------------------------------------------
    def bucket_addr_of(self, key: Any, table_id: int = 0) -> int:
        try:
            base, n_buckets = self._tables[table_id]
        except KeyError:
            raise IndexError_(f"{self.name}: unknown table {table_id}") from None
        return base + sdbm_hash(key) % n_buckets

    def _hash(self, req: DbRequest) -> None:
        bucket_addr = self.bucket_addr_of(req.key, req.table_id)
        req._bucket_addr = bucket_addr
        if self.hazard_prevention:
            # a stalled instruction holds the Hash stage (pipeline stall)
            # until the lock-release firing resumes it
            if req.op is Opcode.INSERT:
                ev = self.locks.acquire_insert(bucket_addr)
                if ev is not None:
                    ev.callbacks.append(lambda _ev: self._hash_issue(req))
                    return
            elif self.locks.locked(bucket_addr):
                self.locks.wait_clear(bucket_addr).callbacks.append(
                    lambda _ev: self._hash_issue(req))
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
        addr = self._dram.heap.alloc()
        record = TupleRecord(
            key=req.key,
            fields=list(req.insert_payload or []),
            addr=addr,
            next_addr=head_addr or NULL_ADDR,
            read_ts=req.ts,
            write_ts=req.ts,
            dirty=True,
        )
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
            self.locks.release_insert(req._bucket_addr)
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
        if record is not None and self._matches(req, record):
            self._finish_match(req, addr, record)
        else:
            self._put(next(self._traverse_rr), (req, record))
        self._next(_KEYCOMP)

    # -- stage 5: Traverse ------------------------------------------------------
    def _traverse(self, stage: int, item: tuple) -> None:
        # Follow the hash-conflict chain; unlike other stages this one
        # has internal memory stalls (dependent pointer chasing), so it
        # holds its item across hops.
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
        if record is not None and self._matches(req, record):
            self._finish_match(req, addr, record)
            self._next(stage)
        else:
            # next hop of the chain: the stage keeps its item
            self._sched(self.engine.now + self._delay[stage],
                        self._body[stage], (req, record))

    # -- terminal behaviour ---------------------------------------------------
    @staticmethod
    def _matches(req: DbRequest, record: TupleRecord) -> bool:
        """Key match; committed tombstones are skipped (deleted), but a
        dirty tombstone (in-flight REMOVE) must reach the visibility
        check so the access is blindly rejected per §4.7."""
        if record.key != req.key:
            return False
        return not (record.tombstone and not record.dirty)

    def _finish_match(self, req: DbRequest, addr: int, record: TupleRecord) -> None:
        if req.op is Opcode.INSERT:  # pragma: no cover - inserts use Install
            raise IndexError_("INSERT reached a read-path terminal stage")
        if req.op in (Opcode.SEARCH,):
            code = check_read(record, req.ts)
            if code is ResultCode.OK:
                # read-timestamp bump is a masked line write
                self.write_port.post_write(addr, record)
        else:  # UPDATE / REMOVE
            code = check_write(record, req.ts, tombstone=req.op is Opcode.REMOVE)
            if code is ResultCode.OK:
                self.write_port.post_write(addr, record)
        value = record.fields[0] if (code is ResultCode.OK and record.fields) else None
        self._done(req, DbResult(code, tuple_addr=addr, value=value))

    # -- host-side helpers (timing-free; loading & verification) -----------
    def bulk_load(self, key: Any, fields: List[Any], ts: int = 0,
                  table_id: int = 0) -> int:
        """Install a committed tuple without consuming simulated time."""
        heap = self._dram.heap
        bucket_addr = self.bucket_addr_of(key, table_id)
        addr = heap.alloc()
        record = TupleRecord(key=key, fields=list(fields), addr=addr,
                             next_addr=heap.load(bucket_addr) or NULL_ADDR,
                             read_ts=ts, write_ts=ts, dirty=False)
        heap.store(addr, record)
        heap.store(bucket_addr, addr)
        self.tuple_count += 1
        return addr

    def bulk_load_many(self, keys, fields, ts: int = 0,
                       table_id: int = 0) -> int:
        """Batched :meth:`bulk_load` of a key column and its parallel
        field column: identical rows, chains and heap addresses, with
        the per-row dispatch (schema lookup, allocator call, byte-serial
        hash) hoisted or specialised away — and no record built.  The
        batch is laid out as the columns of one
        :class:`~repro.sim.memory.ColdRows`; the heap builds a row's
        record the first time its cell is read.  This is what makes
        paper-scale loading (300 K rows/partition) a matter of seconds
        and megabytes rather than minutes and gigabytes.

        A ``fields`` entry that is not iterable stops the batch there:
        the rows before it are installed, reachable and counted, as a
        per-row loop would leave them, and the error is raised.
        """
        heap = self._dram.heap
        try:
            base, n_buckets = self._tables[table_id]
        except KeyError:
            raise IndexError_(f"{self.name}: unknown table {table_id}") from None
        n_rows = len(keys)
        if len(fields) != n_rows:
            raise ValueError(f"{self.name}: {n_rows} keys offered with "
                             f"{len(fields)} field rows")
        if not n_rows:
            return 0
        cold = ColdRows(TupleRecord.from_hash_batch, heap.alloc(n_rows), ts)
        cold.nexts = array("q")
        try:
            # a snapshot per row; a tuple offered for many rows is kept once
            cold.fields.extend(map(tuple, fields))
        finally:
            # short of n_rows only on the way out with an error: the
            # rows whose fields were taken go in all the same
            if len(cold) < n_rows:
                keys = keys[:len(cold)]
            # The one place outside Heap that indexes its cell list:
            # every address read or written below is a bucket of this
            # table, and the load()/store() calls a row would otherwise
            # make measured +0.2 us on a 1.2 us row.
            cells = heap._cells
            add_next = cold.nexts.append
            cold.keys = key_column(keys)
            if type(cold.keys) is array:
                # _sdbm_int8 with the terms of the upper seven key bytes
                # carried from row to row while those bytes do not
                # change: right in any key order, and one multiply
                # instead of seven for 255 rows in 256 of an ascending run
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
        return n_rows

    def lookup_direct(self, key: Any, table_id: int = 0) -> Optional[TupleRecord]:
        """Timing-free probe used by tests and recovery verification."""
        heap = self._dram.heap
        addr = heap.load(self.bucket_addr_of(key, table_id))
        while addr:
            record = heap.load(addr)
            if record is None:
                return None
            if record.key == key and not record.tombstone:
                return record
            addr = record.next_addr
        return None

    def checkpoint_rows(self, table_id: int = 0):
        """Yield (key, fields, write_ts) for every live committed tuple
        (checkpointing helper; timing-free)."""
        heap = self._dram.heap
        base, n_buckets = self._tables[table_id]
        for b in range(n_buckets):
            addr = heap.load(base + b)
            seen = set()
            while addr:
                record = heap.load(addr)
                if record is None:
                    break
                # newest version of a key sits closest to the head
                if record.key not in seen:
                    seen.add(record.key)
                    if not record.tombstone and not record.dirty:
                        yield record.key, list(record.fields), record.write_ts
                addr = record.next_addr

    def compact_direct(self, table_id: int = 0) -> int:
        """Quiescent maintenance: unlink committed tombstones from every
        bucket chain.  Returns the number of entries removed."""
        heap = self._dram.heap
        base, n_buckets = self._tables[table_id]
        removed = 0
        for b in range(n_buckets):
            bucket_addr = base + b
            # unlink committed tombstones from the chain head first
            while True:
                head = heap.load(bucket_addr)
                if not head:
                    break
                record = heap.load(head)
                if record is None:
                    break
                if record.tombstone and not record.dirty:
                    heap.store(bucket_addr, record.next_addr or NULL_ADDR)
                    removed += 1
                else:
                    break
            # then from the middle of the chain
            addr = heap.load(bucket_addr)
            while addr:
                record = heap.load(addr)
                if record is None:
                    break
                nxt = record.next_addr
                while nxt:
                    nrec = heap.load(nxt)
                    if nrec is None:
                        break
                    if nrec.tombstone and not nrec.dirty:
                        record.next_addr = nrec.next_addr or NULL_ADDR
                        removed += 1
                        nxt = record.next_addr
                    else:
                        break
                addr = record.next_addr
        return removed

    def chain_length(self, key: Any, table_id: int = 0) -> int:
        heap = self._dram.heap
        addr = heap.load(self.bucket_addr_of(key, table_id))
        n = 0
        while addr:
            n += 1
            record = heap.load(addr)
            if record is None:
                break
            addr = record.next_addr
        return n
