"""Simulated memory: the FPGA-side DRAM and on-chip BRAM.

The paper's machine (Convey/Micron HC-2) gives each FPGA chip access to
on-board DDR2 through dedicated memory controllers.  In-memory OLTP is
bound by *latency* of small random accesses, not bandwidth (§4.1), so
the model centres on:

* a fixed random-access latency per request (``latency_cycles``,
  :data:`DRAM_LATENCY_CYCLES` on the HC-2),
* per-port issue limits (a port can only have ``max_outstanding``
  requests in flight — this is what caps memory-level parallelism and
  produces the saturation knees of Figures 10 and 11),
* per-channel issue slots (8 controllers / channels),
* an aggregate bandwidth counter checked against the 10 GB/s budget.

Data lives in a :class:`Heap`: a word-addressed object store.  One heap
cell corresponds to one 64-byte line (a record header, a hash bucket
entry, a skiplist tower, one payload chunk).  Reads sample the cell and
writes apply at *service time*, so the pipeline hazards described in
§4.4 (insert-after-insert, search-after-insert) genuinely occur when
hazard prevention is disabled.
"""

from __future__ import annotations

from array import array
from collections import deque
from heapq import heappush
from itertools import repeat
from typing import Any, Callable, Deque, Dict, Iterator, List, Optional, Tuple

from ..errors import HeapAddressError
from .clock import ClockDomain
from .engine import Engine, Event
from .stats import StatsRegistry

__all__ = ["Heap", "DramModel", "MemoryPort", "Bram", "LINE_BYTES",
           "DRAM_LATENCY_CYCLES"]

LINE_BYTES = 64  # one heap cell models one 64-byte DRAM line


class ColdRows:
    """One bulk-loaded batch of rows, held as columns until read.

    A paper-scale table is 1.2 M rows of which a run reads a fraction,
    so no index loader builds a record per row.  Each lays a batch out
    as the columns of one of these and points the batch's cells at it;
    :meth:`Heap.load` swaps a cell's pointer for the row's record the
    first time the cell is read, and only :class:`Heap` ever sees a cold
    cell.  Per row that is a few machine words and no object the cyclic
    collector tracks, against a record, its field list and its boxed
    integers.

    Every kind fills ``keys`` — an ``array('q')`` when every key of the
    batch is an ``int`` in [0, 2**63), a plain list when one is not —
    and ``fields``, ``tuple(fields)`` of each row as it was offered: a
    snapshot, so a caller may reuse or mutate its list afterwards, and
    the very tuple when a tuple was offered, so a loader that offers one
    tuple for every row (YCSB's one payload) stores it once.  Every row
    was loaded at ``ts``.  The other columns belong to one index kind:

    * hash — row ``i`` at ``base + i``; ``nexts``, its chain pointer;
    * skiplist — one ascending run, row ``i`` at ``base + i``;
      ``heights``, a ``bytearray`` of tower heights, and ``tails``, the
      level-``l`` successor of the run's last row that reaches ``l``;
    * B+ tree — the loader allocates row cells from ``base`` on, between
      the nodes its splits add; ``ranks[addr - base]`` is the row at
      ``addr`` (a node's entry is unused).

    ``inflate(rows, addr)`` builds the record at ``addr`` from those
    columns: each kind hands in its constructor, because record layouts
    live in :mod:`repro.mem`, which imports this module.
    """

    __slots__ = ("inflate", "base", "ts", "keys", "fields",
                 "nexts", "heights", "tails", "ranks")

    def __init__(self, inflate: Callable, base: int, ts: int):
        self.inflate = inflate
        self.base = base
        self.ts = ts
        self.keys: Any = array("q")
        self.fields: List[tuple] = []
        self.nexts = self.heights = self.tails = self.ranks = None

    def __len__(self) -> int:
        return len(self.fields)


class Heap:
    """Word-addressed object store with a bump allocator.

    Addresses are integers.  ``alloc(n)`` reserves ``n`` consecutive
    cells.  The heap is shared by all partitions (the FPGA's on-board
    DRAM is one physical address space); isolation between partitions
    is a matter of discipline, exactly as in the hardware.

    Cells live in one ``list`` indexed by address and grown by the
    allocator (8 bytes per allocated line, occupied or not), so the
    first ``base`` slots are never handed out.  A cell holding ``None``
    is unoccupied: reading it, or any address outside the allocated
    range, yields ``None`` — a wild pointer reads nothing — while a
    store outside the allocated range is a bug in the caller and
    raises.

    A cell may also be *cold*: one row of a :class:`ColdRows` batch
    whose record has not been built yet.  :meth:`load` builds it on
    first touch and keeps it, so every reader gets an ordinary record
    and a cold cell is never handed out.  The counters ``rows_cold`` and
    ``rows_inflated`` (``heap.rows_cold`` / ``heap.rows_inflated`` in the
    stats registry) count the rows placed and the rows built; since a
    cell is built once, the second never exceeds the first.
    """

    def __init__(self, base: int = 0x1000,
                 stats: Optional[StatsRegistry] = None):
        self._base = base
        self._cells: List[Any] = [None] * base
        self.allocated_cells = 0
        stats = stats or StatsRegistry()
        self.rows_cold = stats.counter("heap.rows_cold")
        self.rows_inflated = stats.counter("heap.rows_inflated")

    def alloc(self, n_cells: int = 1) -> int:
        if n_cells < 1:
            raise ValueError("allocation must be >= 1 cell")
        cells = self._cells
        addr = len(cells)
        if n_cells == 1:
            cells.append(None)
        else:
            cells.extend(repeat(None, n_cells))
        self.allocated_cells += n_cells
        return addr

    def load(self, addr: int) -> Any:
        cells = self._cells
        if not 0 <= addr < len(cells):
            return None
        cell = cells[addr]
        if cell.__class__ is ColdRows:
            cell = cells[addr] = cell.inflate(cell, addr)
            self.rows_inflated.value += 1
        return cell

    def place_cold(self, rows: ColdRows) -> None:
        """Point the cells of ``rows`` (allocated by the caller, one
        per row from ``rows.base``) at their batch."""
        n = len(rows)
        self._cells[rows.base:rows.base + n] = [rows] * n
        self.rows_cold.value += n

    def alloc_cold(self, rows: ColdRows) -> int:
        """Allocate one cell, holding a row of ``rows`` whose columns
        already describe it, and return its address."""
        cells = self._cells
        addr = len(cells)
        cells.append(rows)
        self.allocated_cells += 1
        self.rows_cold.value += 1
        return addr

    def store(self, addr: int, value: Any) -> None:
        cells = self._cells
        if not self._base <= addr < len(cells):
            raise HeapAddressError("store outside the allocated range",
                                   addr=addr, limit=len(cells))
        cells[addr] = value

    def __contains__(self, addr: int) -> bool:
        return self.load(addr) is not None

    def items(self) -> Iterator[Tuple[int, Any]]:
        """``(addr, cell)`` for every occupied cell, in address order."""
        load = self.load
        return ((addr, load(addr)) for addr, cell in enumerate(self._cells)
                if cell is not None)

    @property
    def bytes_allocated(self) -> int:
        return self.allocated_cells * LINE_BYTES


class _Request:
    __slots__ = ("kind", "addr", "value", "event", "apply_fn", "cb", "cb_arg")

    def __init__(self, kind: str, addr: int, value: Any, event: Optional[Event],
                 apply_fn: Optional[Callable] = None,
                 cb: Optional[Callable] = None, cb_arg: Any = None):
        self.kind = kind
        self.addr = addr
        self.value = value
        self.event = event
        self.apply_fn = apply_fn
        self.cb = cb
        self.cb_arg = cb_arg


#: HC-2 coprocessor memory through the crossbar interconnect: a random
#: access takes ~680 ns at 125 MHz
DRAM_LATENCY_CYCLES = 85.0


class DramModel:
    """Shared DRAM: channels, latency, bandwidth accounting."""

    def __init__(
        self,
        engine: Engine,
        clock: ClockDomain,
        heap: Heap,
        latency_cycles: float = DRAM_LATENCY_CYCLES,
        channels: int = 8,
        channel_issue_interval_cycles: float = 1.0,
        stats: Optional[StatsRegistry] = None,
    ):
        self.engine = engine
        self.clock = clock
        self.heap = heap
        if latency_cycles <= 0:
            # ports push completions straight onto the engine's heap,
            # which must never receive an item stamped ``now``
            raise ValueError("latency_cycles must be > 0")
        self.latency_ns = clock.ns(latency_cycles)
        self.channels = channels
        self.channel_interval_ns = clock.ns(channel_issue_interval_cycles)
        self._channel_free = [0.0] * channels
        self.stats = stats or StatsRegistry()
        self._reads = self.stats.counter("dram.reads")
        self._writes = self.stats.counter("dram.writes")

    def new_port(self, name: str = "", max_outstanding: int = 4,
                 issue_interval_cycles: float = 1.0) -> "MemoryPort":
        return MemoryPort(self, name=name, max_outstanding=max_outstanding,
                          issue_interval_cycles=issue_interval_cycles)

    # -- timing-free host access (loading, verification, checkpoints) ----
    def direct_read(self, addr: int) -> Any:
        return self.heap.load(addr)

    def direct_write(self, addr: int, value: Any) -> None:
        self.heap.store(addr, value)

    # -- accounting -------------------------------------------------------
    @property
    def total_accesses(self) -> int:
        return self._reads.value + self._writes.value


class MemoryPort:
    """One requester's window into DRAM.

    A port issues at most one request per ``issue_interval`` and holds at
    most ``max_outstanding`` requests in flight.  Pipeline stages and the
    softcore each own ports; the per-port outstanding limit is the
    modelled analogue of the HC-2 memory-port semantics that caps MLP.
    """

    def __init__(self, dram: DramModel, name: str = "", max_outstanding: int = 4,
                 issue_interval_cycles: float = 1.0):
        if max_outstanding < 1:
            raise ValueError("max_outstanding must be >= 1")
        self.dram = dram
        self.engine = dram.engine
        self.name = name
        self.max_outstanding = max_outstanding
        self.issue_interval_ns = dram.clock.ns(issue_interval_cycles)
        self._outstanding = 0
        self._next_issue = 0.0
        self._pending: Deque[_Request] = deque()
        self.issued = 0
        # bound once: completions and deferred launches are pushed as
        # closure-free (when, seq, fn, arg) work items
        self._launch_cb = self._launch
        self._complete_cb = self._complete

    # -- public operations -------------------------------------------------
    def read(self, addr: int) -> Event:
        """Read a cell; the event fires with the cell's value at service."""
        ev = Event(self.engine)
        self._submit(_Request("read", addr, None, ev))
        return ev

    def write(self, addr: int, value: Any) -> Event:
        """Write a cell; the event fires when the write is serviced."""
        ev = Event(self.engine)
        self._submit(_Request("write", addr, value, ev))
        return ev

    def post_write(self, addr: int, value: Any) -> None:
        """Posted (fire-and-forget) write; still occupies an issue slot."""
        self._submit(_Request("write", addr, value, None))

    def read_cb(self, addr: int, fn: Callable, arg: Any) -> None:
        """Read with a closure-free completion callback.

        ``fn((arg, value))`` is called inside the completion firing, at
        the instant the event of :meth:`read` would fire — the only
        difference is that no :class:`Event` is allocated.  This is the
        completion path of the hash index pipeline.
        """
        self._submit(_Request("read", addr, None, None, cb=fn, cb_arg=arg))

    def write_cb(self, addr: int, value: Any, fn: Callable, arg: Any) -> None:
        """Write with a closure-free completion callback (see read_cb)."""
        self._submit(_Request("write", addr, value, None, cb=fn, cb_arg=arg))

    def apply(self, addr: int, fn: Callable[[Any], None]) -> Event:
        """Read-modify-write: run ``fn(cell_value)`` at service time.

        Models a masked line write (e.g. updating one field of a record
        header); the mutation happens when DRAM services the request,
        preserving hazard semantics.
        """
        ev = Event(self.engine)
        self._submit(_Request("rmw", addr, None, ev, apply_fn=fn))
        return ev

    def post_apply(self, addr: int, fn: Callable[[Any], None]) -> None:
        self._submit(_Request("rmw", addr, None, None, apply_fn=fn))

    @property
    def outstanding(self) -> int:
        return self._outstanding

    # -- internal ------------------------------------------------------------
    def _submit(self, req: _Request) -> None:
        if self._outstanding >= self.max_outstanding:
            self._pending.append(req)
            return
        self._outstanding += 1
        self.issued += 1
        engine = self.engine
        now = engine.now
        nxt = self._next_issue
        if nxt <= now:
            # the issue slot is free right now
            self._next_issue = now + self.issue_interval_ns
            self._launch(req)
        else:
            # wait for the port's issue slot, then arbitrate the channel
            # *at that instant* — reserving channel slots early would let
            # one backlogged port starve other requesters of idle slots.
            self._next_issue = nxt + self.issue_interval_ns
            seq = engine._seq = engine._seq + 1
            heappush(engine._heap, (nxt, seq, self._launch_cb, req))

    def _launch(self, req: _Request) -> None:
        dram = self.dram
        engine = self.engine
        now = engine.now
        # channel arbitration: same-instant requests to one channel are
        # served in the order their launches fire
        ch = req.addr % dram.channels
        free = dram._channel_free[ch]
        t_issue = free if free > now else now
        dram._channel_free[ch] = t_issue + dram.channel_interval_ns
        if req.kind == "read":
            dram._reads.value += 1
        else:
            dram._writes.value += 1
        # latency > 0, so the completion is never stamped ``now`` and
        # goes straight onto the heap
        seq = engine._seq = engine._seq + 1
        heappush(engine._heap, (t_issue + dram.latency_ns, seq,
                                self._complete_cb, req))

    def _complete(self, req: _Request) -> None:
        heap = self.dram.heap
        if req.kind == "read":
            value = heap.load(req.addr)
        elif req.kind == "write":
            heap.store(req.addr, req.value)
            value = None
        else:  # rmw
            req.apply_fn(heap.load(req.addr))
            value = None
        self._outstanding -= 1
        if self._pending:
            self._submit(self._pending.popleft())
        # hand the value over inside this firing: the completion *is*
        # the delivery, no relay item on the ready-deque
        if req.cb is not None:
            req.cb((req.cb_arg, value))
        elif req.event is not None:
            req.event.succeed_now(value)


class Bram:
    """On-chip block RAM: single-cycle, capacity-accounted storage.

    BRAM accesses are folded into stage service times (they complete in
    the same cycle), so this class only provides storage plus capacity
    accounting for the Table 4 resource ledger.  A Virtex-5 BRAM block
    holds 36 Kb; ``blocks_for`` converts a byte requirement to blocks.
    """

    BLOCK_BITS = 36 * 1024

    def __init__(self, name: str = "", capacity_bytes: int = 4096):
        self.name = name
        self.capacity_bytes = capacity_bytes
        self._data: Dict[Any, Any] = {}

    @classmethod
    def blocks_for(cls, bytes_needed: int) -> int:
        bits = bytes_needed * 8
        return max(1, (bits + cls.BLOCK_BITS - 1) // cls.BLOCK_BITS)

    @property
    def blocks(self) -> int:
        return self.blocks_for(self.capacity_bytes)

    def load(self, key: Any, default: Any = None) -> Any:
        return self._data.get(key, default)

    def store(self, key: Any, value: Any) -> None:
        self._data[key] = value

    def delete(self, key: Any) -> None:
        self._data.pop(key, None)

    def __contains__(self, key: Any) -> bool:
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)

    def clear(self) -> None:
        self._data.clear()
