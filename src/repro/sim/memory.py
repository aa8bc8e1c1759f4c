"""Simulated memory: the FPGA-side DRAM.

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

Every access is modelled, so the request path is the simulator's
hottest: a :class:`MemoryPort` request is no object but the argument
tuple of the work item that serves it, and its kind's completion
handler is that item's function.  Every entry point goes through one
issue rule (:meth:`MemoryPort._issue`, :meth:`MemoryPort._launch`) and
every completion through one release (:meth:`MemoryPort._retire`).
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from collections import deque
from heapq import heappush
from itertools import compress, count, repeat
from typing import Any, Callable, Deque, Iterator, List, Optional, Tuple

from ..errors import HeapAddressError
from .clock import ClockDomain
from .engine import Engine, Event
from .stats import StatsRegistry

__all__ = ["Heap", "DramModel", "MemoryPort", "LINE_BYTES",
           "DRAM_LATENCY_CYCLES"]

LINE_BYTES = 64  # one heap cell models one 64-byte DRAM line


class ColdRows:
    """One bulk-loaded batch of rows, held as columns until read.

    A paper-scale table is 1.2 M rows of which a run reads a fraction,
    so no index loader builds a record per row.  Each lays a batch out
    as the columns of one of these and points the batch's cells at it;
    :meth:`Heap.load` swaps a cell's pointer for the row's record the
    first time the cell is read through it.  Per row that is a few
    machine words and no object the cyclic collector tracks, against a
    record, its field list and its boxed integers.

    Every kind fills ``keys`` — an ``array('q')`` when every key of the
    batch is an ``int`` in [0, 2**63), a plain list when one is not —
    and ``fields``, ``tuple(fields)`` of each row as it was offered: a
    snapshot, so a caller may reuse or mutate its list afterwards, and
    the very tuple when a tuple was offered, so a loader that offers one
    tuple for every row (YCSB's one payload) stores it once.  Every row
    was loaded at ``ts``.  The other columns belong to one index kind,
    and so does the rule by which :meth:`row` finds the row of a cell:

    * hash — row ``(addr - base) // stride``; ``nexts``, its chain
      pointer, an ``array('I')`` of words like a bucket array.  A
      replicated table's batches are strided: one per partition, all
      sharing one ``keys`` and one ``fields`` column, so that a row's
      replicas sit in consecutive cells;
    * skiplist — one ascending run, row ``addr - base``; ``heights``, a
      ``bytearray`` of tower heights, and ``tails``, the level-``l``
      successor of the run's last row that reaches ``l``.
      :meth:`next_at` follows a row's tower from them;
    * B+ tree — the loader allocates row cells from ``base`` on, between
      the nodes its splits add; row ``ranks[addr - base]`` (a node's
      entry is unused).

    ``inflate(rows, addr)`` builds the record at ``addr`` from those
    columns: each kind hands in its constructor, because record layouts
    live in :mod:`repro.mem`, which imports this module.

    A row is built when an UPDATE, REMOVE or INSERT is granted on it or
    next to it, or when the host or the softcore reads it.  Every index
    pipeline's walk, its SEARCH grant and its scans read a cell through
    :meth:`MemoryPort.read_cb`, which serves it by :meth:`Heap.load_raw`;
    they work from the columns and leave the row cold:
    a granted read raises the row's entry of ``read_ts``
    (:meth:`raise_read`), an ``array('Q')`` of read times allocated
    (every entry ``ts``) at the batch's first raise; while it is
    ``None``, every row of the batch was read at ``ts``.
    """

    __slots__ = ("inflate", "base", "stride", "ts", "keys", "fields",
                 "nexts", "heights", "tails", "ranks", "read_ts", "levels")

    def __init__(self, inflate: Callable, base: int, ts: int,
                 stride: int = 1):
        self.inflate = inflate
        self.base = base
        self.stride = stride
        self.ts = ts
        self.keys: Any = array("q")
        self.fields: List[tuple] = []
        self.nexts = self.heights = self.tails = self.ranks = None
        self.read_ts: Optional[array] = None
        #: skiplist: ``levels[l]`` (``l >= 1``) lists the rows taller
        #: than ``l`` in order, built at the first successor asked above
        #: level 0
        self.levels: Optional[list] = None

    def __len__(self) -> int:
        return len(self.fields)

    def row(self, addr: int) -> int:
        """The row of the batch held in the cell at ``addr``."""
        if self.ranks is not None:
            return self.ranks[addr - self.base]
        return (addr - self.base) // self.stride

    def read_at(self, i: int) -> int:
        """Row ``i``'s read time."""
        return self.ts if self.read_ts is None else self.read_ts[i]

    def raise_read(self, i: int, ts: int) -> bool:
        """Raise row ``i``'s read time to ``ts``; False when it already
        was as late, and nothing changed."""
        read_ts = self.read_ts
        if read_ts is None:
            if ts <= self.ts:
                return False
            read_ts = self.read_ts = array("Q", [self.ts]) * len(self)
        elif ts <= read_ts[i]:
            return False
        read_ts[i] = ts
        return True

    def next_at(self, i: int, level: int) -> int:
        """Skiplist: the level-``level`` successor of row ``i``'s tower,
        the next row of the run taller than ``level`` or, past the last
        one, ``tails[level]``.  (A tower linked to since is no longer
        cold: the link built it.)"""
        if level:
            levels = self.levels
            if levels is None:
                # each level's rows, and their heights, filtered from the
                # level below's in C
                levels = self.levels = [None]
                column, heights = range(len(self.heights)), self.heights
                for taller in range(1, len(self.tails)):
                    mask = heights.translate(
                        bytes(h > taller for h in range(256)))
                    column = array("I", compress(column, mask))
                    heights = bytes(compress(heights, mask))
                    levels.append(column)
            column = levels[level]
            k = bisect_right(column, i)
            if k < len(column):
                return self.base + column[k]
        elif i + 1 < len(self.heights):
            return self.base + i + 1
        return self.tails[level]


class Heap:
    """Word-addressed object store with a bump allocator.

    Addresses are integers.  ``alloc(n)`` reserves ``n`` consecutive
    cells, each holding any object; ``alloc_words(n)`` reserves the same
    range as ``alloc(n)`` would, each cell holding one machine word: a
    heap address or nothing (a hash table's bucket array, §4.4.1).  The
    heap is shared by all partitions (the FPGA's on-board DRAM is one
    physical address space); isolation between partitions is a matter of
    discipline, exactly as in the hardware.

    The address space is a run of *segments* in address order, one per
    ``alloc_words`` call and one per run of ``alloc`` calls between two
    of them, with no gap: addresses, and so DRAM channels, are those of
    one flat cell list.  An object segment is a ``list`` (8 bytes per
    allocated line, occupied or not); a word segment is an
    ``array('I')`` (4 bytes per line, 0 for nothing), so a bucket head
    is neither a boxed int nor a slot the cyclic collector walks.  The
    last segment is always an object list (rows, blocks), which
    :meth:`load_raw` and :meth:`store` test first; the rest are found by
    bisection (:meth:`_find`).  The first ``base`` addresses are never
    handed out.

    A cell holding ``None`` (a word holding 0) is unoccupied: reading
    it, or any address outside the allocated range, yields ``None`` — a
    wild pointer reads nothing — while a store outside the allocated
    range, or of anything but ``None`` or an allocated address into a
    word cell, is a bug in the caller and raises
    :class:`~repro.errors.HeapAddressError`.

    An object cell may also be *cold*: one row of a :class:`ColdRows`
    batch whose record has not been built yet.  :meth:`load` is
    :meth:`load_raw` plus the build: it builds a cold row on first touch
    and keeps it, so a reader gets an ordinary record.  Only
    :meth:`load_raw` (every :meth:`MemoryPort.read_cb`: the index
    pipelines' walks, grants and scans) and :meth:`raw_items` hand a
    cold cell out, as stored, and leave it cold.  The counters
    ``rows_cold`` and ``rows_inflated`` (``heap.rows_cold`` /
    ``heap.rows_inflated`` in the stats registry) count the rows placed
    and the rows built; since a cell is built once, the second never
    exceeds the first.
    """

    def __init__(self, base: int = 0x1000,
                 stats: Optional[StatsRegistry] = None):
        self._base = base
        # segment k covers [starts[k], starts[k + 1]); the last is _tail
        self._starts: List[int] = [base]
        self._segments: List[Any] = [[]]
        self._tail: List[Any] = self._segments[0]
        self._tail_start = base
        self.allocated_cells = 0
        stats = stats or StatsRegistry()
        self.rows_cold = stats.counter("heap.rows_cold")
        self.rows_inflated = stats.counter("heap.rows_inflated")

    def alloc(self, n_cells: int = 1) -> int:
        if n_cells < 1:
            raise ValueError("allocation must be >= 1 cell")
        cells = self._tail
        addr = self._tail_start + len(cells)
        if n_cells == 1:
            cells.append(None)
        else:
            cells.extend(repeat(None, n_cells))
        self.allocated_cells += n_cells
        return addr

    def alloc_words(self, n_cells: int) -> int:
        """Reserve ``n_cells`` word cells, all empty, at the address
        ``alloc(n_cells)`` would return; :meth:`words` hands out their
        array."""
        if n_cells < 1:
            raise ValueError("allocation must be >= 1 cell")
        addr = self._tail_start + len(self._tail)
        words = array("I", [0]) * n_cells
        if self._tail:
            self._starts.append(addr)
            self._segments.append(words)
        else:                       # an empty object run gives way
            self._segments[-1] = words
        self._tail = []
        self._tail_start = addr + n_cells
        self._starts.append(self._tail_start)
        self._segments.append(self._tail)
        self.allocated_cells += n_cells
        return addr

    def words(self, addr: int) -> array:
        """The array of the ``alloc_words`` allocation at ``addr``:
        item ``i`` is the word of cell ``addr + i``, 0 when empty.  A
        writer must keep to ``None``-or-address, as :meth:`store`
        does."""
        k = bisect_right(self._starts, addr) - 1
        segment = self._segments[k] if k >= 0 else None
        if segment.__class__ is not array or self._starts[k] != addr:
            raise HeapAddressError("no word allocation starts here",
                                   addr=addr, limit=self._limit())
        return segment

    def _limit(self) -> int:
        return self._tail_start + len(self._tail)

    def _find(self, addr: int) -> Tuple[Any, int]:
        """``(segment, index)`` of an allocated ``addr``; ``(None, 0)``
        outside the allocated range."""
        i = addr - self._tail_start
        if i >= 0:
            return (self._tail, i) if i < len(self._tail) else (None, 0)
        if addr < self._base:
            return None, 0
        k = bisect_right(self._starts, addr) - 1
        return self._segments[k], addr - self._starts[k]

    def load_raw(self, addr: int) -> Any:
        """The cell at ``addr`` as stored: a cold cell yields its
        :class:`ColdRows` batch and stays cold."""
        i = addr - self._tail_start
        if i >= 0:
            cells = self._tail
            return cells[i] if i < len(cells) else None
        cells, i = self._find(addr)
        if cells is None:
            return None
        if cells.__class__ is array:
            return cells[i] or None
        return cells[i]

    def load(self, addr: int) -> Any:
        """:meth:`load_raw`, but a cold cell's record is built on this
        first touch and kept in the cell."""
        cell = self.load_raw(addr)
        if cell.__class__ is ColdRows:
            cells, i = self._find(addr)
            cell = cells[i] = cell.inflate(cell, addr)
            self.rows_inflated.value += 1
        return cell

    def place_cold(self, rows: ColdRows) -> None:
        """Point the cells of ``rows`` (allocated by the caller with one
        ``alloc``, one per row from ``rows.base``, ``rows.stride``
        apart) at their batch."""
        n, stride = len(rows), rows.stride
        cells, i = self._find(rows.base)
        cells[i:i + n * stride:stride] = [rows] * n
        self.rows_cold.value += n

    def alloc_cold(self, rows: ColdRows) -> int:
        """Allocate one cell, holding a row of ``rows`` whose columns
        already describe it, and return its address."""
        cells = self._tail
        addr = self._tail_start + len(cells)
        cells.append(rows)
        self.allocated_cells += 1
        self.rows_cold.value += 1
        return addr

    def store(self, addr: int, value: Any) -> None:
        i = addr - self._tail_start
        cells = self._tail
        if not 0 <= i < len(cells):
            cells, i = self._find(addr)
            if cells is None:
                raise HeapAddressError("store outside the allocated range",
                                       addr=addr, limit=self._limit())
            if cells.__class__ is array:
                if value is None:
                    value = 0
                elif not (value.__class__ is int
                          and self._base <= value < self._limit()):
                    raise HeapAddressError(
                        "a word cell holds a heap address or None",
                        addr=addr, limit=self._limit(), value=value)
        cells[i] = value

    def __contains__(self, addr: int) -> bool:
        """The cell is allocated and occupied; a cold cell stays cold."""
        return self.load_raw(addr) is not None

    def raw_items(self) -> Iterator[Tuple[int, Any]]:
        """``(addr, cell)`` for every occupied cell, in address order,
        as stored: a cold cell yields its :class:`ColdRows` batch and
        stays cold; a word cell yields its address."""
        for start, cells in zip(self._starts, self._segments):
            if cells.__class__ is array:
                for i in compress(count(), cells):
                    yield start + i, cells[i]
            else:
                for i, cell in enumerate(cells):
                    if cell is not None:
                        yield start + i, cell

    def items(self) -> Iterator[Tuple[int, Any]]:
        """``(addr, cell)`` for every occupied cell, in address order."""
        load = self.load
        return ((addr, load(addr)) for addr, _cell in self.raw_items())

    @property
    def bytes_allocated(self) -> int:
        return self.allocated_cells * LINE_BYTES


#: HC-2 coprocessor memory through the crossbar interconnect: a random
#: access takes ~680 ns at 125 MHz
DRAM_LATENCY_CYCLES = 85.0


class DramModel:
    """Shared DRAM: channels, latency, bandwidth accounting."""

    #: cycles between two requests a channel accepts
    channel_issue_interval_cycles = 1.0

    def __init__(
        self,
        engine: Engine,
        clock: ClockDomain,
        heap: Heap,
        latency_cycles: float = DRAM_LATENCY_CYCLES,
        channels: int = 8,
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
        self.channel_interval_ns = clock.ns(self.channel_issue_interval_cycles)
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

    A request is no object but one flat tuple, ``(counter, handler,
    addr, ...)``: the DRAM counter its access bumps, its kind's
    completion handler (chosen when it is issued), then the arguments
    its entry point received.  The same tuple is the argument of every
    work item the request becomes.  Every entry point hands its tuple to
    :meth:`_issue`: one that issues at once arbitrates its channel
    inside the caller (:meth:`_launch`) and pushes ``handler`` at the
    instant DRAM serves it; one that waits for the port's issue slot is
    first a :meth:`_launch` item at that slot; one that finds the port
    full waits in ``_pending`` until a completion's :meth:`_retire`
    frees a place.  The hot kinds' handlers are bound once, in
    ``__init__``, so a request allocates its tuple and nothing else.
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
        self._pending: Deque[tuple] = deque()
        # the hot handlers, bound once: launches and completions are
        # pushed as closure-free (when, seq, fn, request) work items
        self._launch_cb = self._launch
        self._post_write_done_cb = self._post_write_done
        self._read_cb_done_cb = self._read_cb_done

    # -- public operations -------------------------------------------------
    def read(self, addr: int) -> Event:
        """Read a cell; the event fires with the cell's value at service."""
        ev = Event(self.engine)
        self._issue((self.dram._reads, self._read_done, addr, ev))
        return ev

    def write(self, addr: int, value: Any) -> Event:
        """Write a cell; the event fires when the write is serviced."""
        ev = Event(self.engine)
        self._issue((self.dram._writes, self._write_done, addr, value, ev))
        return ev

    def post_write(self, addr: int, value: Any) -> None:
        """Posted (fire-and-forget) write; still occupies an issue slot."""
        self._issue((self.dram._writes, self._post_write_done_cb, addr,
                     value))

    def read_cb(self, addr: int, fn: Callable, arg: Any) -> None:
        """Read the cell as stored (:meth:`Heap.load_raw`: a cold row
        lands as its batch and stays cold), with a closure-free
        completion callback.

        ``fn((arg, value))`` is called inside the completion firing, at
        the instant the event of :meth:`read` would fire — no
        :class:`Event` is allocated.  This is the completion path of the
        index pipelines.
        """
        self._issue((self.dram._reads, self._read_cb_done_cb, addr, fn, arg))

    def write_cb(self, addr: int, value: Any, fn: Callable, arg: Any) -> None:
        """Write with a closure-free completion callback (see read_cb)."""
        self._issue((self.dram._writes, self._write_cb_done, addr, value,
                     fn, arg))

    def apply(self, addr: int, fn: Callable[[Any], None]) -> Event:
        """Read-modify-write: run ``fn(cell_value)`` at service time.

        Models a masked line write (e.g. updating one field of a record
        header); the mutation happens when DRAM services the request,
        preserving hazard semantics.
        """
        ev = Event(self.engine)
        self._issue((self.dram._writes, self._apply_done, addr, fn, ev))
        return ev

    def post_apply(self, addr: int, fn: Callable[[Any], None]) -> None:
        self._issue((self.dram._writes, self._post_apply_done, addr, fn))

    def post_write_back(self, addr: int) -> None:
        """Posted write of a line whose new contents live outside its
        cell (a cold row's raised read time): the issue slot, channel
        and DRAM write of :meth:`post_write`, but nothing is stored."""
        self._issue((self.dram._writes, self._post_write_back_done, addr))

    @property
    def outstanding(self) -> int:
        return self._outstanding

    # -- issue ---------------------------------------------------------------
    def _issue(self, req: tuple) -> None:
        """Take a place and the port's issue slot for ``req``."""
        if self._outstanding >= self.max_outstanding:
            self._pending.append(req)
            return
        self._outstanding += 1
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

    def _launch(self, req: tuple) -> None:
        """Arbitrate the channel of ``req`` and push its completion."""
        dram = self.dram
        engine = self.engine
        now = engine.now
        # same-instant requests to one channel are served in the order
        # their launches fire
        channel_free = dram._channel_free
        ch = req[2] % dram.channels
        free = channel_free[ch]
        if free < now:
            free = now
        channel_free[ch] = free + dram.channel_interval_ns
        req[0].value += 1
        # latency > 0, so the completion is never stamped ``now`` and
        # goes straight onto the heap
        seq = engine._seq = engine._seq + 1
        heappush(engine._heap, (free + dram.latency_ns, seq, req[1], req))

    # -- completions: one per kind ---------------------------------------------
    # Each serves its cell through Heap.load / load_raw / store (a
    # write-back stores nothing), frees its place (issuing the oldest
    # waiting request), then hands the value over inside this firing:
    # the completion *is* the delivery, no relay item on the ready-deque.
    def _retire(self) -> None:
        self._outstanding -= 1
        if self._pending:
            self._issue(self._pending.popleft())

    def _read_done(self, req: tuple) -> None:
        _counter, _done, addr, ev = req
        value = self.dram.heap.load(addr)
        self._retire()
        ev.succeed_now(value)

    def _write_done(self, req: tuple) -> None:
        _counter, _done, addr, value, ev = req
        self.dram.heap.store(addr, value)
        self._retire()
        ev.succeed_now(None)

    def _post_write_done(self, req: tuple) -> None:
        self.dram.heap.store(req[2], req[3])
        self._retire()

    def _read_cb_done(self, req: tuple) -> None:
        _counter, _done, addr, fn, arg = req
        value = self.dram.heap.load_raw(addr)
        self._retire()
        fn((arg, value))

    def _post_write_back_done(self, _req: tuple) -> None:
        self._retire()

    def _write_cb_done(self, req: tuple) -> None:
        _counter, _done, addr, value, fn, arg = req
        self.dram.heap.store(addr, value)
        self._retire()
        fn((arg, None))

    def _apply_done(self, req: tuple) -> None:
        _counter, _done, addr, fn, ev = req
        fn(self.dram.heap.load(addr))
        self._retire()
        ev.succeed_now(None)

    def _post_apply_done(self, req: tuple) -> None:
        _counter, _done, addr, fn = req
        fn(self.dram.heap.load(addr))
        self._retire()
