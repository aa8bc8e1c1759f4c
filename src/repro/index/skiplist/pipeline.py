"""The hardware skiplist pipeline (§4.4.2, Figure 5b).

    Stage0 --> Stage1 --> ... --> StageN-1 (bottom) --+--> Scanner*
    (each owns a top-heavy range of levels)           (SCAN / RANGE_SCAN)

Each stage chases pointers horizontally inside its exclusive range of
levels, drills down, and hands the instruction on as it leaves the
range.  Stage 0 first fetches the key and reads the head tower.  The
bottom stage owns level 0: it resolves point operations, installs new
towers (a validated splice along the recorded insert path) and hands
range scans round-robin to the scanners.  Stages have *internal*
memory stalls, so index parallelism is bound by pipeline depth (Figure
11 saturates around 8 in flight).  Insert-insert hazards are prevented
by entry-point locks plus traversal stalls (Figure 7b).

Stages are :class:`~repro.index.common.PipelineBase`'s and keep their
instruction across its stalls: a hop (a look at the successor on the
current level) is one body plus one DRAM completion.  A stage takes an
instruction in a same-instant arrival body, as the process pipeline it
replaced woke on its queue, so every same-instant DRAM tie stays put.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from itertools import cycle, repeat
from typing import Any, List, Optional, Tuple

from ...isa.instructions import Opcode
from ...mem.records import NULL_ADDR, Tower, head_tower
from ...sim.memory import ColdRows
from ...txn.cc import DbResult, ResultCode
from ..common import DbRequest, PipelineBase, Scan, key_column
from ..locks import LockTable

__all__ = ["SkiplistTimings", "SkiplistPipeline", "compute_level_ranges"]

#: seed of the tower-height draws (one stream per pipeline)
_HEIGHT_SEED = 0xB10


@dataclass(frozen=True)
class SkiplistTimings:
    """Per-action service times in FPGA cycles."""

    hop: float = 4.0            # per horizontal/vertical step beyond the read
    keyfetch: float = 2.0
    terminal: float = 10.0      # match handling / visibility check
    splice_per_level: float = 6.0
    scan_emit: float = 6.0      # per collected tuple (visibility + buffer write)


def compute_level_ranges(max_height: int, n_stages: int) -> List[Tuple[int, int]]:
    """Split levels ``max_height-1 .. 0`` into top-heavy stage ranges:
    the two bottom stages get one level each, the next ones two, and
    the top stage absorbs the remainder.  Returns ``[(top, bottom),
    ...]`` from the top stage to the bottom stage."""
    if n_stages < 1:
        raise ValueError("need at least one stage")
    if max_height < n_stages:
        raise ValueError("max_height must be >= n_stages")
    sizes = [1 if i < 2 else 2 for i in range(n_stages - 1)]  # bottom up
    if max_height - sum(sizes) < 1:
        # fewer levels than the heuristic wants: flatten to ones
        sizes = [1] * (n_stages - 1)
    sizes.append(max_height - sum(sizes))  # the top stage
    ranges: List[Tuple[int, int]] = []
    level = max_height - 1
    for size in reversed(sizes):  # top stage first
        ranges.append((level, level - size + 1))
        level -= size
    return ranges


class SkiplistPipeline(PipelineBase):
    """One partition's skiplist index coprocessor."""

    trace_category = "skiplist"
    issue_intervals = (4.0, 4.0)
    #: tower levels (a loaded run keeps its tower heights as bytes)
    max_height = 20
    #: traversal stages: the pipeline depth that bounds Figure 11
    n_stages = 8

    def __init__(self, engine, clock, dram, name: str,
                 n_scanners: int = 1,
                 timings: Optional[SkiplistTimings] = None,
                 hazard_prevention: bool = True,
                 create_default_table: bool = True, **kw):
        self.n_scanners = n_scanners
        self.timings = timings or SkiplistTimings()
        self.hazard_prevention = hazard_prevention
        self.level_ranges = compute_level_ranges(self.max_height,
                                                 self.n_stages)
        self._rng = random.Random(_HEIGHT_SEED)
        super().__init__(engine, clock, dram, name, **kw)
        self.locks = LockTable(engine)
        self.tower_count = 0
        # host loader: rows installed, and descents (one per run)
        self.load_rows = self.stats.counter(f"{name}.load.rows")
        self.load_descents = self.stats.counter(f"{name}.load.descents")
        if create_default_table:
            # single-table convenience (used heavily by unit tests)
            self.add_table(0)

    def add_table(self, table_id: int = 0) -> None:
        """Give a table its own -inf sentinel head tower: one
        coprocessor serves every skiplist of its partition."""
        if table_id in self._tables:
            raise ValueError(f"table {table_id} already registered")
        addr = self.dram.heap.alloc()
        self.dram.heap.store(addr, head_tower(self.max_height))
        self._tables[table_id] = addr

    # -- stages ------------------------------------------------------------
    def _build(self) -> None:
        t = self.timings
        ns = self.clock.ns
        self._hop_ns, self._keyfetch_ns = ns(t.hop), ns(t.keyfetch)
        self._terminal_ns, self._emit_ns = ns(t.terminal), ns(t.scan_emit)
        # traversal stage i is slot i, the scanners follow
        self._stage(self._start, 0.0)
        for _ in range(1, self.n_stages):
            self._stage(self._arrive, 0.0)
        for _ in range(self.n_scanners):
            self._stage(self._scan_read, 0.0)
        self._bottom = self.n_stages - 1
        self._scan_rr = cycle(range(self.n_stages,
                                    self.n_stages + self.n_scanners))

    def _enter(self, req: DbRequest) -> None:
        if req.op is Opcode.INSERT:
            req._new_height = self._draw_height()
            req._path = {}
            req._entry_lock = None
        self._put(0, req)

    def _draw_height(self) -> int:
        h = 1
        while h < self.max_height and self._rng.random() < 0.5:
            h += 1
        return h

    # -- traversal stages ---------------------------------------------------
    def _start(self, req: DbRequest) -> None:
        """Stage 0: resolve the key, then read the table's head tower.  A
        request in traversal carries its stage, level and tower."""
        req._stage = 0
        req._level = self.max_height - 1
        req._cur_addr = self._table(req.table_id)
        req._locking = self.hazard_prevention and req.op not in (
            Opcode.SCAN, Opcode.RANGE_SCAN)
        if req.key_in_cell:
            self._after(self._keyfetch_ns, self._resolve_key, req)
        else:
            self._resolve_key(req)

    def _resolve_key(self, req: DbRequest) -> None:
        if self._resolve(req, self._read_head, req):
            self._read_head(req)

    def _read_head(self, req: DbRequest) -> None:
        self.read_port.read_cb(req._cur_addr, self._head_landed, req)

    def _head_landed(self, landed: tuple) -> None:
        req, head = landed
        req._cur = head
        self._after(self._hop_ns, self._hop, req)

    def _arrive(self, req: DbRequest) -> None:
        self._after(self._hop_ns, self._hop, req)

    def _hop(self, req: DbRequest) -> None:
        """Look at the current tower's successor on the current level."""
        cur, level = req._cur, req._level
        next_addr = cur.nexts[level] if level < cur.height else NULL_ADDR
        if not next_addr:
            self._level_end(req)
        elif not req._locking or self.locks.wait_clear(
                (next_addr, level), self._read_next, (req, next_addr)):
            self._read_next((req, next_addr))

    def _read_next(self, hop: tuple) -> None:
        self.read_port.read_cb(hop[1], self._next_landed, hop)

    def _next_landed(self, landed: tuple) -> None:
        (req, addr), nxt = landed
        if nxt is not None and nxt.key < req.key:
            req._cur_addr, req._cur = addr, nxt
            self._after(self._hop_ns, self._hop, req)
        else:
            self._level_end(req)

    def _level_end(self, req: DbRequest) -> None:
        """The walk along this level is over: an INSERT records its
        insert path, locking the entry point at its new tower's top."""
        level = req._level
        if req.op is Opcode.INSERT and level < req._new_height:
            req._path[level] = req._cur_addr
            if req._entry_lock is None and self.hazard_prevention:
                req._entry_lock = (req._cur_addr, level)
                if not self.locks.acquire(req._entry_lock, self._descend,
                                          req):
                    return
        self._descend(req)

    def _descend(self, req: DbRequest) -> None:
        level = req._level
        if level == 0:
            # the bottom stage resolves the request, holding the stage
            self._after(self._terminal_ns, self._terminal, req)
        elif not req._locking or self.locks.wait_clear(
                (req._cur_addr, level - 1), self._drop, req):
            self._drop(req)

    def _drop(self, req: DbRequest) -> None:
        req._level -= 1
        stage = req._stage
        if req._level >= self.level_ranges[stage][1]:
            self._after(self._hop_ns, self._hop, req)
        else:
            req._stage = stage + 1
            self._put(stage + 1, req)
            self._next(stage)

    # -- bottom-stage terminal handling ---------------------------------------
    def _terminal(self, req: DbRequest) -> None:
        pred = req._cur
        if req.op in (Opcode.SCAN, Opcode.RANGE_SCAN):
            # hand off to a scanner: first tower with key >= start key
            scan = Scan(req, next(self._scan_rr))
            scan.addr = pred.nexts[0]
            self._put(scan.owner, scan)
            self._next(self._bottom)
        elif req.op is Opcode.INSERT:
            self.engine.follow((self._install(req, req._cur_addr, pred),
                                self._next, self._bottom))
        else:
            # point SEARCH / UPDATE / REMOVE: walk level 0 to the key
            self._walk(req, pred.nexts[0])

    def _walk(self, req: DbRequest, addr: int) -> None:
        if addr:
            self.read_port.read_cb(addr, self._walk_landed, (req, addr))
        else:
            self._finish_point(req, NULL_ADDR, None)
            self._next(self._bottom)

    def _walk_landed(self, landed: tuple) -> None:
        (req, addr), tower = landed
        if tower is not None and tower.key < req.key:
            self._walk(req, tower.nexts[0])
            return
        self._finish_point(req, addr, tower if tower is not None
                           and tower.key == req.key else None)
        self._next(self._bottom)

    def _install(self, req: DbRequest, pred_addr: int, pred: Tower):
        """Validated splice: re-walk each level of the recorded path (a
        hint) with fresh reads; the bottom stage serialises installs."""
        height = req._new_height
        new_addr = self.dram.heap.alloc()
        preds: List[Tower] = []
        pred_addrs: List[int] = []
        # level 0 predecessor is where traversal stopped; higher ones from path
        cur_addr, cur = pred_addr, pred
        for level in range(height):
            if level > 0:
                cur_addr = req._path.get(level, self._table(req.table_id))
                cur = yield self.read_port.read(cur_addr)
            # validate: advance while the successor still sorts below the key
            while True:
                nxt_addr = cur.nexts[level] if level < cur.height else NULL_ADDR
                if not nxt_addr:
                    break
                nxt = yield self.read_port.read(nxt_addr)
                if nxt is None or not (nxt.key < req.key):
                    break
                cur_addr, cur = nxt_addr, nxt
            preds.append(cur)
            pred_addrs.append(cur_addr)
            yield self.clock.delay(self.timings.splice_per_level)
        # duplicate check at level 0
        succ0_addr = preds[0].nexts[0]
        succ0 = (yield self.read_port.read(succ0_addr)) if succ0_addr else None
        if succ0 is not None and succ0.key == req.key and \
                not (succ0.tombstone and not succ0.dirty):
            result = DbResult(ResultCode.DUPLICATE, tuple_addr=succ0_addr)
        else:
            tower = Tower(key=req.key, fields=list(req.insert_payload or []),
                          height=height,
                          nexts=[preds[l].nexts[l] for l in range(height)],
                          addr=new_addr, read_ts=req.ts, write_ts=req.ts,
                          dirty=True)
            yield self.write_port.write(new_addr, tower)  # visible before linked
            for level in range(height):
                linked = self.write_port.apply(
                    pred_addrs[level], partial(self._link, level, new_addr))
            yield linked
            self.tower_count += 1
            result = DbResult(ResultCode.OK, tuple_addr=new_addr)
        if req._entry_lock is not None:
            self.locks.release(req._entry_lock)
        self._done(req, result)

    @staticmethod
    def _link(level: int, new_addr: int, pred_tower: Tower) -> None:
        pred_tower.nexts[level] = new_addr

    # -- scanners -----------------------------------------------------------
    def _scan_read(self, scan: Scan) -> None:
        """A scanner reads the next tower, or ends the scan."""
        if scan.addr and scan.n < scan.req.scan_count:
            self.read_port.read_cb(scan.addr, self._scan_landed, scan)
        else:
            self._scan_end(scan)

    def _scan_landed(self, landed: tuple) -> None:
        scan, tower = landed
        hi = scan.req.scan_hi
        if tower is None or (hi is not None and tower.key > hi):
            self._scan_end(scan)    # the end, or RANGE_SCAN past its key
        else:
            scan.row = tower
            self._after(self._emit_ns, self._scan_emit, scan)

    def _scan_emit(self, scan: Scan) -> None:
        if self._emit(scan):
            scan.addr = scan.row.nexts[0]
            self._scan_read(scan)
        else:
            self._scan_end(scan)

    def _scan_end(self, scan: Scan) -> None:
        self._done(scan.req, DbResult(scan.code, value=scan.n))
        self._next(scan.owner)

    # -- host-side helpers (timing-free) -----------------------------------
    def _load(self, keys, fields, ts: int, head_addr: int) -> Tuple[int, int]:
        """The one splice; returns ``(count, last tower address)``.  Rows go
        in as cold runs of ascending keys below the first one's level-0
        successor, one descent each (:meth:`_find`, :meth:`_splice_run`);
        draws, checks and allocations follow per-row order, so the heap
        image does not depend on the batching."""
        n_rows = len(keys)
        load = self.dram.heap.load
        head = load(head_addr)
        addr = NULL_ADDR
        i = n = descents = 0
        try:
            while i < n_rows:
                key = keys[i]
                descents += 1
                finger = self._find(head, key)
                bound = None
                if finger[0].nexts[0]:
                    bound = load(finger[0].nexts[0]).key
                    if bound == key:
                        raise ValueError(f"duplicate key in bulk load: {key!r}")
                # the run: ascending keys, every one below ``bound``
                j = i + 1
                last_key = key
                while j < n_rows:
                    next_key = keys[j]
                    if not (last_key < next_key) or (
                            bound is not None and not (next_key < bound)):
                        break
                    last_key = next_key
                    j += 1
                run = ColdRows(Tower.from_run, NULL_ADDR, ts)
                try:
                    run.fields.extend(map(tuple, fields[i:j]))
                finally:
                    if run.fields:
                        addr = self._splice_run(run, keys[i:i + len(run)],
                                                finger)
                        n += len(run)
                i = j
        finally:
            self.tower_count += n
            self.load_rows.add(n)
            self.load_descents.add(descents)
        return n, addr

    def _find(self, head: Tower, key: Any) -> List[Tower]:
        """``finger[l]``, the level-``l`` predecessor of ``key`` for every
        level, read through ``Heap.load`` like any other reader."""
        load = self.dram.heap.load
        finger = [head] * self.max_height
        cur = head
        for level in range(self.max_height - 1, -1, -1):
            while cur.nexts[level]:
                nxt = load(cur.nexts[level])
                if not (nxt.key < key):
                    break
                cur = nxt
            finger[level] = cur
        return finger

    def _splice_run(self, run: ColdRows, keys, finger: List[Tower]) -> int:
        """Place a run in one ``heap.alloc`` and link it after ``finger``
        (the rest :meth:`Tower.from_run` finds from the height column);
        returns the address of its last row."""
        heap = self.dram.heap
        n = len(keys)
        run.keys = key_column(keys)
        run.base = base = heap.alloc(n)
        run.heights = heights = bytearray(n)
        draw = self._draw_height
        firsts: List[int] = []          # the first row of each level
        for row in range(n):
            height = heights[row] = draw()
            if height > len(firsts):
                firsts += repeat(row, height - len(firsts))
        run.tails = [finger[level].nexts[level] for level in range(len(firsts))]
        for level, first in enumerate(firsts):
            finger[level].nexts[level] = base + first
        heap.place_cold(run)
        return base + n - 1

    def _records(self, table_id: int = 0, lo: Any = None):
        """``(key, tower)`` along level 0, from the first tower at or
        above ``lo`` (the first of all without)."""
        load = self.dram.heap.load
        head = load(self._table(table_id))
        addr = (head if lo is None else self._find(head, lo)[0]).nexts[0]
        while addr:
            tower = load(addr)
            yield tower.key, tower
            addr = tower.nexts[0]

    def lookup_direct(self, key: Any, table_id: int = 0) -> Optional[Tower]:
        for found, tower in self._records(table_id, key):
            if found != key:
                return None
            if not (tower.tombstone and not tower.dirty):
                return tower
        return None

    def invariant_check(self, table_id: int = 0) -> None:
        """Assert every level strictly sorted and a subsequence of the one
        below, and no dangling pointers (used by property tests)."""
        heap = self.dram.heap
        lower = None
        for level in range(self.max_height):
            keys = []
            addr = heap.load(self._table(table_id)).nexts[level]
            while addr:
                tower = heap.load(addr)
                if tower is None:
                    raise AssertionError(f"dangling pointer at level {level}")
                if tower.height <= level:
                    raise AssertionError(
                        f"tower {tower.key!r} linked above its height")
                if lower is not None and tower.key not in lower:
                    raise AssertionError(f"key {tower.key!r} at level {level} "
                                         f"missing from level {level - 1}")
                keys.append(tower.key)
                addr = tower.nexts[level]
            if any(not (a < b) for a, b in zip(keys, keys[1:])):
                raise AssertionError(f"level {level} not strictly sorted")
            lower = set(keys)
