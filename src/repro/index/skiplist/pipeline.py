"""The hardware skiplist pipeline (§4.4.2, Figure 5b).

The skiplist's levels are split into *exclusive ranges*, one per
pipeline stage; a stage chases pointers horizontally inside its range,
drills down, and hands the instruction to the next stage the moment it
leaves its range — immediately taking the next incoming instruction.
The bottom-level stage exclusively owns level 0: it resolves point
operations, installs new towers (validated splice along the recorded
insert path) and hands range scans to dedicated scanner modules.

Because stages have *internal* memory stalls (dependent pointer
chasing), index parallelism is bound by pipeline depth, which is why
Figure 11 saturates around 8 in-flight requests — unlike the hash
pipeline.  Level ranges are top-heavy ("if towers are substantially
sparser at upper levels, upper pipeline stages could be assigned
larger ranges").

Insert-insert hazards are prevented by entry-point locks plus
traversal stalls (Figure 7b); scans are stall-free.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import cycle, repeat
from typing import Any, List, Optional, Tuple

from ...isa.instructions import Opcode
from ...mem.records import NULL_ADDR, Tower, head_tower
from ...sim.memory import ColdRows
from ...sim.sync import Fifo
from ...txn.cc import DbResult, ResultCode, check_read, check_write
from ..common import DbRequest, IndexError_, PipelineBase, key_column
from .locktable import SkiplistLockTable

__all__ = ["SkiplistTimings", "SkiplistPipeline", "compute_level_ranges"]


@dataclass(frozen=True)
class SkiplistTimings:
    """Per-action service times in FPGA cycles."""

    hop: float = 4.0            # per horizontal/vertical step beyond the read
    keyfetch: float = 2.0
    terminal: float = 10.0      # match handling / visibility check
    splice_per_level: float = 6.0
    scan_emit: float = 6.0      # per collected tuple (visibility + buffer write)


def compute_level_ranges(max_height: int, n_stages: int) -> List[Tuple[int, int]]:
    """Split levels ``max_height-1 .. 0`` into top-heavy stage ranges.

    The two bottom stages get one level each, the next ones two, and
    the top stage absorbs the remainder — matching the paper's advice
    on balanced range binding.  Returns ``[(top, bottom), ...]`` from
    the top stage to the bottom stage.
    """
    if n_stages < 1:
        raise ValueError("need at least one stage")
    if max_height < n_stages:
        raise ValueError("max_height must be >= n_stages")
    sizes = []
    for i in range(n_stages - 1):  # bottom to top, excluding top stage
        sizes.append(1 if i < 2 else 2)
    used = sum(sizes)
    top_size = max_height - used
    if top_size < 1:
        # fewer levels than the heuristic wants: flatten to ones
        sizes = [1] * (n_stages - 1)
        top_size = max_height - (n_stages - 1)
    sizes.append(top_size)  # top stage
    ranges: List[Tuple[int, int]] = []
    level = max_height - 1
    for size in reversed(sizes):  # top stage first
        ranges.append((level, level - size + 1))
        level -= size
    assert ranges[-1][1] == 0
    return ranges


class SkiplistPipeline(PipelineBase):
    """One partition's skiplist index coprocessor."""

    trace_category = "skiplist"

    def __init__(self, engine, clock, dram, name: str,
                 max_height: int = 20,
                 n_stages: int = 8,
                 n_scanners: int = 1,
                 timings: Optional[SkiplistTimings] = None,
                 hazard_prevention: bool = True,
                 max_in_flight: int = 16,
                 read_issue_interval_cycles: float = 4.0,
                 write_issue_interval_cycles: float = 4.0,
                 height_seed: int = 0xB10,
                 create_default_table: bool = True,
                 stats=None, tracer=None):
        if max_height > 255:
            # a loaded run keeps its tower heights as bytes
            raise ValueError("max_height must be <= 255")
        self.max_height = max_height
        self.n_stages = n_stages
        self.n_scanners = n_scanners
        self.timings = timings or SkiplistTimings()
        self.hazard_prevention = hazard_prevention
        self.level_ranges = compute_level_ranges(max_height, n_stages)
        self._rng = random.Random(height_seed)
        self._dram = dram
        # one coprocessor serves every skiplist of its partition; each
        # table gets its own -inf sentinel head tower: table_id -> addr
        self._heads: dict = {}
        super().__init__(engine, clock, dram, name,
                         max_in_flight=max_in_flight,
                         read_issue_interval_cycles=read_issue_interval_cycles,
                         write_issue_interval_cycles=write_issue_interval_cycles,
                         stats=stats, tracer=tracer)
        self.locks = SkiplistLockTable(engine, name=f"{name}.locks")
        self.tower_count = 0
        # host loader: rows installed, and searches from the head (one
        # per run: the rest of a run links without one)
        self.load_rows = self.stats.counter(f"{name}.load.rows")
        self.load_descents = self.stats.counter(f"{name}.load.descents")
        if create_default_table:
            # single-table convenience (used heavily by unit tests)
            self.add_table(0)

    def add_table(self, table_id: int = 0) -> None:
        if table_id in self._heads:
            raise ValueError(f"table {table_id} already registered")
        addr = self._dram.heap.alloc()
        self._dram.heap.store(addr, head_tower(self.max_height))
        self._heads[table_id] = addr

    def head_addr_of(self, table_id: int = 0) -> int:
        try:
            return self._heads[table_id]
        except KeyError:
            raise IndexError_(f"{self.name}: unknown table {table_id}") from None

    # ------------------------------------------------------------------
    def _build(self) -> None:
        eng = self.engine
        self.stage_queues = [Fifo(eng, name=f"{self.name}.q.stage{i}")
                             for i in range(self.n_stages)]
        self.scan_queues = [Fifo(eng, name=f"{self.name}.q.scan{i}")
                            for i in range(self.n_scanners)]
        self._scan_rr = cycle(range(self.n_scanners))
        for i, (top, bottom) in enumerate(self.level_ranges):
            is_bottom = (i == self.n_stages - 1)
            eng.process(self._stage(i, top, bottom, is_bottom),
                        name=f"{self.name}.stage{i}")
        for i, q in enumerate(self.scan_queues):
            eng.process(self._scanner(q), name=f"{self.name}.scanner{i}")

    def _enter(self, req: DbRequest) -> None:
        if req.op is Opcode.INSERT:
            req._new_height = self._draw_height()
            req._path = {}
            req._entry_lock = None
        self._forward(self.stage_queues[0],
                      (req, self.head_addr_of(req.table_id), None,
                       self.max_height - 1))

    def _draw_height(self) -> int:
        h = 1
        while h < self.max_height and self._rng.random() < 0.5:
            h += 1
        return h

    # -- traversal stages -------------------------------------------------
    def _stage(self, idx: int, top: int, bottom: int, is_bottom: bool):
        t = self.timings
        while True:
            req, cur_addr, cur, level = yield self.stage_queues[idx].get()
            if req.key is None and req.key_addr is not None and cur is None:
                # first stage fetches the search key from the txn block
                yield self.clock.delay(t.keyfetch)
                req.key = yield self.read_port.read(req.key_addr)
                if req.op is Opcode.INSERT and isinstance(req.key, tuple) \
                        and len(req.key) == 2 and req.insert_payload is None:
                    req.key, req.insert_payload = req.key
            elif req.key is None:
                req.key = req.key_value
                if req.op is Opcode.INSERT and req.payload_addr is not None \
                        and req.insert_payload is None:
                    cell = yield self.read_port.read(req.payload_addr)
                    req.insert_payload = list(cell or [])
            if cur is None:
                cur = yield self.read_port.read(cur_addr)
            check_locks = self.hazard_prevention and req.op not in (
                Opcode.SCAN, Opcode.RANGE_SCAN)
            while level >= bottom:
                # horizontal movement within this stage's range
                while True:
                    yield self.clock.delay(t.hop)
                    next_addr = cur.nexts[level] if level < cur.height else NULL_ADDR
                    if not next_addr:
                        break
                    if check_locks and self.locks.locked(next_addr, level):
                        yield self.locks.wait_clear(next_addr, level)
                    nxt = yield self.read_port.read(next_addr)
                    if nxt is None or not (nxt.key < req.key):
                        break
                    cur_addr, cur = next_addr, nxt
                # record the insert path at this level
                if req.op is Opcode.INSERT and level <= req._new_height - 1:
                    if req._entry_lock is None and self.hazard_prevention:
                        req._entry_lock = (cur_addr, level)
                        yield self.locks.acquire(cur_addr, level)
                    req._path[level] = cur_addr
                if level == 0:
                    break
                if check_locks and self.locks.locked(cur_addr, level - 1):
                    yield self.locks.wait_clear(cur_addr, level - 1)
                level -= 1
            if is_bottom:
                yield from self._terminal(req, cur_addr, cur)
            else:
                self._forward(self.stage_queues[idx + 1],
                              (req, cur_addr, cur, level))

    # -- bottom-stage terminal handling ---------------------------------------
    def _terminal(self, req: DbRequest, pred_addr: int, pred: Tower):
        t = self.timings
        yield self.clock.delay(t.terminal)
        if req.op in (Opcode.SCAN, Opcode.RANGE_SCAN):
            # hand off to a scanner: first tower with key >= start key
            first_addr = pred.nexts[0]
            self._forward(self.scan_queues[next(self._scan_rr)],
                          (req, first_addr))
            return
        if req.op is Opcode.INSERT:
            yield from self._install(req, pred_addr, pred)
            return
        # point SEARCH / UPDATE / REMOVE: examine the successor at level 0
        succ_addr = pred.nexts[0]
        record = None
        while succ_addr:
            record = yield self.read_port.read(succ_addr)
            if record is None or record.key > req.key:
                record = None
                break
            if record.key == req.key:
                if record.tombstone and not record.dirty:
                    record = None  # committed delete
                break
            succ_addr = record.nexts[0]
        if record is None:
            self._done(req, DbResult(ResultCode.NOT_FOUND))
            return
        if req.op is Opcode.SEARCH:
            code = check_read(record, req.ts)
        else:
            code = check_write(record, req.ts, tombstone=req.op is Opcode.REMOVE)
        if code is ResultCode.OK:
            self.write_port.post_write(succ_addr, record)
        value = record.fields[0] if (code is ResultCode.OK and record.fields) else None
        self._done(req, DbResult(code, tuple_addr=succ_addr, value=value))

    def _install(self, req: DbRequest, pred_addr: int, pred: Tower):
        """Validated splice: re-walk each recorded path level with fresh
        reads (the recorded path is a hint; the bottom stage serialises
        installs, so fresh pointers cannot change underneath us)."""
        t = self.timings
        height = req._new_height
        new_addr = self._dram.heap.alloc()
        preds: List[Tower] = []
        pred_addrs: List[int] = []
        # level 0 predecessor is where traversal stopped; higher ones from path
        cur_addr, cur = pred_addr, pred
        for level in range(height):
            if level > 0:
                cur_addr = req._path.get(level, self.head_addr_of(req.table_id))
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
            yield self.clock.delay(t.splice_per_level)
        # duplicate check at level 0
        succ0_addr = preds[0].nexts[0]
        if succ0_addr:
            succ0 = yield self.read_port.read(succ0_addr)
            if succ0 is not None and succ0.key == req.key and \
                    not (succ0.tombstone and not succ0.dirty):
                self._release_entry_lock(req)
                self._done(req, DbResult(ResultCode.DUPLICATE,
                                         tuple_addr=succ0_addr))
                return
        tower = Tower(key=req.key, fields=list(req.insert_payload or []),
                      height=height,
                      nexts=[preds[l].nexts[l] for l in range(height)],
                      addr=new_addr, read_ts=req.ts, write_ts=req.ts, dirty=True)
        write_ev = self.write_port.write(new_addr, tower)
        yield write_ev  # the tower must be visible before it is linked
        last_ev = None
        for level in range(height):
            last_ev = self.write_port.apply(
                pred_addrs[level], self._link(level, new_addr))
        if last_ev is not None:
            yield last_ev
        self.tower_count += 1
        self._release_entry_lock(req)
        self._done(req, DbResult(ResultCode.OK, tuple_addr=new_addr))

    @staticmethod
    def _link(level: int, new_addr: int):
        def apply(pred_tower: Tower) -> None:
            pred_tower.nexts[level] = new_addr
        return apply

    def _release_entry_lock(self, req: DbRequest) -> None:
        if req._entry_lock is not None:
            self.locks.release(*req._entry_lock)
            req._entry_lock = None

    # -- scanners -----------------------------------------------------------
    def _scanner(self, queue: Fifo):
        t = self.timings
        while True:
            req, addr = yield queue.get()
            collected = 0
            code = ResultCode.OK
            while addr and collected < req.scan_count:
                tower = yield self.read_port.read(addr)
                if tower is None:
                    break
                if req.scan_hi is not None and tower.key > req.scan_hi:
                    break   # RANGE_SCAN: past the high key
                yield self.clock.delay(t.scan_emit)
                if tower.visible_at(req.ts):
                    if req.scan_limit and collected >= req.scan_limit:
                        code = ResultCode.SCAN_OVERFLOW
                        break
                    if req.scan_out_addr:
                        self.write_port.post_write(
                            req.scan_out_addr + collected,
                            (tower.key, list(tower.fields)))
                    if req.ts > tower.read_ts:
                        tower.read_ts = req.ts
                        self.write_port.post_write(addr, tower)
                    collected += 1
                addr = tower.nexts[0]
            self._done(req, DbResult(code, value=collected))

    # -- host-side helpers (timing-free) -----------------------------------
    def bulk_load(self, key: Any, fields: List[Any], ts: int = 0,
                  table_id: int = 0) -> int:
        """Install one committed row; returns its tower's address."""
        return self._load_rows((key,), (fields,), ts, table_id)[1]

    def bulk_load_many(self, keys, fields, ts: int = 0,
                       table_id: int = 0) -> int:
        """Bulk-load a key column and its parallel field column in
        order (timing-free host path); returns the number installed."""
        return self._load_rows(keys, fields, ts, table_id)[0]

    def _load_rows(self, keys, fields, ts: int,
                   table_id: int) -> Tuple[int, int]:
        """The one splice: install the rows of two parallel columns,
        return ``(count, address of the last tower)``.

        Rows go in as cold runs (:meth:`_splice_run`): a run is a
        stretch of ascending keys that all sort below the level-0
        successor of the first one's predecessor, so no tower already
        placed lies between two of its rows and the run links without
        reading or building any of its towers.  The one search per run
        — a *descent* from the head, reading placed cells through
        ``Heap.load`` like any other reader — finds the predecessors of
        its first key.  Height draws, duplicate checks and allocations
        happen in per-row order, so the heap image does not depend on
        how rows are batched.  A ``fields`` entry that is not iterable
        stops the batch there, with the rows before it installed and
        counted.
        """
        n_rows = len(keys)
        if len(fields) != n_rows:
            raise ValueError(f"{self.name}: {n_rows} keys offered with "
                             f"{len(fields)} field rows")
        load = self._dram.heap.load
        head = load(self.head_addr_of(table_id))
        addr = NULL_ADDR
        i = n = descents = 0
        try:
            while i < n_rows:
                key = keys[i]
                descents += 1
                # finger[l]: the level-l predecessor of ``key``
                finger = [head] * self.max_height
                cur = head
                for level in range(self.max_height - 1, -1, -1):
                    while True:
                        nxt_addr = cur.nexts[level]
                        if not nxt_addr:
                            break
                        nxt = load(nxt_addr)
                        if not (nxt.key < key):
                            break
                        cur = nxt
                    finger[level] = cur
                bound = None
                if cur.nexts[0]:
                    bound = load(cur.nexts[0]).key
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

    def _splice_run(self, run: ColdRows, keys, finger: List[Tower]) -> int:
        """Lay out and link one run of ``keys`` (ascending, nothing
        placed between them) after the predecessors ``finger``; return
        the address of its last row.

        One ``heap.alloc`` places the run: the addresses row-by-row
        loading hands out.  The level-``l`` successor of a row is the
        next row of the run taller than ``l`` — all
        :meth:`Tower.from_run` needs is the height column — and the
        run's last row at level ``l`` takes over ``finger[l]``'s old
        successor (``run.tails[l]``), while ``finger[l]`` now points at
        the run's first row at that level.
        """
        heap = self._dram.heap
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

    def lookup_direct(self, key: Any, table_id: int = 0) -> Optional[Tower]:
        heap = self._dram.heap
        cur = heap.load(self.head_addr_of(table_id))
        for level in range(self.max_height - 1, -1, -1):
            while True:
                nxt_addr = cur.nexts[level] if level < cur.height else NULL_ADDR
                if not nxt_addr:
                    break
                nxt = heap.load(nxt_addr)
                if not (nxt.key < key):
                    break
                cur = nxt
        addr = cur.nexts[0]
        while addr:
            tower = heap.load(addr)
            if tower.key > key:
                return None
            if tower.key == key and not (tower.tombstone and not tower.dirty):
                return tower
            addr = tower.nexts[0]
        return None

    def items_direct(self, table_id: int = 0) -> List[Tuple[Any, List[Any]]]:
        """All live towers in key order (verification helper)."""
        heap = self._dram.heap
        out = []
        addr = heap.load(self.head_addr_of(table_id)).nexts[0]
        while addr:
            tower = heap.load(addr)
            if not tower.tombstone:
                out.append((tower.key, list(tower.fields)))
            addr = tower.nexts[0]
        return out

    def checkpoint_rows(self, table_id: int = 0):
        """Yield (key, fields, write_ts) for live committed towers."""
        heap = self._dram.heap
        addr = heap.load(self.head_addr_of(table_id)).nexts[0]
        while addr:
            tower = heap.load(addr)
            if not tower.tombstone and not tower.dirty:
                yield tower.key, list(tower.fields), tower.write_ts
            addr = tower.nexts[0]

    def compact_direct(self, table_id: int = 0) -> int:
        """Quiescent maintenance: unlink committed-tombstone towers at
        every level.  Returns the number of towers removed."""
        heap = self._dram.heap
        head_addr = self.head_addr_of(table_id)
        removed = set()
        for level in range(self.max_height - 1, -1, -1):
            node = heap.load(head_addr)
            while True:
                nxt_addr = node.nexts[level] if level < node.height else NULL_ADDR
                if not nxt_addr:
                    break
                nxt = heap.load(nxt_addr)
                if nxt.tombstone and not nxt.dirty:
                    node.nexts[level] = (nxt.nexts[level]
                                         if level < nxt.height else NULL_ADDR)
                    removed.add(nxt_addr)
                else:
                    node = nxt
        return len(removed)

    def invariant_check(self, table_id: int = 0) -> None:
        """Assert skiplist structural invariants (used by property tests):
        sorted bottom level; every level-l list is a subsequence of
        level-(l-1); no dangling pointers."""
        heap = self._dram.heap
        level_keys = []
        for level in range(self.max_height):
            keys = []
            cur = heap.load(self.head_addr_of(table_id))
            addr = cur.nexts[level]
            while addr:
                tower = heap.load(addr)
                if tower is None:
                    raise AssertionError(f"dangling pointer at level {level}")
                if tower.height <= level:
                    raise AssertionError(
                        f"tower {tower.key!r} linked above its height")
                keys.append(tower.key)
                addr = tower.nexts[level]
            if any(not (a < b) for a, b in zip(keys, keys[1:])):
                raise AssertionError(f"level {level} not strictly sorted")
            level_keys.append(keys)
        for level in range(1, self.max_height):
            lower = set(level_keys[level - 1])
            for k in level_keys[level]:
                if k not in lower:
                    raise AssertionError(
                        f"key {k!r} at level {level} missing from level {level-1}")
