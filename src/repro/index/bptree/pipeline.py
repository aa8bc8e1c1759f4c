"""The batched level-wise B+ tree pipeline (an extension).

The wave former groups requests into *waves* (the §4.5 batch former
delivers a transaction group's index ops back to back), and a wave
descends one level at a time, every probe visiting level ``k`` before
any visits ``k + 1``.  Each level's node addresses are deduplicated, so
DRAM is read once per distinct node per wave: the level-wise batch
traversal of *Efficient Batch Search Algorithm for B+ Tree Index
Structures with Level-Wise Traversal on FPGAs* (PAPERS.md).

    WaveFormer --> Stage0 --> Stage1 --> ... --> StageN-1 (terminal)
                  (levels assigned bottom-heavy by compute_level_ranges)

Stage 0 first resolves each probe's key, one after another.  The
terminal stage serves the wave's probes in order and alone mutates
structure (insert with split-upward, a purge of committed tombstones
before a split); a probe that raced a split moves right along the leaf
chain.  Range scans descend by their low key, then walk the leaf chain.
REMOVE only plants a tombstone, as an aborted REMOVE must be able to
resurrect the record.  Point reads and scans read a leaf entry's record
cell as stored: a cold row is granted and scanned from its batch's
columns and stays cold (see :class:`~repro.sim.memory.ColdRows`).

Stages are :class:`~repro.index.common.PipelineBase`'s, scheduled per
wave *level*: a level issues all its distinct node fetches at once, and
when the last lands it works out the serial charge in closed form
(``node_fetch`` per fetch from the later of its landing and the
previous charge, then ``probe_step`` per probe still descending).  One
body at the start of the last step schedules the one that moves every
probe down, so the level ends where the serial charge ended in the
order of same-instant work, and no DRAM tie moves.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import repeat
from typing import Any, List, Optional, Tuple

from ...isa.instructions import Opcode
from ...mem.records import NULL_ADDR, BPTreeNode, TupleRecord
from ...sim.memory import ColdRows
from ...txn.cc import DbResult, ResultCode
from ..common import (
    SCAN_EMIT_CYCLES, DbRequest, IndexError_, PipelineBase, Scan, key_column,
)

__all__ = ["BPTreePipeline", "compute_level_ranges", "WAVE_WINDOW_CYCLES"]

#: cycles the wave former keeps a wave open for one more request
WAVE_WINDOW_CYCLES = 16.0

#: stage slots: the wave former, then level stage ``i`` at ``_LEVELS + i``
_FORMER, _LEVELS = 0, 1


def compute_level_ranges(n_levels: int,
                         n_stages: int) -> List[Optional[Tuple[int, int]]]:
    """Assign tree levels ``0`` (root) .. ``n_levels - 1`` (leaves) to
    stages, bottom-heavy: the last stages own one level each (the
    fetch-hungry bottom of the tree), the first absorbs the remainder.
    One inclusive ``(top, bottom)`` per stage, ``None`` for a stage with
    no level at this height (recomputed per wave as the tree grows)."""
    if n_stages < 1:
        raise ValueError("need at least one stage")
    if n_levels < 0:
        raise ValueError("n_levels must be >= 0")
    ranges: List[Optional[Tuple[int, int]]] = [None] * n_stages
    bottom = n_levels - 1
    for stage in range(n_stages - 1, -1, -1):
        if bottom < 0:
            break
        top = bottom if stage else 0
        ranges[stage] = (top, bottom)
        bottom = top - 1
    return ranges


@dataclass(slots=True)
class _TableState:
    """Per-table root pointer and height."""

    root: int
    depth: int = 1


class _Wave:
    """A batch of probes descending in lockstep; a probe is a request
    carrying its node ``_node``, ancestors ``_path`` and, at last, ``_leaf``."""

    __slots__ = ("probes", "ranges", "stage", "levels", "i", "depth",
                 "fetched", "t0", "pending")

    def __init__(self, req: DbRequest):
        self.probes = [req]
        self.ranges: List[Optional[Tuple[int, int]]] = []
        self.stage = 0          # the level stage holding the wave
        self.levels = 0         # levels of its range still to descend
        self.i = 0              # the probe being resolved, then served
        self.depth = 0          # the deepest tree a probe was attached to
        self.fetched: dict = {}  # node addr -> (node, landing time)
        self.t0 = 0.0           # when the current level's fetches went out
        self.pending = 0        # the current level's fetches in flight


def _past_leaf(req: DbRequest) -> bool:
    """The probe's key lies beyond its leaf, which has a right sibling:
    a split moved the key right after the descent read the leaf."""
    leaf = req._leaf
    return bool(leaf.next_leaf and leaf.keys and req.key > leaf.keys[-1])


class BPTreePipeline(PipelineBase):
    """One partition's batched level-wise B+ tree coprocessor."""

    trace_category = "bptree"
    issue_intervals = (4.0, 4.0)
    #: keys per node before it splits: the fixed node format
    fanout = 15
    #: level stages
    n_stages = 4
    #: per-action service times in FPGA cycles
    keyfetch_cycles = 2.0
    node_fetch_cycles = 4.0     # per *distinct* node per wave (BRAM landing)
    probe_step_cycles = 3.0     # per probe per level: separator binary search
    terminal_cycles = 10.0      # leaf entry resolution + visibility check
    split_per_node_cycles = 12.0
    merge_per_node_cycles = 12.0
    scan_emit_cycles = SCAN_EMIT_CYCLES     # per collected tuple

    def __init__(self, engine, clock, dram, name: str,
                 wave_size: int = 8,
                 create_default_table: bool = True, **kw):
        if wave_size < 1:
            raise ValueError("wave_size must be >= 1")
        self.wave_size = wave_size
        super().__init__(engine, clock, dram, name, **kw)
        self.tuple_count = 0
        self.node_fetches = self.stats.counter(f"{name}.node_fetches")
        self.waves_formed = self.stats.counter(f"{name}.waves")
        # host loader: rows installed, and rows that descended from the root
        self.load_rows = self.stats.counter(f"{name}.load.rows")
        self.load_descents = self.stats.counter(f"{name}.load.descents")
        if create_default_table:
            # single-table convenience (used heavily by unit tests)
            self.add_table(0)

    def add_table(self, table_id: int = 0) -> None:
        """Give a table its own tree: one coprocessor serves every B+
        tree of its partition."""
        if table_id in self._tables:
            raise ValueError(f"table {table_id} already registered")
        heap = self.dram.heap
        addr = heap.alloc()
        heap.store(addr, BPTreeNode(is_leaf=True, addr=addr))
        self._tables[table_id] = _TableState(addr)

    def depth_of(self, table_id: int = 0) -> int:
        return self._table(table_id).depth

    # -- stages ------------------------------------------------------------
    def _build(self) -> None:
        ns = self.clock.ns
        self._window_ns = ns(WAVE_WINDOW_CYCLES)
        self._keyfetch_ns = ns(self.keyfetch_cycles)
        self._node_fetch_ns = ns(self.node_fetch_cycles)
        self._probe_step_ns = ns(self.probe_step_cycles)
        self._terminal_ns = ns(self.terminal_cycles)
        self._emit_ns = ns(self.scan_emit_cycles)
        # the per-level and per-row steps, bound once
        self._node_landed_cb = self._node_landed
        self._last_step_cb = self._last_step
        self._descended_cb = self._descended
        self._leaf_landed_cb = self._leaf_landed
        self._next_leaf_cb = self._next_leaf
        self._row_landed_cb = self._row_landed
        self._scan_emit_cb = self._scan_emit
        self._stage(self._form, 0.0)
        for _ in range(self.n_stages):
            self._stage(self._arrive, 0.0)
        self._last = self.n_stages - 1

    def _enter(self, req: DbRequest) -> None:
        self._put(_FORMER, req)

    # -- wave forming -----------------------------------------------------
    def _form(self, req: DbRequest) -> None:
        """Open a wave and keep it open while requests keep arriving within
        ``WAVE_WINDOW_CYCLES`` of each other, up to ``wave_size`` probes
        (``wave_size=1`` is the one-key-at-a-time baseline)."""
        self._fill(_Wave(req), opening=True)

    def _fill(self, wave: _Wave, opening: bool = False) -> None:
        queued = self._backlog[_FORMER]
        probes = wave.probes
        if opening or queued:
            while queued and len(probes) < self.wave_size:
                probes.append(queued.popleft())
            if len(probes) < self.wave_size:
                self._after(self._window_ns, self._fill, wave)
                return
        self.waves_formed.add()
        self._put(_LEVELS, wave)
        self._next(_FORMER)

    # -- level stages -------------------------------------------------------
    def _arrive(self, wave: _Wave) -> None:
        if wave.stage == 0:
            self._resolve_probes(wave)
        else:
            self._begin_levels(wave)

    def _resolve_probes(self, wave: _Wave) -> None:
        """Resolve each probe's key in turn and attach it to its table's
        root; then bind tree levels to stages for the wave's height."""
        probes = wave.probes
        while wave.i < len(probes):
            req = probes[wave.i]
            if req.key_in_cell:
                self._after(self._keyfetch_ns, self._fetch_key, wave)
                return
            if not self._resolve(req, self._probe_resolved, wave):
                return
            self._attach(wave)
        wave.i = 0
        wave.ranges = compute_level_ranges(wave.depth, self.n_stages)
        self._begin_levels(wave)

    def _fetch_key(self, wave: _Wave) -> None:
        self._resolve(wave.probes[wave.i], self._probe_resolved, wave)

    def _probe_resolved(self, wave: _Wave) -> None:
        self._attach(wave)
        self._resolve_probes(wave)

    def _attach(self, wave: _Wave) -> None:
        req = wave.probes[wave.i]
        state = self._table(req.table_id)
        req._node, req._path, req._leaf = state.root, [], None
        wave.depth = max(wave.depth, state.depth)
        wave.i += 1

    def _begin_levels(self, wave: _Wave) -> None:
        rng = wave.ranges[wave.stage]
        wave.levels = rng[1] - rng[0] + 1 if rng is not None else 0
        self._level(wave)

    def _level(self, wave: _Wave) -> None:
        """Descend the wave's next level, or hand it on; the terminal stage
        descends until every probe holds a leaf (the tree may have grown)."""
        last = wave.stage == self._last
        while True:
            if wave.levels > 0:
                wave.levels -= 1
            elif not (last and any(r._leaf is None for r in wave.probes)):
                break
            if self._fetch_level(wave):
                return
        if last:
            self._serve(wave)
        else:
            wave.stage += 1
            self._put(_LEVELS + wave.stage, wave)
            self._next(_LEVELS + wave.stage - 1)

    def _fetch_level(self, wave: _Wave) -> bool:
        """Read every distinct frontier node at once (in arrival order), as
        the FPGA's burst does; False when every probe holds a leaf."""
        fetched = dict.fromkeys(r._node for r in wave.probes
                                if r._leaf is None)
        if not fetched:
            return False
        wave.fetched = fetched
        wave.t0 = self.engine.now
        wave.pending = len(fetched)
        for addr in fetched:
            self.read_port.read_cb(addr, self._node_landed_cb, (wave, addr))
        return True

    def _node_landed(self, landed: tuple) -> None:
        (wave, addr), node = landed
        wave.fetched[addr] = (node, self.engine.now)
        wave.pending -= 1
        if wave.pending:
            return
        # the serial charge, closed: up to the start of the last step
        start = wave.t0
        for _node, landed_at in wave.fetched.values():
            start = max(start, landed_at) + self._node_fetch_ns
        for _ in range(sum(req._leaf is None for req in wave.probes) - 1):
            start += self._probe_step_ns
        self.node_fetches.add(len(wave.fetched))
        self._sched(start, self._last_step_cb, wave)

    def _last_step(self, wave: _Wave) -> None:
        # the level's end is scheduled where the serial charge did it
        self._sched(self.engine.now + self._probe_step_ns, self._descended_cb,
                    wave)

    def _descended(self, wave: _Wave) -> None:
        """Move every probe still descending down the level just fetched."""
        for req in wave.probes:
            if req._leaf is not None:
                continue
            node = wave.fetched[req._node][0]
            if node is None:
                raise IndexError_(f"{self.name}: dangling node pointer "
                                  f"{req._node}")
            if node.is_leaf:
                req._leaf = node
            else:
                req._path.append(req._node)
                req._node = node.children[bisect_right(node.keys, req.key)]
        self._level(wave)

    # -- terminal stage ----------------------------------------------------
    def _serve(self, wave: _Wave) -> None:
        """Serve the wave's next probe at the leaf level, or let go of it."""
        if wave.i < len(wave.probes):
            self._after(self._terminal_ns, self._terminal, wave)
        else:
            self._next(_LEVELS + self._last)

    def _served(self, wave: _Wave) -> None:
        wave.i += 1
        self._serve(wave)

    def _terminal(self, wave: _Wave) -> None:
        req = wave.probes[wave.i]
        if _past_leaf(req):
            self.engine.follow((self._move_right(req), self._at_leaf, wave))
        else:
            # (what follow would do with a generator that returns at once)
            self._at_leaf(wave)

    def _move_right(self, req: DbRequest):
        """B-link-style recovery: if a split moved this probe's key into
        a right sibling after the descent read the (now stale) leaf,
        follow the leaf chain until the key's range is reached."""
        while _past_leaf(req):
            right = yield self.read_port.read(req._leaf.next_leaf)
            if right is None or not right.keys or not (right.keys[0] <= req.key):
                return
            yield self.clock.delay(self.probe_step_cycles)
            req._node, req._leaf = req._leaf.next_leaf, right

    def _at_leaf(self, wave: _Wave) -> None:
        req = wave.probes[wave.i]
        leaf = req._leaf
        if req.op in (Opcode.SCAN, Opcode.RANGE_SCAN):
            scan = Scan(req, wave)
            scan.leaf, scan.i = leaf, bisect_left(leaf.keys, req.key)
            self._scan_step(scan)
        elif req.op is Opcode.INSERT:
            self.engine.follow((self._insert(req), self._served, wave))
        else:
            # SEARCH / UPDATE / REMOVE against the leaf entry's record
            i = bisect_left(leaf.keys, req.key)
            if i < len(leaf.keys) and leaf.keys[i] == req.key:
                self.read_port.read_cb(leaf.children[i],
                                       self._record_landed,
                                       (wave, leaf.children[i]))
            else:
                self._finish_point(req, NULL_ADDR, None)
                self._served(wave)

    def _record_landed(self, landed: tuple) -> None:
        (wave, rec_addr), record = landed
        self._finish_point(wave.probes[wave.i], rec_addr, record)
        self._served(wave)

    def _insert(self, req: DbRequest):
        leaf_addr, leaf = req._node, req._leaf
        i = bisect_left(leaf.keys, req.key)
        if i < len(leaf.keys) and leaf.keys[i] == req.key:
            old_addr = leaf.children[i]
            old = yield self.read_port.read(old_addr)
            if old is not None and not (old.tombstone and not old.dirty):
                self._done(req, DbResult(ResultCode.DUPLICATE,
                                         tuple_addr=old_addr))
                return
            # the slot holds a committed delete: reclaim it
            leaf.keys.pop(i)
            leaf.children.pop(i)
            self.write_port.post_write(leaf_addr, leaf)
        if len(leaf.keys) >= self.fanout:
            # write-path merge maintenance: purge committed tombstones
            # before splitting, so a mostly-dead leaf shrinks instead
            keep = []
            for key, rec_addr in zip(leaf.keys, leaf.children):
                record = yield self.read_port.read(rec_addr)
                if record is None or not record.tombstone or record.dirty:
                    keep.append((key, rec_addr))
            if len(keep) != len(leaf.keys):
                yield self.clock.delay(self.merge_per_node_cycles)
                leaf.keys[:] = [key for key, _addr in keep]
                leaf.children[:] = [addr for _key, addr in keep]
                self.write_port.post_write(leaf_addr, leaf)
        state = self._table(req.table_id)
        rec_addr = self.dram.heap.alloc()
        record = TupleRecord(key=req.key, fields=list(req.insert_payload or []),
                             addr=rec_addr, read_ts=req.ts, write_ts=req.ts,
                             dirty=True)
        yield self.write_port.write(rec_addr, record)   # visible before linked
        i = bisect_left(leaf.keys, req.key)
        leaf.keys.insert(i, req.key)
        leaf.children.insert(i, rec_addr)
        writes, n_splits = self._split_upward(state, req._path, leaf_addr, leaf)
        if n_splits:
            yield self.clock.delay(self.split_per_node_cycles * n_splits)
        for addr, node in writes:     # the leaf, and any split nodes
            written = self.write_port.write(addr, node)
        yield written
        self.tuple_count += 1
        self._done(req, DbResult(ResultCode.OK, tuple_addr=rec_addr))

    # -- leaf-chain scans ---------------------------------------------------
    def _scan_step(self, scan: Scan) -> None:
        """Read the next row from the first key >= the descent key on,
        or the next leaf; RANGE_SCAN stops past ``scan_hi``."""
        req, leaf = scan.req, scan.leaf
        if scan.i >= len(leaf.keys):
            if leaf.next_leaf:
                self.read_port.read_cb(leaf.next_leaf, self._leaf_landed_cb,
                                       scan)
            else:
                self._scan_end(scan)
        elif (req.scan_hi is not None and leaf.keys[scan.i] > req.scan_hi) \
                or scan.n >= req.scan_count:
            self._scan_end(scan)
        else:
            scan.addr = leaf.children[scan.i]
            self.read_port.read_cb(scan.addr, self._row_landed_cb, scan)

    def _leaf_landed(self, landed: tuple) -> None:
        scan, leaf = landed
        if leaf is None:
            self._scan_end(scan)
        else:
            scan.leaf = leaf
            self._sched(self.engine.now + self._node_fetch_ns,
                        self._next_leaf_cb, scan)

    def _next_leaf(self, scan: Scan) -> None:
        self.node_fetches.add()
        scan.i = bisect_left(scan.leaf.keys, scan.req.key)
        self._scan_step(scan)

    def _row_landed(self, landed: tuple) -> None:
        scan, record = landed
        scan.row = record
        self._sched(self.engine.now + self._emit_ns, self._scan_emit_cb, scan)

    def _scan_emit(self, scan: Scan) -> None:
        if self._emit(scan):
            scan.i += 1
            self._scan_step(scan)
        else:
            self._scan_end(scan)

    def _scan_end(self, scan: Scan) -> None:
        self._done(scan.req, DbResult(scan.code, value=scan.n))
        self._served(scan.owner)

    # -- structural mutation (terminal stage + host loaders) ---------------
    def _split_upward(self, state: _TableState, path: List[int],
                      leaf_addr: int, leaf: BPTreeNode):
        """Split the leaf, then its ancestors, while one overflows (no
        timing); returns every touched ``(addr, node)`` and the splits."""
        heap = self.dram.heap
        writes: List[Tuple[int, BPTreeNode]] = [(leaf_addr, leaf)]
        n_splits = 0
        ancestors = list(path)
        node_addr, node = leaf_addr, leaf
        while len(node.keys) > self.fanout:
            n_splits += 1
            right_addr = heap.alloc()
            mid = len(node.keys) // 2
            if node.is_leaf:
                right = BPTreeNode(is_leaf=True, keys=node.keys[mid:],
                                   children=node.children[mid:],
                                   next_leaf=node.next_leaf, addr=right_addr)
                sep = right.keys[0]
                node.keys = node.keys[:mid]
                node.children = node.children[:mid]
                node.next_leaf = right_addr
            else:
                sep = node.keys[mid]
                right = BPTreeNode(is_leaf=False, keys=node.keys[mid + 1:],
                                   children=node.children[mid + 1:],
                                   addr=right_addr)
                node.keys = node.keys[:mid]
                node.children = node.children[:mid + 1]
            heap.store(right_addr, right)
            writes.append((right_addr, right))
            parent_addr = ancestors.pop() if ancestors else NULL_ADDR
            parent = heap.load(parent_addr) if parent_addr else None
            if node_addr != state.root and (
                    parent is None or node_addr not in parent.children):
                # the recorded path is stale or short (a split above this
                # probe mid-wave): re-descend for the real ancestors
                ancestors = self._ancestor_chain(
                    state, node_addr, node.keys[0] if node.keys else sep)
                parent_addr = ancestors.pop()
                parent = heap.load(parent_addr)
            if parent is None:
                root_addr = heap.alloc()
                root = BPTreeNode(is_leaf=False, keys=[sep],
                                  children=[node_addr, right_addr],
                                  addr=root_addr)
                heap.store(root_addr, root)
                state.root = root_addr
                state.depth += 1
                writes.append((root_addr, root))
                break
            pidx = parent.children.index(node_addr)
            parent.keys.insert(pidx, sep)
            parent.children.insert(pidx + 1, right_addr)
            writes.append((parent_addr, parent))
            node_addr, node = parent_addr, parent
        return writes, n_splits

    def _ancestor_chain(self, state: _TableState, node_addr: int,
                        key: Any) -> List[int]:
        """Ancestors of ``node_addr`` (root first, excluding the node),
        found by re-descending from the current root along ``key``."""
        heap = self.dram.heap
        chain: List[int] = []
        addr = state.root
        while addr != node_addr:
            node = heap.load(addr)
            if node is None or node.is_leaf:
                raise IndexError_(
                    f"{self.name}: stale insert path for node {node_addr}")
            chain.append(addr)
            addr = node.children[bisect_right(node.keys, key)]
        return chain

    # -- host-side helpers (timing-free) -----------------------------------
    def _host_find_leaf(self, state: _TableState, key: Any):
        """``(path, addr, leaf)`` of the leaf that holds ``key`` (the
        leftmost for ``None``), ``path`` its inner ancestors."""
        heap = self.dram.heap
        path: List[int] = []
        addr = state.root
        node = heap.load(addr)
        while not node.is_leaf:
            path.append(addr)
            addr = node.children[0 if key is None
                                 else bisect_right(node.keys, key)]
            node = heap.load(addr)
        return path, addr, node

    def _leaves(self, state: _TableState):
        """Yield ``(addr, leaf)`` along the bottom chain, left to right."""
        heap = self.dram.heap
        _path, addr, node = self._host_find_leaf(state, None)
        while True:
            yield addr, node
            addr = node.next_leaf
            if not addr:
                return
            node = heap.load(addr)

    def _records(self, table_id: int = 0):
        """``(key, record)`` of every leaf entry, in key order."""
        load = self.dram.heap.load
        for _addr, leaf in self._leaves(self._table(table_id)):
            for key, rec_addr in zip(leaf.keys, leaf.children):
                record = load(rec_addr)
                if record is not None:
                    yield key, record

    def _load(self, keys, fields, ts: int,
              state: _TableState) -> Tuple[int, int]:
        """The one host insert; returns ``(count, last record address)``.
        Record cells point at the batch's cold rows (``ranks`` maps them
        to rows), a row above the rightmost leaf is appended without a
        descent, and allocations and splits follow per-row order, so the
        heap image does not depend on the batching."""
        heap = self.dram.heap
        batch = ColdRows(TupleRecord.from_batch, NULL_ADDR, ts)
        batch.keys = key_column(keys)
        ranks = batch.ranks = array("I")
        add_fields = batch.fields.append
        alloc_cold = heap.alloc_cold
        fanout = self.fanout
        leaf = None
        addr = NULL_ADDR
        n = descents = 0
        try:
            for key, row_fields in zip(batch.keys, fields):
                at_end = leaf is not None and leaf.keys[-1] < key
                if not at_end:
                    path, leaf_addr, leaf = self._host_find_leaf(state, key)
                    descents += 1
                    i = bisect_left(leaf.keys, key)
                    if i < len(leaf.keys) and leaf.keys[i] == key:
                        record = heap.load(leaf.children[i])
                        if record is not None and not (record.tombstone
                                                       and not record.dirty):
                            raise ValueError(
                                f"duplicate key in bulk load: {key!r}")
                        leaf.keys.pop(i)
                        leaf.children.pop(i)
                add_fields(tuple(row_fields))
                addr = alloc_cold(batch)
                if not n:
                    batch.base = addr
                ranks.append(n)
                # (the cells a split takes hold no row: ``ranks`` skips them)
                if not at_end:
                    cells = heap.allocated_cells
                    leaf.keys.insert(i, key)
                    leaf.children.insert(i, addr)
                    self._split_upward(state, path, leaf_addr, leaf)
                    ranks.extend(repeat(0, heap.allocated_cells - cells))
                    if leaf.next_leaf:
                        leaf = None     # it split, or is not the rightmost
                else:
                    leaf.keys.append(key)
                    leaf.children.append(addr)
                    if len(leaf.keys) > fanout:
                        cells = heap.allocated_cells
                        _writes, n_splits = self._split_upward(
                            state, path, leaf_addr, leaf)
                        ranks.extend(repeat(0, heap.allocated_cells - cells))
                        if n_splits == 1:
                            leaf_addr = leaf.next_leaf
                            leaf = heap.load(leaf_addr)
                        else:
                            leaf = None
                n += 1
        finally:
            del batch.keys[n:]
            self.tuple_count += n
            self.load_rows.add(n)
            self.load_descents.add(descents)
        return n, addr

    def lookup_direct(self, key: Any, table_id: int = 0) \
            -> Optional[TupleRecord]:
        _path, _addr, leaf = self._host_find_leaf(self._table(table_id), key)
        i = bisect_left(leaf.keys, key)
        if i < len(leaf.keys) and leaf.keys[i] == key:
            record = self.dram.heap.load(leaf.children[i])
            if record is not None and not (record.tombstone
                                           and not record.dirty):
                return record
        return None

    def invariant_check(self, table_id: int = 0) -> None:
        """Assert the structural invariants: sorted keys within separator
        bounds, fan-in ``len(keys) + 1``, uniform leaf depth equal to the
        counter, and a leaf chain visiting exactly the in-order leaves."""
        heap = self.dram.heap
        state = self._table(table_id)
        leaves_in_order: List[int] = []
        depths: List[int] = []

        def visit(addr, depth, lo, hi):
            node = heap.load(addr)
            if node is None:
                raise AssertionError(f"dangling node pointer {addr}")
            keys = node.keys
            if any(not (a < b) for a, b in zip(keys, keys[1:])):
                raise AssertionError(f"node {addr} keys not strictly sorted")
            for k in keys:
                if (lo is not None and k < lo) or (hi is not None
                                                   and not (k < hi)):
                    raise AssertionError(f"key {k!r} outside its subtree")
            if node.is_leaf:
                if len(node.children) != len(keys):
                    raise AssertionError(f"leaf {addr} entry count mismatch")
                leaves_in_order.append(addr)
                depths.append(depth)
                return
            if len(node.children) != len(keys) + 1:
                raise AssertionError(f"inner {addr} fan-in mismatch")
            bounds = [lo] + list(keys) + [hi]
            for i, child in enumerate(node.children):
                visit(child, depth + 1, bounds[i], bounds[i + 1])

        visit(state.root, 1, None, None)
        if len(set(depths)) > 1:
            raise AssertionError(f"leaves at unequal depths {sorted(set(depths))}")
        if depths and depths[0] != state.depth:
            raise AssertionError(
                f"depth counter {state.depth} != actual {depths[0]}")
        chain = [addr for addr, _leaf in self._leaves(state)]
        if chain != leaves_in_order:
            raise AssertionError("leaf chain does not match in-order leaves")
