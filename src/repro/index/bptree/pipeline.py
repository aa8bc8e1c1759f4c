"""The batched level-wise B+ tree pipeline (extension; ROADMAP item 4).

Traversal is organised around *waves*: the wave former groups incoming
DB requests (the §4.5 batch former delivers a transaction group's index
ops back to back, so a group naturally becomes one wave), and the
traversal engine moves the whole wave down the tree one level at a
time — every probe visits level ``k`` before any visits ``k + 1``.
At each level the frontier's node addresses are deduplicated, so DRAM
bandwidth is spent **once per distinct node per wave** instead of once
per probe: with a shared root and mostly-shared upper levels, a wave of
``B`` point lookups on a depth-``d`` tree issues far fewer than
``B * d`` node reads.  This is the level-wise batch traversal of
*Efficient Batch Search Algorithm for B+ Tree Index Structures with
Level-Wise Traversal on FPGAs* (PAPERS.md) grafted onto BionicDB's
coprocessor scaffolding.

Stage graph::

    WaveFormer --> Stage0 --> Stage1 --> ... --> StageN-1 (terminal)
                  (levels assigned bottom-heavy by compute_level_ranges)

Like the skiplist pipeline, stages own exclusive level ranges and hand
the wave on the moment it leaves their range, immediately taking the
next wave — waves pipeline through the tree.  The terminal stage owns
the leaf level and is the only stage that mutates structure (insert
with split-upward, committed-tombstone purge before a split), so
structural changes are serialised by construction; probes that raced a
split recover with a B-link-style move-right along the leaf chain.
Range scans (``RANGE_SCAN lo, hi, count``) descend with the wave by
their low key and then walk the ``next_leaf`` chain, emitting visible
tuples into the transaction block's scan buffer.

CC is identical to the other indexes: leaf entries point at
:class:`~repro.mem.records.TupleRecord` cells, ``check_read`` /
``check_write`` run against those, and REMOVE only plants a tombstone
(physical unlink happens in quiescent compaction — ``compact_direct``
— because an aborted REMOVE must be able to resurrect the record).
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
from ...sim.sync import Fifo
from ...txn.cc import DbResult, ResultCode, check_read, check_write
from ..common import DbRequest, IndexError_, PipelineBase, key_column

__all__ = ["BPTreeTimings", "BPTreePipeline", "compute_level_ranges"]

#: request kinds the terminal stage treats as leaf-chain scans
_SCAN_OPS = (Opcode.SCAN, Opcode.RANGE_SCAN)


@dataclass(frozen=True)
class BPTreeTimings:
    """Per-action service times in FPGA cycles."""

    keyfetch: float = 2.0
    node_fetch: float = 4.0     # per *distinct* node per wave (BRAM landing)
    probe_step: float = 3.0     # per probe per level: separator binary search
    terminal: float = 10.0      # leaf entry resolution + visibility check
    split_per_node: float = 12.0
    merge_per_node: float = 12.0
    scan_emit: float = 6.0      # per collected tuple (visibility + buffer copy)


def compute_level_ranges(n_levels: int,
                         n_stages: int) -> List[Optional[Tuple[int, int]]]:
    """Assign tree levels ``0`` (root) .. ``n_levels - 1`` (leaves) to
    pipeline stages, bottom-heavy: the last stages own one level each
    (the node-diverse, fetch-hungry bottom of the tree) and the first
    stage absorbs any remainder (upper levels dedup to a handful of
    nodes per wave, so lumping them together costs little).

    Returns one ``(top, bottom)`` inclusive pair per stage, ``None``
    for stages that have no levels at the current tree height — unlike
    the skiplist's fixed ``max_height``, a B+ tree's height changes as
    it grows, so ranges are recomputed per wave.
    """
    if n_stages < 1:
        raise ValueError("need at least one stage")
    if n_levels < 0:
        raise ValueError("n_levels must be >= 0")
    ranges: List[Optional[Tuple[int, int]]] = [None] * n_stages
    if n_levels == 0:
        return ranges
    if n_levels <= n_stages:
        level = 0
        for i in range(n_stages - n_levels, n_stages):
            ranges[i] = (level, level)
            level += 1
    else:
        head = n_levels - (n_stages - 1)
        ranges[0] = (0, head - 1)
        level = head
        for i in range(1, n_stages):
            ranges[i] = (level, level)
            level += 1
    return ranges


class _TableState:
    """Per-table root pointer and height bookkeeping."""

    __slots__ = ("root", "depth", "node_count")

    def __init__(self, root: int):
        self.root = root
        self.depth = 1
        self.node_count = 1


class _Probe:
    """One request's position within a wave."""

    __slots__ = ("req", "node_addr", "leaf", "at_leaf", "path")

    def __init__(self, req: DbRequest):
        self.req = req
        self.node_addr = NULL_ADDR
        self.leaf: Optional[BPTreeNode] = None
        self.at_leaf = False
        self.path: List[int] = []   # inner ancestors, root first


class _Wave:
    """A batch of probes descending the tree in lockstep."""

    __slots__ = ("probes", "ranges")

    def __init__(self, probes: List[_Probe]):
        self.probes = probes
        self.ranges: List[Optional[Tuple[int, int]]] = []


class BPTreePipeline(PipelineBase):
    """One partition's batched level-wise B+ tree coprocessor."""

    trace_category = "bptree"

    def __init__(self, engine, clock, dram, name: str,
                 fanout: int = 15,
                 n_stages: int = 4,
                 wave_size: int = 8,
                 wave_window_cycles: float = 16.0,
                 timings: Optional[BPTreeTimings] = None,
                 hazard_prevention: bool = True,
                 max_in_flight: int = 16,
                 read_issue_interval_cycles: float = 4.0,
                 write_issue_interval_cycles: float = 4.0,
                 create_default_table: bool = True,
                 stats=None, tracer=None):
        if fanout < 3:
            raise ValueError("fanout must be >= 3")
        if n_stages < 1:
            raise ValueError("need at least one stage")
        if wave_size < 1:
            raise ValueError("wave_size must be >= 1")
        if wave_window_cycles < 0:
            raise ValueError("wave_window_cycles must be >= 0")
        self.fanout = fanout
        self.n_stages = n_stages
        self.wave_size = wave_size
        self.wave_window_cycles = wave_window_cycles
        self.timings = timings or BPTreeTimings()
        self.hazard_prevention = hazard_prevention
        self._dram = dram
        # one coprocessor serves every B+ tree of its partition
        self._tables: dict = {}
        super().__init__(engine, clock, dram, name,
                         max_in_flight=max_in_flight,
                         read_issue_interval_cycles=read_issue_interval_cycles,
                         write_issue_interval_cycles=write_issue_interval_cycles,
                         stats=stats, tracer=tracer)
        self.tuple_count = 0
        self.node_fetches = self.stats.counter(f"{name}.node_fetches")
        self.waves_formed = self.stats.counter(f"{name}.waves")
        # host loader: rows installed, and rows that descended from the
        # root (the rest appended to the previous row's leaf)
        self.load_rows = self.stats.counter(f"{name}.load.rows")
        self.load_descents = self.stats.counter(f"{name}.load.descents")
        if create_default_table:
            # single-table convenience (used heavily by unit tests)
            self.add_table(0)

    def add_table(self, table_id: int = 0) -> None:
        if table_id in self._tables:
            raise ValueError(f"table {table_id} already registered")
        heap = self._dram.heap
        addr = heap.alloc()
        heap.store(addr, BPTreeNode(is_leaf=True, addr=addr))
        self._tables[table_id] = _TableState(addr)

    def _table_state(self, table_id: int) -> _TableState:
        try:
            return self._tables[table_id]
        except KeyError:
            raise IndexError_(f"{self.name}: unknown table {table_id}") from None

    def root_addr_of(self, table_id: int = 0) -> int:
        return self._table_state(table_id).root

    def depth_of(self, table_id: int = 0) -> int:
        return self._table_state(table_id).depth

    def node_count_of(self, table_id: int = 0) -> int:
        return self._table_state(table_id).node_count

    # ------------------------------------------------------------------
    def _build(self) -> None:
        eng = self.engine
        self._inq = Fifo(eng, name=f"{self.name}.q.waves")
        self.stage_queues = [Fifo(eng, name=f"{self.name}.q.stage{i}")
                             for i in range(self.n_stages)]
        eng.process(self._wave_former(), name=f"{self.name}.waveformer")
        for i in range(self.n_stages):
            eng.process(self._stage(i), name=f"{self.name}.stage{i}")

    def _enter(self, req: DbRequest) -> None:
        self._table_state(req.table_id)   # reject unknown tables up front
        self._forward(self._inq, req)

    # -- wave forming -----------------------------------------------------
    def _wave_former(self):
        """Group admitted requests into waves: open a wave on the first
        arrival, then keep it open while more requests keep arriving
        within ``wave_window_cycles`` of each other, up to ``wave_size``
        probes.  ``wave_size=1`` degenerates to one-key-at-a-time
        traversal (the dedup-benefit baseline)."""
        while True:
            first = yield self._inq.get()
            probes = [_Probe(first)]
            while len(probes) < self.wave_size:
                ok, req = self._inq.try_get()
                if ok:
                    probes.append(_Probe(req))
                    continue
                if self.wave_window_cycles <= 0:
                    break
                yield self.clock.delay(self.wave_window_cycles)
                ok, req = self._inq.try_get()
                if not ok:
                    break
                probes.append(_Probe(req))
            self.waves_formed.add()
            self._forward(self.stage_queues[0], _Wave(probes))

    # -- traversal stages -------------------------------------------------
    def _stage(self, idx: int):
        is_last = idx == self.n_stages - 1
        while True:
            wave = yield self.stage_queues[idx].get()
            if idx == 0:
                yield from self._begin_wave(wave)
            rng = wave.ranges[idx]
            if rng is not None:
                for _level in range(rng[0], rng[1] + 1):
                    yield from self._descend_once(wave)
            if is_last:
                yield from self._finish_wave(wave)
            else:
                self._forward(self.stage_queues[idx + 1], wave)

    def _begin_wave(self, wave: _Wave):
        """Resolve each probe's key, attach it to its table's root, and
        bind tree levels to stages for this wave's (current) height."""
        t = self.timings
        depth = 0
        for p in wave.probes:
            req = p.req
            if req.key is None and req.key_addr is not None:
                yield self.clock.delay(t.keyfetch)
                req.key = yield self.read_port.read(req.key_addr)
            elif req.key is None:
                req.key = req.key_value
                if req.op is Opcode.INSERT and req.payload_addr is not None \
                        and req.insert_payload is None:
                    cell = yield self.read_port.read(req.payload_addr)
                    req.insert_payload = list(cell or [])
            if req.op is Opcode.INSERT and isinstance(req.key, tuple) \
                    and len(req.key) == 2 and req.insert_payload is None:
                req.key, req.insert_payload = req.key
            state = self._table_state(req.table_id)
            p.node_addr = state.root
            depth = max(depth, state.depth)
        wave.ranges = compute_level_ranges(depth, self.n_stages)

    def _descend_once(self, wave: _Wave):
        """Move every non-terminal probe down one level.  The frontier's
        node addresses are deduplicated in arrival order (deterministic)
        and each distinct node is fetched exactly once — the level-wise
        batching that pays one DRAM charge per node per wave."""
        t = self.timings
        fetches: dict = {}
        for p in wave.probes:
            if not p.at_leaf:
                fetches.setdefault(p.node_addr, None)
        if not fetches:
            return
        # issue every distinct fetch before waiting on any: the reads
        # overlap in the memory port exactly like the FPGA's burst
        events = [(addr, self.read_port.read(addr)) for addr in fetches]
        for addr, ev in events:
            fetches[addr] = yield ev
            yield self.clock.delay(t.node_fetch)
        self.node_fetches.add(len(events))
        for p in wave.probes:
            if p.at_leaf:
                continue
            yield self.clock.delay(t.probe_step)
            node = fetches[p.node_addr]
            if node is None:
                raise IndexError_(f"{self.name}: dangling node pointer "
                                  f"{p.node_addr}")
            if node.is_leaf:
                p.at_leaf = True
                p.leaf = node
            else:
                p.path.append(p.node_addr)
                p.node_addr = node.children[bisect_right(node.keys, p.req.key)]

    def _finish_wave(self, wave: _Wave):
        # the tree may have grown while the wave was in flight; the
        # terminal stage keeps descending until every probe holds a leaf
        while any(not p.at_leaf for p in wave.probes):
            yield from self._descend_once(wave)
        for p in wave.probes:
            yield from self._terminal(p)

    # -- terminal stage ----------------------------------------------------
    def _terminal(self, p: _Probe):
        req = p.req
        yield self.clock.delay(self.timings.terminal)
        leaf_addr, leaf = yield from self._move_right(p)
        if req.op in _SCAN_OPS:
            yield from self._scan(req, leaf)
        elif req.op is Opcode.INSERT:
            yield from self._insert(p, leaf_addr, leaf)
        else:
            yield from self._point(req, leaf)

    def _move_right(self, p: _Probe):
        """B-link-style recovery: if a split moved this probe's key into
        a right sibling after the descent read the (now stale) leaf,
        follow the leaf chain until the key's range is reached."""
        t = self.timings
        req = p.req
        leaf_addr, leaf = p.node_addr, p.leaf
        while leaf.next_leaf and leaf.keys and req.key > leaf.keys[-1]:
            nxt = yield self.read_port.read(leaf.next_leaf)
            if nxt is None or not nxt.keys or not (nxt.keys[0] <= req.key):
                break
            yield self.clock.delay(t.probe_step)
            leaf_addr, leaf = leaf.next_leaf, nxt
        return leaf_addr, leaf

    def _point(self, req: DbRequest, leaf: BPTreeNode):
        """SEARCH / UPDATE / REMOVE against the leaf entry's record."""
        i = bisect_left(leaf.keys, req.key)
        record = None
        rec_addr = NULL_ADDR
        if i < len(leaf.keys) and leaf.keys[i] == req.key:
            rec_addr = leaf.children[i]
            record = yield self.read_port.read(rec_addr)
            if record is not None and record.tombstone and not record.dirty:
                record = None   # committed delete
        if record is None:
            self._done(req, DbResult(ResultCode.NOT_FOUND))
            return
        if req.op is Opcode.SEARCH:
            code = check_read(record, req.ts)
        else:
            code = check_write(record, req.ts,
                               tombstone=req.op is Opcode.REMOVE)
        if code is ResultCode.OK:
            self.write_port.post_write(rec_addr, record)
        value = record.fields[0] if (code is ResultCode.OK
                                     and record.fields) else None
        self._done(req, DbResult(code, tuple_addr=rec_addr, value=value))

    def _insert(self, p: _Probe, leaf_addr: int, leaf: BPTreeNode):
        req = p.req
        t = self.timings
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
            yield from self._purge_overflowing_leaf(leaf_addr, leaf)
        state = self._table_state(req.table_id)
        rec_addr = self._dram.heap.alloc()
        record = TupleRecord(key=req.key, fields=list(req.insert_payload or []),
                             addr=rec_addr, read_ts=req.ts, write_ts=req.ts,
                             dirty=True)
        yield self.write_port.write(rec_addr, record)   # visible before linked
        writes, n_splits = self._apply_insert(state, p.path, leaf_addr, leaf,
                                              req.key, rec_addr)
        if n_splits:
            yield self.clock.delay(t.split_per_node * n_splits)
        last_ev = None
        for addr, node in writes:
            last_ev = self.write_port.write(addr, node)
        if last_ev is not None:
            yield last_ev
        self.tuple_count += 1
        self._done(req, DbResult(ResultCode.OK, tuple_addr=rec_addr))

    def _purge_overflowing_leaf(self, leaf_addr: int, leaf: BPTreeNode):
        t = self.timings
        keep_keys: List[Any] = []
        keep_children: List[int] = []
        for key, rec_addr in zip(leaf.keys, leaf.children):
            record = yield self.read_port.read(rec_addr)
            if record is not None and record.tombstone and not record.dirty:
                continue   # committed delete — safe to drop
            keep_keys.append(key)
            keep_children.append(rec_addr)
        if len(keep_keys) != len(leaf.keys):
            yield self.clock.delay(t.merge_per_node)
            leaf.keys[:] = keep_keys
            leaf.children[:] = keep_children
            self.write_port.post_write(leaf_addr, leaf)

    def _scan(self, req: DbRequest, leaf: BPTreeNode):
        """Walk the leaf chain from the first key >= the descent key,
        emitting visible tuples; RANGE_SCAN stops past ``scan_hi``."""
        t = self.timings
        lo, hi = req.key, req.scan_hi
        collected = 0
        code = ResultCode.OK
        i = bisect_left(leaf.keys, lo)
        while True:
            if i >= len(leaf.keys):
                if not leaf.next_leaf:
                    break
                next_addr = leaf.next_leaf
                leaf = yield self.read_port.read(next_addr)
                if leaf is None:
                    break
                yield self.clock.delay(t.node_fetch)
                self.node_fetches.add()
                i = bisect_left(leaf.keys, lo)
                continue
            key = leaf.keys[i]
            if hi is not None and key > hi:
                break
            if collected >= req.scan_count:
                break
            rec_addr = leaf.children[i]
            record = yield self.read_port.read(rec_addr)
            yield self.clock.delay(t.scan_emit)
            if record is not None and record.visible_at(req.ts):
                if req.scan_limit and collected >= req.scan_limit:
                    code = ResultCode.SCAN_OVERFLOW
                    break
                if req.scan_out_addr:
                    self.write_port.post_write(req.scan_out_addr + collected,
                                               (key, list(record.fields)))
                if req.ts > record.read_ts:
                    record.read_ts = req.ts
                    self.write_port.post_write(rec_addr, record)
                collected += 1
            i += 1
        self._done(req, DbResult(code, value=collected))

    # -- structural mutation (terminal stage + host loaders) ---------------
    def _apply_insert(self, state: _TableState, path: List[int],
                      leaf_addr: int, leaf: BPTreeNode,
                      key: Any, rec_addr: int):
        """Link ``(key, rec_addr)`` into the leaf and split upward while
        any node overflows.  Pure structural mutation over the heap —
        callers charge timing and port traffic.  Returns
        ``(writes, n_splits)`` with every touched ``(addr, node)``."""
        i = bisect_left(leaf.keys, key)
        leaf.keys.insert(i, key)
        leaf.children.insert(i, rec_addr)
        return self._split_upward(state, path, leaf_addr, leaf)

    def _split_upward(self, state: _TableState, path: List[int],
                      leaf_addr: int, leaf: BPTreeNode):
        """Split the leaf, then its ancestors, while one overflows;
        returns ``(writes, n_splits)`` as :meth:`_apply_insert` does."""
        heap = self._dram.heap
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
            state.node_count += 1
            writes.append((right_addr, right))
            if not ancestors and node_addr != state.root:
                # the recorded path is shorter than the tree: the root
                # split under this probe mid-wave — re-descend for the
                # real ancestors instead of minting a bogus root
                ancestors = self._ancestor_chain(state, node_addr,
                                                 node.keys[0] if node.keys
                                                 else sep)
            if not ancestors:
                root_addr = heap.alloc()
                root = BPTreeNode(is_leaf=False, keys=[sep],
                                  children=[node_addr, right_addr],
                                  addr=root_addr)
                heap.store(root_addr, root)
                state.root = root_addr
                state.depth += 1
                state.node_count += 1
                writes.append((root_addr, root))
                break
            parent_addr = ancestors.pop()
            parent = heap.load(parent_addr)
            if parent is None or node_addr not in parent.children:
                # the recorded path went stale under a concurrent split:
                # recompute the ancestor chain from the current root
                ancestors = self._ancestor_chain(state, node_addr,
                                                 node.keys[0] if node.keys
                                                 else sep)
                parent_addr = ancestors.pop()
                parent = heap.load(parent_addr)
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
        heap = self._dram.heap
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
        heap = self._dram.heap
        path: List[int] = []
        addr = state.root
        node = heap.load(addr)
        while not node.is_leaf:
            path.append(addr)
            addr = node.children[bisect_right(node.keys, key)]
            node = heap.load(addr)
        return path, addr, node

    def _leaves(self, state: _TableState):
        """Yield ``(addr, leaf)`` along the bottom chain, left to right."""
        heap = self._dram.heap
        addr = state.root
        node = heap.load(addr)
        while not node.is_leaf:
            addr = node.children[0]
            node = heap.load(addr)
        while True:
            yield addr, node
            addr = node.next_leaf
            if not addr:
                return
            node = heap.load(addr)

    def bulk_load(self, key: Any, fields: List[Any], ts: int = 0,
                  table_id: int = 0) -> int:
        """Install one committed row; returns its record's address."""
        return self._load_rows((key,), (fields,), ts, table_id)[1]

    def bulk_load_many(self, keys, fields, ts: int = 0,
                       table_id: int = 0) -> int:
        """Bulk-load a key column and its parallel field column in
        order (timing-free host path); returns the number installed."""
        return self._load_rows(keys, fields, ts, table_id)[0]

    def _load_rows(self, keys, fields, ts: int,
                   table_id: int) -> Tuple[int, int]:
        """The one host insert: install the rows of two parallel
        columns, return ``(count, address of the last record)``.

        Leaves and inner nodes are built as rows arrive; the records
        are not.  Each row's record cell is allocated pointing at one
        :class:`~repro.sim.memory.ColdRows` per batch, whose ``ranks``
        column maps the cell back to its row (record cells sit between
        the nodes splits allocate), and the heap builds the record on
        first touch.  The previous row's ``(path, leaf_addr, leaf)`` is
        kept while that leaf is the rightmost one: a larger key can only
        belong at its end, so the descent and the duplicate check are
        skipped.  When that leaf splits alone its new right half is the
        rightmost leaf under the same path; a split that reaches an
        inner node, or any other key, descends from the root.
        Allocations and splits happen in per-row order, so the heap
        image does not depend on how rows are batched.  A ``fields``
        entry that is not iterable stops the batch there, with the rows
        before it installed and counted.
        """
        n_rows = len(keys)
        if len(fields) != n_rows:
            raise ValueError(f"{self.name}: {n_rows} keys offered with "
                             f"{len(fields)} field rows")
        heap = self._dram.heap
        state = self._table_state(table_id)
        batch = ColdRows(TupleRecord.from_bptree_batch, NULL_ADDR, ts)
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
                    self._apply_insert(state, path, leaf_addr, leaf, key, addr)
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
        heap = self._dram.heap
        state = self._table_state(table_id)
        _path, _addr, leaf = self._host_find_leaf(state, key)
        i = bisect_left(leaf.keys, key)
        if i < len(leaf.keys) and leaf.keys[i] == key:
            record = heap.load(leaf.children[i])
            if record is not None and not (record.tombstone
                                           and not record.dirty):
                return record
        return None

    def items_direct(self, table_id: int = 0) -> List[Tuple[Any, List[Any]]]:
        """All live records in key order (verification helper)."""
        heap = self._dram.heap
        out = []
        for _addr, leaf in self._leaves(self._table_state(table_id)):
            for key, rec_addr in zip(leaf.keys, leaf.children):
                record = heap.load(rec_addr)
                if record is not None and not record.tombstone:
                    out.append((key, list(record.fields)))
        return out

    def scan_range_direct(self, lo: Any, hi: Any = None,
                          limit: Optional[int] = None,
                          table_id: int = 0) -> List[Tuple[Any, List[Any]]]:
        """Live rows with ``lo <= key`` (``<= hi`` when given), in key
        order — the host-side mirror of RANGE_SCAN for parity checks."""
        heap = self._dram.heap
        state = self._table_state(table_id)
        out: List[Tuple[Any, List[Any]]] = []
        _path, addr, leaf = self._host_find_leaf(state, lo)
        while True:
            for key, rec_addr in zip(leaf.keys, leaf.children):
                if key < lo:
                    continue
                if hi is not None and key > hi:
                    return out
                record = heap.load(rec_addr)
                if record is not None and not record.tombstone:
                    out.append((key, list(record.fields)))
                    if limit is not None and len(out) >= limit:
                        return out
            if not leaf.next_leaf:
                return out
            leaf = heap.load(leaf.next_leaf)

    def checkpoint_rows(self, table_id: int = 0):
        """Yield (key, fields, write_ts) for live committed records."""
        heap = self._dram.heap
        for _addr, leaf in self._leaves(self._table_state(table_id)):
            for key, rec_addr in zip(leaf.keys, leaf.children):
                record = heap.load(rec_addr)
                if record is not None and not record.tombstone \
                        and not record.dirty:
                    yield key, list(record.fields), record.write_ts

    def compact_direct(self, table_id: int = 0) -> int:
        """Quiescent merge maintenance: drop committed-tombstone entries
        from every leaf, unlink emptied leaves that have a left sibling
        under the same parent (fixing the chain), and collapse
        single-child roots.  Returns the number of entries purged."""
        heap = self._dram.heap
        state = self._table_state(table_id)
        removed = 0
        for _addr, leaf in self._leaves(state):
            keep_keys: List[Any] = []
            keep_children: List[int] = []
            for key, rec_addr in zip(leaf.keys, leaf.children):
                record = heap.load(rec_addr)
                if record is not None and record.tombstone \
                        and not record.dirty:
                    removed += 1
                    continue
                keep_keys.append(key)
                keep_children.append(rec_addr)
            leaf.keys[:] = keep_keys
            leaf.children[:] = keep_children
        parents = [(addr, node) for addr, node, _d in self._walk_nodes(state)
                   if not node.is_leaf
                   and heap.load(node.children[0]).is_leaf]
        for _parent_addr, parent in parents:
            for i in range(len(parent.children) - 1, 0, -1):
                child = heap.load(parent.children[i])
                if child.is_leaf and not child.keys:
                    left = heap.load(parent.children[i - 1])
                    left.next_leaf = child.next_leaf
                    parent.children.pop(i)
                    parent.keys.pop(i - 1)
                    state.node_count -= 1
        root = heap.load(state.root)
        while not root.is_leaf and len(root.children) == 1:
            state.root = root.children[0]
            state.depth -= 1
            state.node_count -= 1
            root = heap.load(state.root)
        return removed

    def _walk_nodes(self, state: _TableState):
        """Yield ``(addr, node, depth)`` in DFS preorder."""
        heap = self._dram.heap
        stack: List[Tuple[int, int]] = [(state.root, 1)]
        while stack:
            addr, depth = stack.pop()
            node = heap.load(addr)
            yield addr, node, depth
            if not node.is_leaf:
                stack.extend((child, depth + 1)
                             for child in reversed(node.children))

    def invariant_check(self, table_id: int = 0) -> None:
        """Assert B+ tree structural invariants (used by property tests):
        strictly sorted keys, inner fan-in ``len(keys) + 1``, separator
        bounds honoured, uniform leaf depth matching the depth counter,
        and a leaf chain that visits exactly the in-order leaves."""
        heap = self._dram.heap
        state = self._table_state(table_id)
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
                if lo is not None and k < lo:
                    raise AssertionError(f"key {k!r} below subtree bound")
                if hi is not None and not (k < hi):
                    raise AssertionError(f"key {k!r} above subtree bound")
            if node.is_leaf:
                if len(node.children) != len(keys):
                    raise AssertionError(f"leaf {addr} entry count mismatch")
                leaves_in_order.append(addr)
                depths.append(depth)
            else:
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
        all_keys = [k for _a, leaf in self._leaves(state) for k in leaf.keys]
        if any(not (a < b) for a, b in zip(all_keys, all_keys[1:])):
            raise AssertionError("leaf chain keys not globally sorted")
