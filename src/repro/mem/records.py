"""On-DRAM record layouts: tuples, hash buckets and skiplist towers.

Each record occupies one heap cell (one modelled 64-byte line holding
the header fields the pipelines actually touch: key, chain/tower
pointers, timestamps and flag bits).

The record classes are slotted: a paper-scale table is 1.2 M of them,
and a per-instance ``__dict__`` would cost more memory — and one more
object for the cyclic collector to walk — than the record itself.  A
bulk-loaded row is not even that until it is read: the loaders lay
rows out as the columns of a :class:`~repro.sim.memory.ColdRows`, and
the ``from_*`` constructors below are what the heap calls to build a
row's record from them on first touch (for a hash row, the first touch
that is not a chain walk or a granted SEARCH).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Callable, List, Optional

__all__ = ["TupleRecord", "Tower", "BPTreeNode", "NULL_ADDR"]

#: Sentinel for "no pointer" (hash-chain end / tower link end).
NULL_ADDR = 0


@dataclass(slots=True)
class TupleRecord:
    """A hash-index tuple: header line with key, fields and CC metadata."""

    key: Any
    fields: List[Any]
    addr: int = NULL_ADDR
    next_addr: int = NULL_ADDR          # hash-conflict chain
    read_ts: int = 0
    write_ts: int = 0
    dirty: bool = False
    tombstone: bool = False

    def visible_at(self, ts: int) -> bool:
        """Committed and in the past of ``ts`` (scan/read visibility)."""
        return not self.dirty and not self.tombstone and self.write_ts <= ts

    @classmethod
    def from_hash_batch(cls, rows, addr: int) -> "TupleRecord":
        """The record of ``addr`` in a cold hash batch: row
        ``(addr - base) / stride``, chained to ``rows.nexts`` of that
        row and read at ``rows.read_ts`` of it once a SEARCH granted on
        the cold row raised that.  The heap calls this when an UPDATE or
        REMOVE is granted on the row, or the host or the softcore reads
        it; the hash pipeline's chain walk and SEARCH grant do not."""
        i = (addr - rows.base) // rows.stride
        ts = rows.ts
        read_ts = rows.read_ts
        return cls(rows.keys[i], list(rows.fields[i]), addr, rows.nexts[i],
                   ts if read_ts is None else read_ts[i], ts)

    @classmethod
    def from_bptree_batch(cls, rows, addr: int) -> "TupleRecord":
        """The record of ``addr`` in a cold B+ tree batch, whose rows sit
        between split nodes: row ``rows.ranks[addr - base]``."""
        i = rows.ranks[addr - rows.base]
        ts = rows.ts
        return cls(rows.keys[i], list(rows.fields[i]), addr, NULL_ADDR,
                   ts, ts)


@dataclass(slots=True)
class Tower:
    """A skiplist tower: tuple data plus next-pointers per level.

    ``nexts[l]`` is the address of the next tower at level ``l``; the
    tower participates in levels ``0 .. height-1``.
    """

    key: Any
    fields: List[Any]
    height: int
    nexts: List[int] = field(default_factory=list)
    addr: int = NULL_ADDR
    read_ts: int = 0
    write_ts: int = 0
    dirty: bool = False
    tombstone: bool = False

    def __post_init__(self):
        if self.height < 1:
            raise ValueError("tower height must be >= 1")
        if not self.nexts:
            self.nexts = [NULL_ADDR] * self.height
        if len(self.nexts) != self.height:
            raise ValueError("nexts length must equal height")

    @classmethod
    def from_run(cls, rows, addr: int) -> "Tower":
        """The tower of ``addr`` in a cold skiplist run (row ``addr -
        base``): its level-``l`` successor is the next row of the run
        taller than ``l`` or, past the last one, ``rows.tails[l]``."""
        base = rows.base
        i = addr - base
        heights = rows.heights
        height = heights[i]
        j = i + 1
        if j == len(heights):
            nexts = rows.tails[:height]
        else:
            # the next row is every tower's level-0 successor
            nexts = [base + j]
            for level in range(1, height):
                if heights[j] <= level:
                    taller = _next_taller(level)(heights, j)
                    if taller is None:
                        nexts += rows.tails[level:height]
                        break
                    j = taller.start()
                nexts.append(base + j)
        ts = rows.ts
        return cls(rows.keys[i], list(rows.fields[i]), height, nexts, addr,
                   ts, ts)


@dataclass(slots=True)
class BPTreeNode:
    """A B+ tree node: one modelled DRAM line of separators + pointers.

    Inner nodes hold ``len(keys) + 1`` child node addresses; child ``i``
    covers keys below ``keys[i]``, child ``i + 1`` keys at or above it.
    Leaves hold one tuple-record address per key plus a ``next_leaf``
    sibling link so range scans walk the bottom level without
    re-descending.  CC metadata lives on the :class:`TupleRecord` the
    leaf entries point at, never in the node itself.
    """

    is_leaf: bool
    keys: List[Any] = field(default_factory=list)
    children: List[int] = field(default_factory=list)
    next_leaf: int = NULL_ADDR          # leaf-chain link (leaves only)
    addr: int = NULL_ADDR

    def __post_init__(self):
        if self.is_leaf:
            if len(self.children) != len(self.keys):
                raise ValueError("leaf needs one record address per key")
        elif self.children and len(self.children) != len(self.keys) + 1:
            raise ValueError("inner node needs len(keys)+1 children")


@lru_cache(maxsize=256)    # one per level; heights are bytes
def _next_taller(level: int) -> Callable:
    """``search(heights, pos)`` for the first tower height above
    ``level`` at or after ``pos``: a scan in C, because the successor of
    a tall tower can be most of a 300 K-row run away."""
    return re.compile(b"[" + re.escape(bytes([level + 1])) + b"-\xff]").search


def head_tower(height: int) -> Tower:
    """The -inf sentinel tower that heads every skiplist level."""
    return Tower(key=_MinKey(), fields=[], height=height)


class _MinKey:
    """Compares below every other key (the -inf sentinel)."""

    __slots__ = ()

    def __lt__(self, other) -> bool:
        return True

    def __le__(self, other) -> bool:
        return True

    def __gt__(self, other) -> bool:
        return False

    def __ge__(self, other) -> bool:
        return isinstance(other, _MinKey)

    def __eq__(self, other) -> bool:
        return isinstance(other, _MinKey)

    def __hash__(self) -> int:
        # intra-process identity only — never reaches durable state
        return hash("_MinKey")  # det: allow(hash-randomisation)

    def __repr__(self) -> str:
        return "-inf"
