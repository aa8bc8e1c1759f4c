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
row's record from them on first touch (the first that is not an index
walk, a granted SEARCH or a scan, which read the columns).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List

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

    @classmethod
    def from_batch(cls, rows, addr: int) -> "TupleRecord":
        """The record of ``addr`` in a cold hash or B+ tree batch: row
        ``rows.row(addr)``, chained to that row of ``rows.nexts`` (a
        hash batch's) and read at its ``rows.read_at``, which a read
        granted on the cold row may have raised.  The heap calls this
        when an UPDATE, REMOVE or INSERT is granted on the row, or the
        host or the softcore reads it."""
        i = rows.row(addr)
        nexts = rows.nexts
        return cls(rows.keys[i], list(rows.fields[i]), addr,
                   NULL_ADDR if nexts is None else nexts[i], rows.read_at(i),
                   rows.ts)


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
        base``), linked as :meth:`ColdRows.next_at` follows it."""
        i = addr - rows.base
        height = rows.heights[i]
        return cls(rows.keys[i], list(rows.fields[i]), height,
                   [rows.next_at(i, level) for level in range(height)], addr,
                   rows.read_at(i), rows.ts)


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
