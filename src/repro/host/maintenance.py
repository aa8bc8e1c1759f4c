"""Host-side index maintenance: tombstone garbage collection.

REMOVE leaves committed tombstones in the indexes (§4.7: the commit
protocol keeps the tombstone bit; the paper does not discuss physical
deletion).  Left alone, tombstones lengthen hash-conflict chains and
skiplist levels.  This module implements the natural housekeeping duty
of the host CPU (§4.2 gives it "background housekeeping jobs"): a
quiescent sweep that physically unlinks committed tombstones.

Must only run while the FPGA is idle (the host signals stop/start, as
for checkpointing); it is timing-free by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.system import BionicDB

__all__ = ["CompactionStats", "compact"]


@dataclass
class CompactionStats:
    hash_tombstones_removed: int = 0
    skiplist_tombstones_removed: int = 0
    bptree_tombstones_removed: int = 0

    @property
    def total(self) -> int:
        return (self.hash_tombstones_removed
                + self.skiplist_tombstones_removed
                + self.bptree_tombstones_removed)


def compact(db: BionicDB) -> CompactionStats:
    """Physically unlink committed tombstones in every partition."""
    stats = CompactionStats()
    for schema in db.schemas:
        removed = sum(
            worker.pipeline_for(schema.table_id).compact_direct(schema.table_id)
            for worker in db.workers)
        # (index_kind is the field's prefix: hash / skiplist / bptree)
        field = f"{schema.index_kind}_tombstones_removed"
        setattr(stats, field, getattr(stats, field) + removed)
    return stats
