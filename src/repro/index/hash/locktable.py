"""Hazard lock table for the hash pipeline (§4.4.1, Figure 6).

BionicDB tracks, in a BRAM lock table, the hash buckets targeted by
in-flight INSERT instructions that have passed the Hash stage.  Any
instruction reaching the Hash stage checks the table first and blocks
(pipeline stall) while a duplicate entry exists; the lock is deleted by
the terminal stage when the insert completes.  This prevents both the
insert-after-insert and the search-after-insert hazards.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional

from ...sim.engine import Engine, Event
from ...sim.memory import Bram

__all__ = ["HazardLockTable"]


class _Entry:
    __slots__ = ("holders", "insert_waiters", "reader_waiters")

    def __init__(self) -> None:
        self.holders = 0
        self.insert_waiters: Deque[Event] = deque()
        self.reader_waiters: List[Event] = []


class HazardLockTable:
    """Per-bucket insert locks with reader stalls."""

    def __init__(self, engine: Engine, name: str = "hash-locks"):
        self.engine = engine
        self.bram = Bram(name, capacity_bytes=4096)
        self._entries: Dict[int, _Entry] = {}
        self.stalls = 0

    def locked(self, bucket_addr: int) -> bool:
        entry = self._entries.get(bucket_addr)
        return entry is not None and entry.holders > 0

    def acquire_insert(self, bucket_addr: int) -> Optional[Event]:
        """INSERT path: exclusive per-bucket lock, FIFO among inserts.
        Returns None when the lock is granted on the spot, else the
        event that fires when it is handed over."""
        entry = self._entries.setdefault(bucket_addr, _Entry())
        if entry.holders == 0:
            entry.holders = 1
            return None
        self.stalls += 1
        ev = Event(self.engine)
        entry.insert_waiters.append(ev)
        return ev

    def release_insert(self, bucket_addr: int) -> None:
        entry = self._entries.get(bucket_addr)
        if entry is None or entry.holders == 0:
            raise RuntimeError(f"release of unlocked bucket {bucket_addr}")
        if entry.insert_waiters:
            # hand the lock to the next queued insert; readers keep waiting
            entry.insert_waiters.popleft().succeed(None)
            return
        entry.holders = 0
        readers, entry.reader_waiters = entry.reader_waiters, []
        del self._entries[bucket_addr]
        for ev in readers:
            ev.succeed(None)

    def wait_clear(self, bucket_addr: int) -> Event:
        """Non-insert path: stall until no in-flight insert holds the bucket."""
        ev = Event(self.engine)
        entry = self._entries.get(bucket_addr)
        if entry is None or entry.holders == 0:
            ev.succeed(None)
        else:
            self.stalls += 1
            entry.reader_waiters.append(ev)
        return ev
