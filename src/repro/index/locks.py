"""The BRAM hazard lock table of the hash and skiplist pipelines (§4.4).

It holds the entry point of every in-flight INSERT: its bucket address
in the hash pipeline (Figure 6b), or ``(tower address, level)`` of the
predecessor at the new tower's top level in the skiplist (Figure 7b).
Instructions that would pass a held entry point stall until the insert
completes; scans never check (§4.4.2).  A lock is handed over FIFO
among INSERTs, by a callback run at the release instant, and the
readers stalled on it are released together when the last one lets go.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Dict, Hashable, Tuple

from ..sim.engine import Engine

__all__ = ["LockTable"]


class LockTable:
    """Exclusive locks on hashable keys, with stalled-reader release."""

    def __init__(self, engine: Engine):
        self.engine = engine
        #: held key -> (queued acquirers, stalled readers), as (fn, arg);
        #: empty when nothing is locked, which a traversal tests first
        self._held: Dict[Hashable, Tuple[deque, list]] = {}
        #: instructions that stalled on a held lock
        self.stalls = 0

    def acquire(self, key: Hashable, fn: Callable[[Any], None],
                arg: Any) -> bool:
        """Take ``key`` exclusively: True when granted on the spot, else
        ``fn(arg)`` runs when the lock is handed over."""
        entry = self._held.get(key)
        if entry is None:
            self._held[key] = (deque(), [])
            return True
        self.stalls += 1
        entry[0].append((fn, arg))
        return False

    def wait_clear(self, key: Hashable, fn: Callable[[Any], None],
                   arg: Any) -> bool:
        """True when nobody holds ``key``, else ``fn(arg)`` runs once the
        lock is released rather than handed over."""
        entry = self._held.get(key)
        if entry is None:
            return True
        self.stalls += 1
        entry[1].append((fn, arg))
        return False

    def release(self, key: Hashable) -> None:
        entry = self._held.get(key)
        if entry is None:
            raise RuntimeError(f"release of unlocked key {key!r}")
        acquirers, readers = entry
        sched, now = self.engine._schedule_fn, self.engine.now
        if acquirers:
            # hand the lock to the next queued insert; readers keep waiting
            sched(now, *acquirers.popleft())
            return
        del self._held[key]
        for fn, arg in readers:
            sched(now, fn, arg)
