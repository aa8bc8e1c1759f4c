"""Synchronisation primitives built on the DES engine.

These model the hardware structures BionicDB is built from: bounded
FIFOs between pipeline stages, token pools that throttle in-flight DB
instructions, and simple locks for lock tables on BRAM.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from .engine import Engine, Event, SimulationError

__all__ = ["Fifo", "TokenPool", "Gate", "Mutex"]


class Fifo:
    """A FIFO channel with optional capacity.

    ``put(item)`` and ``get()`` both return events.  With ``capacity``
    None the queue is unbounded and puts complete immediately — this is
    how inter-stage queues are modelled (the paper permits "multiple
    outstanding DB instructions between neighbouring stages"; global
    occupancy is throttled by a :class:`TokenPool` instead).
    """

    def __init__(self, engine: Engine, capacity: Optional[int] = None, name: str = ""):
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1 or None")
        self.engine = engine
        self.capacity = capacity
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[tuple] = deque()  # (event, item)
        self.total_put = 0
        self.max_depth = 0

    def __len__(self) -> int:
        return len(self._items)

    @property
    def is_full(self) -> bool:
        return self.capacity is not None and len(self._items) >= self.capacity

    def put(self, item: Any) -> Event:
        ev = Event(self.engine)
        self.total_put += 1
        if self._getters:
            # Hand the item straight to the oldest waiting getter.
            self._getters.popleft().succeed(item)
            ev.succeed(None)
            return ev
        items = self._items
        cap = self.capacity
        if cap is None or len(items) < cap:
            items.append(item)
            depth = len(items)
            if depth > self.max_depth:
                self.max_depth = depth
            ev.succeed(None)
        else:
            self._putters.append((ev, item))
        return ev

    def try_put(self, item: Any) -> bool:
        """Non-blocking put; returns False when the queue is full."""
        if self._getters:
            self._getters.popleft().succeed(item)
            self.total_put += 1
            return True
        items = self._items
        cap = self.capacity
        if cap is not None and len(items) >= cap:
            return False
        items.append(item)
        self.total_put += 1
        depth = len(items)
        if depth > self.max_depth:
            self.max_depth = depth
        return True

    def get(self) -> Event:
        ev = Event(self.engine)
        if self._items:
            item = self._items.popleft()
            self._admit_putter()
            ev.succeed(item)
        elif self._putters:
            put_ev, item = self._putters.popleft()
            put_ev.succeed(None)
            ev.succeed(item)
        else:
            self._getters.append(ev)
        return ev

    def try_get(self) -> tuple:
        """Non-blocking get; returns (ok, item)."""
        if self._items:
            item = self._items.popleft()
            self._admit_putter()
            return True, item
        if self._putters:
            put_ev, item = self._putters.popleft()
            put_ev.succeed(None)
            return True, item
        return False, None

    def _admit_putter(self) -> None:
        if self._putters and not self.is_full:
            put_ev, item = self._putters.popleft()
            self._items.append(item)
            depth = len(self._items)
            if depth > self.max_depth:
                self.max_depth = depth
            put_ev.succeed(None)


class TokenPool:
    """A counting semaphore; models in-flight request throttling.

    The benchmark sweeps of Figures 10 and 11 vary "the maximum number
    of in-flight DB requests over the index coprocessor" — that limit is
    a token pool acquired on dispatch and released by terminal pipeline
    stages.
    """

    def __init__(self, engine: Engine, tokens: int, name: str = ""):
        if tokens < 1:
            raise ValueError("tokens must be >= 1")
        self.engine = engine
        self.capacity = tokens
        self.available = tokens
        self.name = name
        self._waiters: Deque[Event] = deque()
        self.total_acquired = 0

    @property
    def in_use(self) -> int:
        return self.capacity - self.available

    def acquire(self) -> Event:
        ev = Event(self.engine)
        if self.available > 0:
            self.available -= 1
            self.total_acquired += 1
            ev.succeed(None)
        else:
            self._waiters.append(ev)
        return ev

    def try_acquire(self) -> bool:
        """Non-blocking acquire; returns False when no token is free."""
        if self.available <= 0:
            return False
        self.available -= 1
        self.total_acquired += 1
        return True

    def release(self) -> None:
        if self._waiters:
            self.total_acquired += 1
            self._waiters.popleft().succeed(None)
        else:
            if self.available >= self.capacity:
                raise SimulationError(f"token pool {self.name!r} over-released")
            self.available += 1

    def resize(self, tokens: int) -> None:
        """Grow/shrink the pool (used by in-flight sweeps between runs)."""
        if tokens < 1:
            raise ValueError("tokens must be >= 1")
        delta = tokens - self.capacity
        self.capacity = tokens
        self.available += delta
        while self.available > 0 and self._waiters:
            self.available -= 1
            self.total_acquired += 1
            self._waiters.popleft().succeed(None)


class Gate:
    """A level-triggered condition: processes wait until it is opened."""

    def __init__(self, engine: Engine, open_: bool = False):
        self.engine = engine
        self._open = open_
        self._waiters: Deque[Event] = deque()

    @property
    def is_open(self) -> bool:
        return self._open

    def wait(self) -> Event:
        ev = Event(self.engine)
        if self._open:
            ev.succeed(None)
        else:
            self._waiters.append(ev)
        return ev

    def open(self) -> None:
        self._open = True
        while self._waiters:
            self._waiters.popleft().succeed(None)

    def close(self) -> None:
        self._open = False


class Mutex:
    """A simple FIFO mutex (used for per-entry lock-table waits)."""

    def __init__(self, engine: Engine):
        self.engine = engine
        self.locked = False
        self._waiters: Deque[Event] = deque()

    def acquire(self) -> Event:
        ev = Event(self.engine)
        if not self.locked:
            self.locked = True
            ev.succeed(None)
        else:
            self._waiters.append(ev)
        return ev

    def release(self) -> None:
        if not self.locked:
            raise SimulationError("mutex released while unlocked")
        if self._waiters:
            self._waiters.popleft().succeed(None)
        else:
            self.locked = False
