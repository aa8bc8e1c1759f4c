"""Synchronisation primitives built on the DES engine.

These model the hardware structures BionicDB is built from: FIFOs
between a process and its producers, token pools that throttle
in-flight DB instructions, and inboxes that hand arrivals to a
handler one at a time.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque

from .engine import Engine, Event, SimulationError

__all__ = ["Fifo", "Inbox", "TokenPool"]


class Inbox:
    """Arrivals served one at a time, ``delay`` ns each, by a handler.

    An index pipeline stage: an arrival at an idle inbox starts service
    on the engine's ready deque, at a busy one it joins the backlog
    (``len()``).  Service ends by calling the handler; the next arrival
    starts after everything the handler queued at that instant.  An
    exception out of a handler leaves ``Engine.run()``.
    """

    __slots__ = ("_engine", "_sched", "_handler", "_delay", "_start",
                 "_busy", "_backlog")

    def __init__(self, engine: Engine, handler: Callable[[Any], None],
                 delay: float = 0.0):
        self._engine = engine
        self._sched = engine._schedule_fn
        self._handler = handler
        self._delay = delay
        self._start = self._serve if delay == 0 else self._wait
        self._busy = False
        self._backlog: deque = deque()

    def __len__(self) -> int:
        return len(self._backlog)

    def arrive(self, item: Any) -> None:
        if self._busy:
            self._backlog.append(item)
        else:
            self._busy = True
            self._sched(self._engine.now, self._start, item)

    def _wait(self, item: Any) -> None:
        self._sched(self._engine.now + self._delay, self._serve, item)

    def _serve(self, item: Any) -> None:
        self._handler(item)
        backlog = self._backlog
        if backlog:
            self._sched(self._engine.now, self._start, backlog.popleft())
        else:
            self._busy = False


class Fifo:
    """An unbounded FIFO channel.

    ``try_put(item)`` enqueues at once (or hands the item to the oldest
    waiting getter); ``get()`` returns an event.  This is how
    inter-stage queues are modelled (the paper permits "multiple
    outstanding DB instructions between neighbouring stages"; global
    occupancy is throttled by a :class:`TokenPool` instead).
    """

    def __init__(self, engine: Engine, name: str = ""):
        self.engine = engine
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self.total_put = 0
        self.max_depth = 0

    def __len__(self) -> int:
        return len(self._items)

    def try_put(self, item: Any) -> None:
        self.total_put += 1
        if self._getters:
            self._getters.popleft().succeed(item)
            return
        items = self._items
        items.append(item)
        depth = len(items)
        if depth > self.max_depth:
            self.max_depth = depth

    def get(self) -> Event:
        ev = Event(self.engine)
        if self._items:
            ev.succeed(self._items.popleft())
        else:
            self._getters.append(ev)
        return ev

    def try_get(self) -> tuple:
        """Non-blocking get; returns (ok, item)."""
        if self._items:
            return True, self._items.popleft()
        return False, None


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
