"""Synchronisation primitives built on the DES engine.

These model the hardware structures BionicDB is built from: inboxes
that hand arrivals to a handler one at a time (an index pipeline
stage, a fabric channel, the NIC's RX ring), and token pools that
throttle in-flight DB instructions.  Neither blocks anything: an
arrival at a busy inbox joins its backlog, and a request that finds no
token waits in its pipeline's queue.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable

from .engine import Engine, SimulationError

__all__ = ["Inbox", "TokenPool"]


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


class TokenPool:
    """A counting semaphore: an index pipeline's in-flight cap.

    The benchmark sweeps of Figures 10 and 11 vary "the maximum number
    of in-flight DB requests over the index coprocessor" — that limit is
    a token pool taken with :meth:`try_acquire` on admission and
    released by terminal pipeline stages.  Nothing blocks on it: a
    request that finds no token waits in the pipeline's own queue.
    """

    def __init__(self, tokens: int, name: str = ""):
        if tokens < 1:
            raise ValueError("tokens must be >= 1")
        self.capacity = tokens
        self.available = tokens
        self.name = name

    @property
    def in_use(self) -> int:
        return self.capacity - self.available

    def try_acquire(self) -> bool:
        """Take a token; False when none is free."""
        if self.available <= 0:
            return False
        self.available -= 1
        return True

    def release(self) -> None:
        if self.available >= self.capacity:
            raise SimulationError(f"token pool {self.name!r} over-released")
        self.available += 1

    def resize(self, tokens: int) -> None:
        """Grow/shrink the pool (used by in-flight sweeps between runs)."""
        if tokens < 1:
            raise ValueError("tokens must be >= 1")
        self.available += tokens - self.capacity
        self.capacity = tokens
