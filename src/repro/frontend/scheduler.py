"""Dispatch scheduling: from admitted requests to home workers.

Admitted requests queue here per home worker.  Each worker has a
dispatch lane that keeps at most ``max_inflight_per_worker`` blocks
inside the chip (submitted but not finished) — the window that feeds
the softcore's §4.5 batch former without recreating today's unbounded
teleport.  A lane is a handler: it selects an engine step after an
enqueue (so requests enqueued in between are candidates) and takes a
window slot a step after one is free.

The next request comes from weighted-fair queuing across sessions
(stride scheduling), FIFO within a session: each session owns a
virtual clock advanced by ``1/weight`` per dispatch; the ready session
with the smallest clock goes next, so a weight-2 tenant gets twice the
dispatch share of a weight-1 tenant when both are backlogged, and an
idle session never banks credit (its clock is snapped forward on
re-arrival).

A request whose deadline has already passed when it is popped is shed
as ``TIMED_OUT`` instead of being submitted — executing it would only
steal service from requests that can still meet their SLO.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional

from ..errors import ConfigError
from ..sim.engine import Engine, SimulationError
from ..sim.stats import StatsRegistry

__all__ = ["SchedulerConfig", "DispatchScheduler"]


@dataclass
class SchedulerConfig:
    #: dispatch window per worker; ``None`` = unlimited (pass-through)
    max_inflight_per_worker: Optional[int] = 8

    def __post_init__(self):
        if (self.max_inflight_per_worker is not None
                and self.max_inflight_per_worker < 1):
            raise ConfigError(
                "max_inflight_per_worker must be >= 1 (or None); a "
                "zero-wide dispatch window would never submit anything",
                max_inflight_per_worker=self.max_inflight_per_worker)


class _Lane:
    """Per-worker dispatch state: per-session queues, the enqueues not
    yet served (the one in service included), the window's free slots
    (``None`` = no window) and the request waiting for one."""

    __slots__ = ("queues", "pending", "free", "blocked")

    def __init__(self, window: Optional[int]):
        self.queues: Dict[int, Deque] = {}
        self.pending = 0
        self.free = window
        self.blocked = None


class DispatchScheduler:
    """Routes admitted requests to home workers, weighted-fair."""

    def __init__(self, engine: Engine, n_workers: int,
                 config: Optional[SchedulerConfig] = None,
                 submit: Callable = None, on_timeout: Callable = None,
                 stats: Optional[StatsRegistry] = None):
        if n_workers < 1:
            raise ConfigError("n_workers must be >= 1", n_workers=n_workers)
        self.engine = engine
        self.config = config or SchedulerConfig()
        self.stats = stats or StatsRegistry()
        self._submit = submit
        self._on_timeout = on_timeout
        self.backlog = 0               # admitted, not yet dispatched
        self._seq = 0                  # FIFO tie-break / within-session order
        self._vtime: Dict[int, float] = {}
        self._weight: Dict[int, float] = {}
        self._global_v = 0.0
        self._dispatched = self.stats.counter("frontend.dispatched")
        self._timed_out = self.stats.counter("frontend.timed_out")
        self._window = self.config.max_inflight_per_worker
        self._lanes: List[_Lane] = [_Lane(self._window)
                                    for _ in range(n_workers)]

    # -- session registry ---------------------------------------------------
    def register_session(self, session_id: int, weight: float) -> None:
        self._weight[session_id] = weight
        self._vtime[session_id] = self._global_v

    # -- enqueue ------------------------------------------------------------
    def enqueue(self, request) -> None:
        lane = self._lanes[request.home]
        sid = request.session.id
        dq = lane.queues.get(sid)
        if dq is None:
            dq = lane.queues[sid] = deque()
        if not dq:
            # re-arriving after idle: no banked credit
            self._vtime[sid] = max(self._vtime.get(sid, 0.0), self._global_v)
        self._seq += 1
        request.seq = self._seq
        dq.append(request)
        self.backlog += 1
        lane.pending += 1
        if lane.pending == 1:
            self.engine._schedule_fn(self.engine.now, self._serve, lane)

    # -- selection ----------------------------------------------------------
    def _select(self, lane: _Lane):
        heads = [(s, q) for s, q in lane.queues.items() if q]
        sid, dq = min(heads, key=lambda item: (self._vtime[item[0]],
                                               item[1][0].seq))
        request = dq.popleft()
        self._global_v = self._vtime[sid]
        self._vtime[sid] += 1.0 / self._weight.get(sid, 1.0)
        return request

    # -- per-worker lane -----------------------------------------------------
    def _serve(self, lane: _Lane) -> None:
        """Serve one enqueue: select, then submit or take a window slot."""
        request = self._select(lane)
        self.backlog -= 1
        if lane.free is None or request.expired(self.engine.now):
            self._submit_or_shed(lane, request)
        elif lane.free:
            lane.free -= 1
            self.engine._schedule_fn(self.engine.now, self._granted,
                                     (lane, request))
        else:
            lane.blocked = request

    def _granted(self, item) -> None:
        lane, request = item
        if request.expired(self.engine.now):
            lane.free += 1     # the wait for a slot burned the deadline
        self._submit_or_shed(lane, request)

    def _submit_or_shed(self, lane: _Lane, request) -> None:
        if request.expired(self.engine.now):
            self._timed_out.add()
            self._on_timeout(request)
        else:
            self._dispatched.add()
            self._submit(request)
        lane.pending -= 1
        if lane.pending:
            self.engine._schedule_fn(self.engine.now, self._serve, lane)

    # -- completion ---------------------------------------------------------
    def note_done(self, worker: int) -> None:
        """A block of ``worker``'s lane left the chip: free its slot."""
        lane = self._lanes[worker]
        if lane.free is None:
            return
        request = lane.blocked
        if request is not None:
            lane.blocked = None
            self.engine._schedule_fn(self.engine.now, self._granted,
                                     (lane, request))
        elif lane.free >= self._window:
            raise SimulationError(
                f"dispatch window of worker {worker} over-released")
        else:
            lane.free += 1
