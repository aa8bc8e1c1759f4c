"""Dispatch scheduling: from admitted requests to home workers.

Admitted requests queue here per home worker.  Each worker has a
dispatch loop that keeps at most ``max_inflight_per_worker`` blocks
inside the chip (submitted but not finished) — the window that feeds
the softcore's §4.5 batch former without recreating today's unbounded
teleport.  Two orthogonal decisions pick the next request:

* **Across sessions** — weighted-fair queuing (stride scheduling): each
  session owns a virtual clock advanced by ``1/weight`` per dispatch;
  the ready session with the smallest clock goes next, so a weight-2
  tenant gets twice the dispatch share of a weight-1 tenant when both
  are backlogged, and an idle session never banks credit (its clock is
  snapped forward on re-arrival).

* **Within/instead of fairness** — with ``policy="edf"`` the dispatcher
  ignores virtual clocks and picks the queued request with the
  earliest absolute deadline (requests without deadlines sort last),
  the classic earliest-deadline-first rule.

A request whose deadline has already passed when it is popped is shed
as ``TIMED_OUT`` instead of being submitted — executing it would only
steal service from requests that can still meet their SLO.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional

from ..errors import ConfigError
from ..sim.engine import Engine
from ..sim.stats import StatsRegistry
from ..sim.sync import Fifo, TokenPool

__all__ = ["SchedulerConfig", "DispatchScheduler"]


@dataclass
class SchedulerConfig:
    #: "fifo" = weighted-fair across sessions, FIFO within a session;
    #: "edf" = earliest-deadline-first across everything queued
    policy: str = "fifo"
    #: dispatch window per worker; ``None`` = unlimited (pass-through)
    max_inflight_per_worker: Optional[int] = 8

    def __post_init__(self):
        if self.policy not in ("fifo", "edf"):
            raise ConfigError(f"unknown dispatch policy {self.policy!r}")
        if (self.max_inflight_per_worker is not None
                and self.max_inflight_per_worker < 1):
            raise ConfigError(
                "max_inflight_per_worker must be >= 1 (or None); a "
                "zero-wide dispatch window would never submit anything",
                max_inflight_per_worker=self.max_inflight_per_worker)


class _Lane:
    """Per-worker dispatch state: per-session queues + a request signal."""

    __slots__ = ("worker", "queues", "signal", "window")

    def __init__(self, engine: Engine, worker: int,
                 window: Optional[int]):
        self.worker = worker
        self.queues: Dict[int, Deque] = {}
        self.signal = Fifo(engine, name=f"frontend.lane{worker}")
        self.window = (TokenPool(engine, window,
                                 name=f"frontend.lane{worker}.window")
                       if window is not None else None)


class DispatchScheduler:
    """Routes admitted requests to home workers under the chosen policy."""

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
        self._lanes: List[_Lane] = [
            _Lane(engine, w, self.config.max_inflight_per_worker)
            for w in range(n_workers)
        ]
        self.procs = [
            engine.process(self._lane_loop(lane),
                           name=f"frontend.dispatch.w{lane.worker}")
            for lane in self._lanes
        ]

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
        lane.signal.try_put(None)

    # -- selection ----------------------------------------------------------
    def _select(self, lane: _Lane):
        if self.config.policy == "edf":
            # earliest absolute deadline over EVERYTHING queued on this
            # lane, not just session heads — a late-queued urgent request
            # must overtake its own session's earlier arrivals too
            sid, dq, pos, best = None, None, None, None
            for s, q in lane.queues.items():
                for i, r in enumerate(q):
                    key = (r.deadline_at_ns
                           if r.deadline_at_ns is not None else float("inf"),
                           r.seq)
                    if best is None or key < best:
                        best, sid, dq, pos = key, s, q, i
            request = dq[pos]
            del dq[pos]
        else:
            heads = [(s, q) for s, q in lane.queues.items() if q]
            sid, dq = min(heads, key=lambda item: (self._vtime[item[0]],
                                                   item[1][0].seq))
            request = dq.popleft()
        self._global_v = self._vtime[sid]
        self._vtime[sid] += 1.0 / self._weight.get(sid, 1.0)
        return request

    # -- per-worker loop ----------------------------------------------------
    def _lane_loop(self, lane: _Lane):
        while True:
            yield lane.signal.get()
            request = self._select(lane)
            self.backlog -= 1
            if request.expired(self.engine.now):
                self._timed_out.add()
                self._on_timeout(request)
                continue
            if lane.window is not None:
                yield lane.window.acquire()
                # the wait for a window slot may have burned the deadline
                if request.expired(self.engine.now):
                    lane.window.release()
                    self._timed_out.add()
                    self._on_timeout(request)
                    continue
            self._dispatched.add()
            self._submit(request)

    # -- completion ---------------------------------------------------------
    def note_done(self, worker: int) -> None:
        lane = self._lanes[worker]
        if lane.window is not None:
            lane.window.release()
