"""Client sessions: who is sending, how fast, and what they do on failure.

A :class:`ClientSession` is one tenant's connection through the
front-end.  It owns an arrival schedule (open-loop Poisson that never
waits, or closed-loop with a concurrency window and think time), a
fair-queuing weight, an optional per-request deadline, a retry policy
for shed requests, and per-session accounting
(:class:`~repro.frontend.slo.SessionStats`).  Arrivals are handlers
the engine calls at their instants: an open-loop arrival schedules the
next one, a closed-loop request's terminal outcome schedules the next
request after a think time.

Blocks are created lazily at their arrival instants — exactly as a
network client would deliver them — via the session's
``factory(i) -> (TransactionBlock, home_worker)``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Optional, Tuple

from ..errors import ConfigError
from .slo import SessionStats

__all__ = ["SessionConfig", "ClientSession", "Request"]


class Request:
    """One in-flight unit of client work: a block plus serving metadata."""

    __slots__ = ("session", "index", "block", "home", "deadline_at_ns",
                 "created_at_ns", "outcome", "reason", "seq",
                 "attempts", "in_system")

    def __init__(self, session: "ClientSession", index: int, block,
                 home: int, created_at_ns: float,
                 deadline_at_ns: Optional[float]):
        self.session = session
        self.index = index
        self.block = block
        self.home = home
        self.created_at_ns = created_at_ns
        self.deadline_at_ns = deadline_at_ns
        self.outcome: Optional[str] = None    # committed|aborted|rejected|timed_out
        self.reason: Optional[str] = None
        self.seq = 0
        self.attempts = 0
        #: True once the pump has accepted this attempt — a second RX
        #: copy of the same attempt (an injected duplicate) is discarded
        self.in_system = False

    def expired(self, now_ns: float) -> bool:
        return self.deadline_at_ns is not None and now_ns > self.deadline_at_ns

    def reset_for_retry(self) -> None:
        """Clear the previous shed outcome so the block can re-enter.

        The deadline is *not* extended: SLOs are end-to-end, so retries
        race the original clock.
        """
        self.block.reset_for_replay()
        self.block.submitted_at_ns = None
        self.block.done_at_ns = None
        self.outcome = None
        self.reason = None
        self.in_system = False


@dataclass
class SessionConfig:
    name: str = "client"
    #: "open" = Poisson arrivals that never wait (needs ``rate_tps``);
    #: "closed" = a window of ``concurrency`` outstanding requests with
    #: exponential think time between completions
    arrival: str = "open"
    rate_tps: Optional[float] = None
    n_requests: int = 0
    #: weighted-fair dispatch share relative to other sessions
    weight: float = 1.0
    #: per-request SLO deadline, ns from creation; ``None`` = no deadline
    deadline_ns: Optional[float] = None
    think_ns: float = 0.0
    concurrency: int = 1
    #: retry-with-backoff policy for REJECTED requests (shed by the NIC
    #: or by admission control); timed-out requests are never retried
    max_retries: int = 0
    retry_backoff_ns: float = 20_000.0
    #: backoff jitter fraction in [0, 1]: each backoff is scaled by a
    #: factor drawn in ``[1 - retry_jitter, 1]`` from the session RNG
    #: (sharable via ``rng=`` so drills reproduce from one seed) —
    #: de-synchronises retry storms without extending SLO clocks
    retry_jitter: float = 0.0
    #: priority class for brownout shedding and retry budgeting:
    #: 0 = most important (never browned out by default), higher =
    #: shed earlier under overload
    priority: int = 0
    #: arrival-process start offset, ns from session creation — lets a
    #: flash crowd or storm session begin mid-run
    start_ns: float = 0.0
    seed: int = 1

    def __post_init__(self):
        if self.arrival not in ("open", "closed"):
            raise ConfigError(f"unknown arrival kind {self.arrival!r}")
        if self.arrival == "open":
            if self.rate_tps is None or self.rate_tps <= 0:
                raise ConfigError(
                    "open-loop sessions need a positive rate_tps",
                    rate_tps=self.rate_tps)
        if self.n_requests < 0:
            raise ConfigError("n_requests must be >= 0",
                              n_requests=self.n_requests)
        if self.weight <= 0:
            raise ConfigError("weight must be positive", weight=self.weight)
        if self.deadline_ns is not None and self.deadline_ns <= 0:
            raise ConfigError(
                "deadline_ns must be positive (or None); a zero deadline "
                "would time out every request at admission",
                deadline_ns=self.deadline_ns)
        if self.think_ns < 0:
            raise ConfigError("think_ns must be >= 0", think_ns=self.think_ns)
        if self.concurrency < 1:
            raise ConfigError("concurrency must be >= 1",
                              concurrency=self.concurrency)
        if self.max_retries < 0:
            raise ConfigError("max_retries must be >= 0",
                              max_retries=self.max_retries)
        if self.retry_backoff_ns < 0:
            raise ConfigError("retry_backoff_ns must be >= 0",
                              retry_backoff_ns=self.retry_backoff_ns)
        if not 0.0 <= self.retry_jitter <= 1.0:
            raise ConfigError("retry_jitter must be in [0, 1]",
                              retry_jitter=self.retry_jitter)
        if self.priority < 0:
            raise ConfigError("priority must be >= 0",
                              priority=self.priority)
        if self.start_ns < 0:
            raise ConfigError("start_ns must be >= 0",
                              start_ns=self.start_ns)


class ClientSession:
    """One tenant's traffic source, wired through a FrontEnd."""

    def __init__(self, frontend, session_id: int, config: SessionConfig,
                 factory: Callable[[int], Tuple[Any, int]],
                 rng: Optional[random.Random] = None):
        self.frontend = frontend
        self.id = session_id
        self.config = config
        self.factory = factory
        self.stats = SessionStats(name=config.name, priority=config.priority)
        self.requests = []            # every Request ever generated
        #: arrivals, think time and retry jitter all draw from this —
        #: pass the workload's RNG (``rng=``) to make a multi-session
        #: overload drill reproducible from a single seed
        self._rng = rng if rng is not None else random.Random(config.seed)
        self._next_index = 0
        streams = config.concurrency if config.arrival == "closed" else 1
        for _ in range(streams):     # each starts on the engine's next step
            self._after(0.0, self._start)

    # -- request construction ----------------------------------------------
    def _make(self, i: int) -> Request:
        engine = self.frontend.engine
        block, home = self.factory(i)
        now = engine.now
        block.created_at_ns = now
        deadline = (now + self.config.deadline_ns
                    if self.config.deadline_ns is not None else None)
        block.deadline_ns = deadline
        req = Request(self, i, block, home, now, deadline)
        self.stats.offered += 1
        self.requests.append(req)
        return req

    def _after(self, delay: float, fn: Callable[[Any], None],
               arg: Any = None) -> None:
        engine = self.frontend.engine
        engine._schedule_fn(engine.now + delay, fn, arg)

    def _start(self, _arg) -> None:
        first = (self._open_arrival if self.config.arrival == "open"
                 else self._closed_next)
        if self.config.start_ns > 0:
            self._after(self.config.start_ns, first, 0)
        else:
            first(0)

    # -- open loop: each arrival schedules the next, and its delivery -------
    def _open_arrival(self, i: int) -> None:
        # past the last request this wake only advances the clock: a
        # session sleeps one gap after its last arrival too
        config = self.config
        if i < config.n_requests:
            self._after(0.0, self.frontend._deliver, self._make(i))
            self._after(self._rng.expovariate(1.0) * (1e9 / config.rate_tps),
                        self._open_arrival, i + 1)

    # -- closed loop: each terminal outcome schedules the next request -------
    def _closed_next(self, _arg) -> None:
        i = self._next_index
        if i < self.config.n_requests:
            self._next_index = i + 1
            self.frontend._deliver(self._make(i))

    # -- terminal accounting -------------------------------------------------
    def _terminal(self, req: Request) -> None:
        self.stats.record(req)
        config = self.config
        if config.arrival == "closed":
            if config.think_ns > 0:
                self._after(self._rng.expovariate(1.0) * config.think_ns,
                            self._closed_next)
            else:
                self._closed_next(None)
