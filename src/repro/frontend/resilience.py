"""Overload-resilience primitives: retry budgets, breakers, brownout.

Three independent mechanisms, composable behind a single
:class:`ResilienceConfig` (disabled by default so the serving path is
bit-identical to the pre-resilience front-end):

* :class:`RetryBudget` — a per-priority-class token bucket funded by
  *first-attempt* traffic: every first attempt deposits ``ratio``
  tokens (capped at ``burst``), every retry spends one.  Retries can
  therefore never exceed ``burst + ratio × first_attempts`` — the
  amplification bound that keeps a transient failure from turning into
  a metastable retry storm.
* :class:`CircuitBreaker` / :class:`BreakerBank` — one closed → open →
  half-open state machine per partition, tripped by the failure rate
  over a sliding sample window (``PartitionUnavailableError`` and
  friends count as failures).  Open breakers fail fast instead of
  queueing doomed work; after ``open_ns`` a bounded number of probes
  is let through and the breaker closes again only on probe success.
* :class:`BrownoutController` — priority-class load shedding layered
  on top of token-bucket admission: as the dispatch backlog fills past
  a per-class fraction of capacity, low-priority classes are shed
  first (class 0 is never browned out by default).  Hysteresis keeps
  the controller from flapping at the threshold.

The engine-embedded consumer of these pieces is
:class:`repro.frontend.router.RequestRouter`; the control-plane
consumer is :class:`repro.frontend.router.ClusterRetryRouter`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Optional, Tuple

from ..errors import ConfigError

__all__ = [
    "REASON_BROWNOUT", "REASON_BREAKER", "REASON_RETRY_BUDGET",
    "REASON_PARK_EXPIRED",
    "RetryBudgetConfig", "RetryBudget",
    "BreakerConfig", "CircuitBreaker", "BreakerBank",
    "BREAKER_CLOSED", "BREAKER_OPEN", "BREAKER_HALF_OPEN",
    "BrownoutConfig", "BrownoutController",
    "ResilienceConfig",
]

#: shed reasons stamped into ``Request.reason`` / ``abort_reason``
REASON_BROWNOUT = "brownout-shed"
REASON_BREAKER = "breaker-open"
REASON_RETRY_BUDGET = "retry-budget-exhausted"
REASON_PARK_EXPIRED = "parked-past-budget"


# -- retry budget ------------------------------------------------------------

@dataclass
class RetryBudgetConfig:
    enabled: bool = True
    #: tokens deposited per first attempt — the steady-state bound on
    #: retries as a fraction of first-attempt traffic
    ratio: float = 0.5
    #: bucket capacity (and initial fill): the burst of retries allowed
    #: before the fraction bound bites
    burst: int = 16

    def __post_init__(self):
        if self.ratio < 0:
            raise ConfigError("retry-budget ratio must be >= 0",
                              ratio=self.ratio)
        if self.burst < 0:
            raise ConfigError("retry-budget burst must be >= 0",
                              burst=self.burst)


class RetryBudget:
    """Per-class token bucket funded by first-attempt traffic.

    Classes are small ints (session priority).  Each class gets its own
    bucket so a storming low-priority tenant cannot drain the retry
    capacity of well-behaved high-priority traffic.
    """

    def __init__(self, config: Optional[RetryBudgetConfig] = None):
        self.config = config or RetryBudgetConfig()
        self._tokens: Dict[int, float] = {}
        self.first_attempts: Dict[int, int] = {}
        self.granted: Dict[int, int] = {}
        self.denied: Dict[int, int] = {}

    def _bucket(self, cls: int) -> float:
        return self._tokens.setdefault(cls, float(self.config.burst))

    def note_first_attempt(self, cls: int = 0) -> None:
        """A first attempt funds ``ratio`` tokens of future retries."""
        self.first_attempts[cls] = self.first_attempts.get(cls, 0) + 1
        tokens = self._bucket(cls)
        self._tokens[cls] = min(float(self.config.burst),
                                tokens + self.config.ratio)

    def deposit(self, amount: float, cls: int = 0) -> None:
        """Out-of-band refill (e.g. a control-plane settle round) so a
        long recovery cannot starve once the storm has passed; still
        capped at ``burst`` so amplification stays bounded."""
        tokens = self._bucket(cls)
        self._tokens[cls] = min(float(self.config.burst), tokens + amount)

    def try_spend(self, cls: int = 0) -> bool:
        """Spend one token for a retry; ``False`` = budget exhausted."""
        if not self.config.enabled:
            return True
        tokens = self._bucket(cls)
        if tokens >= 1.0:
            self._tokens[cls] = tokens - 1.0
            self.granted[cls] = self.granted.get(cls, 0) + 1
            return True
        self.denied[cls] = self.denied.get(cls, 0) + 1
        return False

    def tokens(self, cls: int = 0) -> float:
        return self._bucket(cls)

    def totals(self) -> Dict[str, int]:
        return {"granted": sum(self.granted.values()),
                "denied": sum(self.denied.values())}


# -- circuit breakers --------------------------------------------------------

BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half_open"


@dataclass
class BreakerConfig:
    enabled: bool = True
    #: sliding sample window (successes + failures) the trip decision
    #: is taken over
    window: int = 16
    #: don't trip on fewer than this many samples in the window
    min_samples: int = 3
    #: failure fraction of the window at which the breaker opens
    failure_threshold: float = 0.5
    #: cooldown before an open breaker admits half-open probes
    open_ns: float = 2_000_000.0
    #: probes admitted while half-open
    half_open_probes: int = 2
    #: consecutive probe successes required to close again
    close_after: int = 1

    def __post_init__(self):
        if self.window < 1:
            raise ConfigError("breaker window must be >= 1",
                              window=self.window)
        if not 1 <= self.min_samples <= self.window:
            raise ConfigError("breaker min_samples must be in [1, window]",
                              min_samples=self.min_samples,
                              window=self.window)
        if not 0.0 < self.failure_threshold <= 1.0:
            raise ConfigError("breaker failure_threshold must be in (0, 1]",
                              failure_threshold=self.failure_threshold)
        if self.open_ns < 0:
            raise ConfigError("breaker open_ns must be >= 0",
                              open_ns=self.open_ns)
        if self.half_open_probes < 1:
            raise ConfigError("breaker half_open_probes must be >= 1",
                              half_open_probes=self.half_open_probes)
        if not 1 <= self.close_after <= self.half_open_probes:
            raise ConfigError(
                "breaker close_after must be in [1, half_open_probes] "
                "(more successes than probes could never close)",
                close_after=self.close_after,
                half_open_probes=self.half_open_probes)


class CircuitBreaker:
    """closed → open → half-open state machine for one partition."""

    __slots__ = ("config", "partition", "state", "_window", "_opened_at",
                 "_probes_left", "_probe_successes",
                 "opened", "half_opened", "reclosed")

    def __init__(self, config: BreakerConfig, partition: int = 0):
        self.config = config
        self.partition = partition
        self.state = BREAKER_CLOSED
        self._window: Deque[int] = deque(maxlen=config.window)
        self._opened_at = 0.0
        self._probes_left = 0
        self._probe_successes = 0
        # transition counters (surfaced in FrontendReport)
        self.opened = 0
        self.half_opened = 0
        self.reclosed = 0

    def allow(self, now_ns: float) -> bool:
        """May a request pass?  Advances open → half-open after the
        cooldown; half-open admits a bounded number of probes."""
        if self.state == BREAKER_CLOSED:
            return True
        if self.state == BREAKER_OPEN:
            if now_ns - self._opened_at >= self.config.open_ns:
                self.state = BREAKER_HALF_OPEN
                self.half_opened += 1
                self._probes_left = self.config.half_open_probes - 1
                self._probe_successes = 0
                return True
            return False
        # half-open: bounded probes
        if self._probes_left > 0:
            self._probes_left -= 1
            return True
        return False

    def record_success(self, now_ns: float) -> None:
        if self.state == BREAKER_HALF_OPEN:
            self._probe_successes += 1
            if self._probe_successes >= self.config.close_after:
                self.state = BREAKER_CLOSED
                self.reclosed += 1
                self._window.clear()
        elif self.state == BREAKER_CLOSED:
            self._window.append(0)

    def record_failure(self, now_ns: float) -> None:
        if self.state == BREAKER_HALF_OPEN:
            self._trip(now_ns)      # a failed probe re-opens immediately
            return
        if self.state == BREAKER_OPEN:
            return
        window = self._window
        window.append(1)
        if (len(window) >= self.config.min_samples
                and sum(window) >= self.config.failure_threshold * len(window)):
            self._trip(now_ns)

    def _trip(self, now_ns: float) -> None:
        self.state = BREAKER_OPEN
        self.opened += 1
        self._opened_at = now_ns
        self._window.clear()


class BreakerBank:
    """Lazy per-partition breakers plus aggregate accounting."""

    def __init__(self, config: Optional[BreakerConfig] = None):
        self.config = config or BreakerConfig()
        self._breakers: Dict[int, CircuitBreaker] = {}

    def breaker(self, partition: int) -> CircuitBreaker:
        brk = self._breakers.get(partition)
        if brk is None:
            brk = self._breakers[partition] = CircuitBreaker(
                self.config, partition)
        return brk

    def allow(self, partition: int, now_ns: float) -> bool:
        if not self.config.enabled:
            return True
        return self.breaker(partition).allow(now_ns)

    def record_success(self, partition: int, now_ns: float) -> None:
        if self.config.enabled:
            self.breaker(partition).record_success(now_ns)

    def record_failure(self, partition: int, now_ns: float) -> None:
        if self.config.enabled:
            self.breaker(partition).record_failure(now_ns)

    def states(self) -> Dict[int, str]:
        return {p: self._breakers[p].state for p in sorted(self._breakers)}

    def all_closed(self) -> bool:
        return all(b.state == BREAKER_CLOSED
                   for b in self._breakers.values())

    def transitions(self) -> Dict[str, int]:
        breakers = self._breakers.values()
        return {"opened": sum(b.opened for b in breakers),
                "half_opened": sum(b.half_opened for b in breakers),
                "reclosed": sum(b.reclosed for b in breakers)}


# -- brownout (priority-class load shedding) ---------------------------------

@dataclass
class BrownoutConfig:
    enabled: bool = True
    #: per-priority-class backlog fraction at which that class starts
    #: shedding; class ``c`` uses ``shed_at[min(c, len-1)]``.  Values
    #: above the largest reachable backlog fraction never trigger —
    #: the default never browns out class 0.
    shed_at: Tuple[float, ...] = (2.0, 0.85, 0.6)
    #: hysteresis: once shedding, a class resumes only when the backlog
    #: fraction falls back below ``threshold * release``
    release: float = 0.75
    #: backlog capacity the fractions are measured against; ``None``
    #: inherits the admission controller's ``max_backlog``
    capacity: Optional[int] = None

    def __post_init__(self):
        if not self.shed_at:
            raise ConfigError("brownout shed_at must name at least one class")
        for frac in self.shed_at:
            if frac <= 0:
                raise ConfigError("brownout shed_at fractions must be > 0",
                                  shed_at=self.shed_at)
        if not 0.0 < self.release <= 1.0:
            raise ConfigError("brownout release must be in (0, 1]",
                              release=self.release)
        if self.capacity is not None and self.capacity < 1:
            raise ConfigError("brownout capacity must be >= 1 (or None)",
                              capacity=self.capacity)


class BrownoutController:
    """Backlog-driven priority shedding with hysteresis.

    Past-deadline work is already shed ahead of this check (the pump
    times out expired requests before admission), so brownout only has
    to order the *live* work by priority class.
    """

    def __init__(self, config: Optional[BrownoutConfig] = None,
                 capacity: Optional[int] = None):
        self.config = config or BrownoutConfig()
        self.capacity = (self.config.capacity
                         if self.config.capacity is not None else capacity)
        self._active: Dict[int, bool] = {}
        self.shed_counts: Dict[int, int] = {}

    def threshold(self, priority: int) -> float:
        shed_at = self.config.shed_at
        return shed_at[min(priority, len(shed_at) - 1)]

    def should_shed(self, priority: int, backlog: int) -> bool:
        """Shed this request?  Stateful: tracks per-class activation so
        the controller releases below the threshold it engaged at."""
        if not self.config.enabled or not self.capacity:
            return False
        fraction = backlog / self.capacity
        threshold = self.threshold(priority)
        active = self._active.get(priority, False)
        if active:
            if fraction < threshold * self.config.release:
                self._active[priority] = False
                return False
            return True
        if fraction >= threshold:
            self._active[priority] = True
            return True
        return False

    def note_shed(self, priority: int) -> None:
        self.shed_counts[priority] = self.shed_counts.get(priority, 0) + 1


# -- the umbrella config -----------------------------------------------------

@dataclass
class ResilienceConfig:
    """Knobs for the overload-resilience layer.

    ``enabled=False`` (the default) keeps the serving path bit-identical
    to the pre-resilience front-end: no router is constructed, no hook
    runs, and the goldens of ``tests/goldens.py`` are unaffected.
    """

    enabled: bool = False
    budget: RetryBudgetConfig = field(default_factory=RetryBudgetConfig)
    breaker: BreakerConfig = field(default_factory=BreakerConfig)
    brownout: BrownoutConfig = field(default_factory=BrownoutConfig)
    #: re-plan CrossNodeTransactionError submits onto the block's true
    #: home lane instead of failing the request
    rehome: bool = True
    #: hold requests bounced by a retryable cluster error and replay
    #: them when the partition heals, instead of failing to the client
    park: bool = True
    #: replay poll cadence while requests are parked
    replay_interval_ns: float = 250_000.0
    #: give up on a parked request after this long (rejected to client)
    max_park_ns: float = 5_000_000.0

    def __post_init__(self):
        if self.replay_interval_ns <= 0:
            raise ConfigError("replay_interval_ns must be > 0",
                              replay_interval_ns=self.replay_interval_ns)
        if self.max_park_ns < self.replay_interval_ns:
            raise ConfigError(
                "max_park_ns must be >= replay_interval_ns",
                max_park_ns=self.max_park_ns,
                replay_interval_ns=self.replay_interval_ns)
