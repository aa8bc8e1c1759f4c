"""Overload-resilience primitives: retry budgets, breakers, brownout.

Three independent mechanisms.  A front-end given a
:class:`ResilienceConfig` calls the retry budget and the brownout
controller from its serving path; a front-end given none builds
neither, so its serving path is bit-identical to the plain front-end.
The breakers, and the budget again, serve
:class:`repro.frontend.router.ClusterRetryRouter`, the control-plane
planner in front of an :class:`~repro.cluster.ha.HACluster`:

* :class:`RetryBudget` — a per-priority-class token bucket funded by
  *first-attempt* traffic: every first attempt deposits ``ratio``
  tokens (capped at ``burst``), every retry spends one.  Retries can
  therefore never exceed ``burst + ratio × first_attempts`` — the
  amplification bound that keeps a transient failure from turning into
  a metastable retry storm.
* :class:`CircuitBreaker` / :class:`BreakerBank` — one closed → open →
  half-open state machine per partition, tripped by the failure rate
  over a sliding sample window (``PartitionUnavailableError`` and
  friends count as failures) at :data:`BREAKER_FAILURE_THRESHOLD`.
  Open breakers fail fast instead of queueing doomed work; after
  ``open_ns`` :data:`BREAKER_HALF_OPEN_PROBES` probes are let through
  and the first probe success closes the breaker again.
* :class:`BrownoutController` — priority-class load shedding layered
  on top of token-bucket admission: as the dispatch backlog fills past
  a per-class fraction of capacity (:data:`BROWNOUT_SHED_AT`),
  low-priority classes are shed first and class 0 never is.
  Hysteresis (:data:`BROWNOUT_RELEASE`) keeps the controller from
  flapping at the threshold.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Optional, Tuple

from ..errors import ConfigError

__all__ = [
    "REASON_BROWNOUT",
    "RetryBudgetConfig", "RetryBudget",
    "BreakerConfig", "CircuitBreaker", "BreakerBank",
    "BREAKER_CLOSED", "BREAKER_OPEN", "BREAKER_HALF_OPEN",
    "BREAKER_FAILURE_THRESHOLD", "BREAKER_HALF_OPEN_PROBES",
    "BrownoutController", "BROWNOUT_SHED_AT", "BROWNOUT_RELEASE",
    "ResilienceConfig",
]

#: shed reason stamped into ``Request.reason`` / ``abort_reason``
REASON_BROWNOUT = "brownout-shed"


# -- retry budget ------------------------------------------------------------

@dataclass
class RetryBudgetConfig:
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

#: failure fraction of the window at which a breaker opens
BREAKER_FAILURE_THRESHOLD = 0.5
#: probes a half-open breaker admits; the first success closes it
BREAKER_HALF_OPEN_PROBES = 2


@dataclass
class BreakerConfig:
    #: sliding sample window (successes + failures) the trip decision
    #: is taken over
    window: int = 16
    #: don't trip on fewer than this many samples in the window
    min_samples: int = 3
    #: cooldown before an open breaker admits half-open probes
    open_ns: float = 2_000_000.0

    def __post_init__(self):
        if self.window < 1:
            raise ConfigError("breaker window must be >= 1",
                              window=self.window)
        if not 1 <= self.min_samples <= self.window:
            raise ConfigError("breaker min_samples must be in [1, window]",
                              min_samples=self.min_samples,
                              window=self.window)
        if self.open_ns < 0:
            raise ConfigError("breaker open_ns must be >= 0",
                              open_ns=self.open_ns)


class CircuitBreaker:
    """closed → open → half-open state machine for one partition."""

    __slots__ = ("config", "partition", "state", "_window", "_opened_at",
                 "_probes_left", "opened", "half_opened", "reclosed")

    def __init__(self, config: BreakerConfig, partition: int = 0):
        self.config = config
        self.partition = partition
        self.state = BREAKER_CLOSED
        self._window: Deque[int] = deque(maxlen=config.window)
        self._opened_at = 0.0
        self._probes_left = 0
        # transition counters (surfaced in the cluster drills' counts)
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
                self._probes_left = BREAKER_HALF_OPEN_PROBES - 1
                return True
            return False
        # half-open: bounded probes
        if self._probes_left > 0:
            self._probes_left -= 1
            return True
        return False

    def record_success(self, now_ns: float) -> None:
        if self.state == BREAKER_HALF_OPEN:
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
                and sum(window) >= BREAKER_FAILURE_THRESHOLD * len(window)):
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
        return self.breaker(partition).allow(now_ns)

    def record_success(self, partition: int, now_ns: float) -> None:
        self.breaker(partition).record_success(now_ns)

    def record_failure(self, partition: int, now_ns: float) -> None:
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

#: per-priority-class backlog fraction at which that class starts
#: shedding; class ``c`` uses ``BROWNOUT_SHED_AT[min(c, len-1)]``.  2.0
#: is above any reachable backlog fraction, so class 0 is never shed.
BROWNOUT_SHED_AT: Tuple[float, ...] = (2.0, 0.85, 0.6)
#: hysteresis: once shedding, a class resumes only when the backlog
#: fraction falls back below ``threshold * BROWNOUT_RELEASE``
BROWNOUT_RELEASE = 0.75


class BrownoutController:
    """Backlog-driven priority shedding with hysteresis.

    Past-deadline work is already shed ahead of this check (the pump
    times out expired requests before admission), so brownout only has
    to order the *live* work by priority class.
    """

    def __init__(self, capacity: Optional[int]):
        #: the backlog the fractions are measured against; ``None``
        #: (an unbounded backlog) never sheds
        self.capacity = capacity
        self._active: Dict[int, bool] = {}
        self.shed_counts: Dict[int, int] = {}

    def threshold(self, priority: int) -> float:
        return BROWNOUT_SHED_AT[min(priority, len(BROWNOUT_SHED_AT) - 1)]

    def should_shed(self, priority: int, backlog: int) -> bool:
        """Shed this request?  Stateful: tracks per-class activation so
        the controller releases below the threshold it engaged at."""
        if not self.capacity:
            return False
        fraction = backlog / self.capacity
        threshold = self.threshold(priority)
        active = self._active.get(priority, False)
        if active:
            if fraction < threshold * BROWNOUT_RELEASE:
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
    """Knobs for the front-end's overload-resilience layer.

    A :class:`~repro.frontend.core.FrontendConfig` without one (the
    default) builds no budget and no brownout controller: no hook
    runs, and the goldens of ``tests/goldens.py`` are unaffected.  With
    one, the front-end sheds low-priority work by brownout and budgets
    session retries per priority class.
    """

    budget: RetryBudgetConfig = field(default_factory=RetryBudgetConfig)
