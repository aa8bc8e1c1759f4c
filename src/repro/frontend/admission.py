"""Admission control: decide at the door, not in the queue.

Three policies, applied in this order by the front-end pump to every
packet the NIC delivers:

* **Brownout** — priority-class load shedding while a backlog bound is
  set: as the dispatch backlog fills past a per-class fraction of
  ``max_backlog`` (:data:`BROWNOUT_SHED_AT`), low-priority classes are
  shed first (reason ``"brownout-shed"``).  Class 0 is never shed and
  never checked.
  Hysteresis (:data:`BROWNOUT_RELEASE`) keeps a class from flapping at
  its threshold.  Past-deadline work is already shed ahead of this
  check, so brownout only orders the *live* work by class.

* **Queue-depth bound** — an upper bound on the dispatch backlog
  (requests admitted but not yet handed to a worker).  Once the
  backlog exceeds what the SLO's deadline can absorb,
  admitting more requests only manufactures timeouts; shedding them
  immediately returns a fast, honest ``REJECTED`` (reason
  ``"backlog-full"``) the client can retry against.

* **Token bucket** — a sustained-rate limit with a burst allowance.
  Tokens accrue at ``rate_tps`` and cap at ``burst``; a request that
  finds no token is shed with outcome ``REJECTED`` (reason
  ``"rate-limit"``).  This bounds *offered* work to what the machine
  can retire, which is what keeps latency on the flat part of the
  hockey stick under overload.

Shedding is an explicit *outcome*, never an exception: clients see
``TxnStatus.REJECTED`` on the block and may retry with backoff
(:class:`~repro.frontend.session.SessionConfig`).  Misconfiguration
(zero capacity, negative burst) is an exception — a clean
:class:`~repro.errors.ConfigError` at construction rather than a hang
at runtime.

A session rejected at the door may retry with backoff; with a
:class:`RetryBudgetConfig` those retries are drawn from a
:class:`RetryBudget` per priority class, so they can never exceed
``burst + ratio × first_attempts`` — the amplification bound that keeps
a transient overload from turning into a metastable retry storm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..errors import ConfigError
from ..sim.engine import Engine
from ..sim.stats import StatsRegistry

__all__ = ["AdmissionConfig", "TokenBucket", "AdmissionController",
           "RetryBudgetConfig", "RetryBudget",
           "BROWNOUT_SHED_AT", "BROWNOUT_RELEASE",
           "REASON_RATE", "REASON_BACKLOG", "REASON_RX_OVERFLOW",
           "REASON_DEADLINE", "REASON_BROWNOUT"]

#: rejection / timeout reasons surfaced on ``BlockHeader.abort_reason``
REASON_RATE = "rate-limit"
REASON_BACKLOG = "backlog-full"
REASON_RX_OVERFLOW = "rx-overflow"
REASON_DEADLINE = "deadline-exceeded"
REASON_BROWNOUT = "brownout-shed"

#: backlog fraction at which priority class ``c >= 1`` starts shedding:
#: ``BROWNOUT_SHED_AT[min(c, len) - 1]``.  Class 0 is never shed.
BROWNOUT_SHED_AT: Tuple[float, ...] = (0.85, 0.6)
#: hysteresis: once shedding, a class resumes only when the backlog
#: fraction falls back below ``threshold * BROWNOUT_RELEASE``
BROWNOUT_RELEASE = 0.75


@dataclass
class AdmissionConfig:
    """The defaults (no rate limit, unbounded backlog) admit every
    delivered packet."""

    #: sustained admission rate (txns/s); ``None`` = no rate limit
    rate_tps: Optional[float] = None
    #: token bucket depth (burst allowance), in requests
    burst: int = 32
    #: bound on the dispatch backlog; ``None`` = unbounded
    max_backlog: Optional[int] = None

    def __post_init__(self):
        if self.rate_tps is not None and self.rate_tps <= 0:
            raise ConfigError(
                "admission rate_tps must be positive (or None); a "
                "zero-capacity bucket would reject forever",
                rate_tps=self.rate_tps)
        if self.burst < 1:
            raise ConfigError("burst must be >= 1", burst=self.burst)
        if self.max_backlog is not None and self.max_backlog < 1:
            raise ConfigError("max_backlog must be >= 1 (or None)",
                              max_backlog=self.max_backlog)


class TokenBucket:
    """Continuous-refill token bucket over simulated time."""

    def __init__(self, engine: Engine, rate_tps: float, burst: int):
        if rate_tps <= 0:
            raise ConfigError("token bucket rate must be positive",
                              rate_tps=rate_tps)
        if burst < 1:
            raise ConfigError("token bucket burst must be >= 1", burst=burst)
        self.engine = engine
        self.rate_tps = rate_tps
        self.burst = float(burst)
        self.tokens = float(burst)
        self._last_ns = engine.now

    def _refill(self) -> None:
        now = self.engine.now
        self.tokens = min(self.burst,
                          self.tokens + (now - self._last_ns) * 1e-9
                          * self.rate_tps)
        self._last_ns = now

    def try_take(self) -> bool:
        self._refill()
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


class AdmissionController:
    """Applies the configured policies; returns a shed reason or None."""

    def __init__(self, engine: Engine, config: Optional[AdmissionConfig] = None,
                 stats: Optional[StatsRegistry] = None,
                 name: str = "frontend.admission"):
        self.engine = engine
        self.config = config or AdmissionConfig()
        self.stats = stats or StatsRegistry()
        cfg = self.config
        self._bucket = (TokenBucket(engine, cfg.rate_tps, cfg.burst)
                        if cfg.rate_tps is not None else None)
        self._admitted = self.stats.counter(f"{name}.admitted")
        self._shed_rate = self.stats.counter(f"{name}.shed.rate")
        self._shed_backlog = self.stats.counter(f"{name}.shed.backlog")
        #: priority class -> whether brownout is shedding it
        self._browned_out: Dict[int, bool] = {}
        #: priority class -> requests shed by brownout
        self.brownout_shed: Dict[int, int] = {}

    def check(self, backlog: int, priority: int = 0) -> Optional[str]:
        """Admit (None) or return the shed reason.

        Brownout goes first, then the backlog bound, then the bucket, so
        a rejected request never consumes a token another could have
        used.
        """
        cap = self.config.max_backlog
        if cap is not None:
            if priority > 0 and self._browning_out(priority, backlog / cap):
                self.brownout_shed[priority] = \
                    self.brownout_shed.get(priority, 0) + 1
                return REASON_BROWNOUT
            if backlog >= cap:
                self._shed_backlog.add()
                return REASON_BACKLOG
        if self._bucket is not None and not self._bucket.try_take():
            self._shed_rate.add()
            return REASON_RATE
        self._admitted.add()
        return None

    def _browning_out(self, priority: int, fraction: float) -> bool:
        """Shed class ``priority >= 1`` at this backlog fraction?  A
        class that engaged at its threshold releases only below
        ``threshold * BROWNOUT_RELEASE``."""
        threshold = BROWNOUT_SHED_AT[min(priority, len(BROWNOUT_SHED_AT)) - 1]
        if self._browned_out.get(priority, False):
            if fraction < threshold * BROWNOUT_RELEASE:
                self._browned_out[priority] = False
                return False
            return True
        if fraction >= threshold:
            self._browned_out[priority] = True
            return True
        return False


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
