"""Admission control: decide at the door, not in the queue.

Two complementary policies, applied by the front-end pump to every
packet the NIC delivers:

* **Token bucket** — a sustained-rate limit with a burst allowance.
  Tokens accrue at ``rate_tps`` and cap at ``burst``; a request that
  finds no token is shed with outcome ``REJECTED`` (reason
  ``"rate-limit"``).  This bounds *offered* work to what the machine
  can retire, which is what keeps latency on the flat part of the
  hockey stick under overload.

* **Queue-depth bound** — an upper bound on the dispatch backlog
  (requests admitted but not yet handed to a worker).  Once the
  backlog exceeds what the SLO's deadline can absorb,
  admitting more requests only manufactures timeouts; shedding them
  immediately returns a fast, honest ``REJECTED`` (reason
  ``"backlog-full"``) the client can retry against.

Shedding is an explicit *outcome*, never an exception: clients see
``TxnStatus.REJECTED`` on the block and may retry with backoff
(:class:`~repro.frontend.session.SessionConfig`).  Misconfiguration
(zero capacity, negative burst) is an exception — a clean
:class:`~repro.errors.ConfigError` at construction rather than a hang
at runtime.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..errors import ConfigError
from ..sim.engine import Engine
from ..sim.stats import StatsRegistry

__all__ = ["AdmissionConfig", "TokenBucket", "AdmissionController",
           "REASON_RATE", "REASON_BACKLOG", "REASON_RX_OVERFLOW",
           "REASON_DEADLINE"]

#: rejection / timeout reasons surfaced on ``BlockHeader.abort_reason``
REASON_RATE = "rate-limit"
REASON_BACKLOG = "backlog-full"
REASON_RX_OVERFLOW = "rx-overflow"
REASON_DEADLINE = "deadline-exceeded"


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

    @property
    def admitted(self) -> int:
        return self._admitted.value

    @property
    def shed(self) -> int:
        return self._shed_rate.value + self._shed_backlog.value

    def check(self, backlog: int) -> Optional[str]:
        """Admit (None) or return the shed reason.

        The backlog bound is checked before the bucket so a rejected
        request never consumes a token another could have used.
        """
        cfg = self.config
        if cfg.max_backlog is not None and backlog >= cfg.max_backlog:
            self._shed_backlog.add()
            return REASON_BACKLOG
        if self._bucket is not None and not self._bucket.try_take():
            self._shed_rate.add()
            return REASON_RATE
        self._admitted.add()
        return None
