"""The network front-end: NIC, sessions, admission, dispatch, SLOs.

The serving stack the paper defers ("ideally, remote clients should
submit transaction blocks through network cards", §5.1): all traffic
can now enter a BionicDB (of one node or many) through a simulated
link with admission control, multi-tenant weighted-fair dispatch,
shedding of requests already past their deadline, and SLO
observability.  See ``docs/frontend.md``.
"""

from .admission import (
    AdmissionConfig, AdmissionController, TokenBucket,
    REASON_BACKLOG, REASON_DEADLINE, REASON_RATE, REASON_RX_OVERFLOW,
)
from .core import FrontEnd, FrontendConfig
from .nic import Nic, NicConfig
from .resilience import (
    BreakerBank, BreakerConfig, BrownoutController, CircuitBreaker,
    ResilienceConfig, RetryBudget, RetryBudgetConfig, REASON_BROWNOUT,
)
from .router import ClusterRetryRouter
from .scheduler import DispatchScheduler, SchedulerConfig
from .session import ClientSession, Request, SessionConfig
from .slo import FrontendReport, SessionStats

__all__ = [
    "FrontEnd", "FrontendConfig",
    "Nic", "NicConfig",
    "AdmissionConfig", "AdmissionController", "TokenBucket",
    "DispatchScheduler", "SchedulerConfig",
    "ClientSession", "Request", "SessionConfig",
    "FrontendReport", "SessionStats",
    "ResilienceConfig", "RetryBudget", "RetryBudgetConfig",
    "CircuitBreaker", "BreakerBank", "BreakerConfig",
    "BrownoutController",
    "ClusterRetryRouter",
    "REASON_BACKLOG", "REASON_DEADLINE", "REASON_RATE", "REASON_RX_OVERFLOW",
    "REASON_BROWNOUT",
]
