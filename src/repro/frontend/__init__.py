"""The network front-end: NIC, sessions, admission, dispatch, SLOs.

The serving stack the paper defers ("ideally, remote clients should
submit transaction blocks through network cards", §5.1): all traffic
can now enter a BionicDB (of one node or many) through a simulated
link with admission control (brownout by priority class, a backlog
bound, a token bucket), multi-tenant weighted-fair dispatch, shedding
of requests already past their deadline, per-class retry budgets and
SLO observability.  See ``docs/frontend.md``.  The planner in front of
an :class:`~repro.cluster.ha.HACluster` is
:class:`repro.cluster.router.ClusterRetryRouter`.
"""

from .admission import (
    AdmissionConfig, AdmissionController, RetryBudget, RetryBudgetConfig,
    TokenBucket, REASON_BACKLOG, REASON_BROWNOUT, REASON_DEADLINE,
    REASON_RATE, REASON_RX_OVERFLOW,
)
from .core import FrontEnd, FrontendConfig
from .nic import Nic, NicConfig
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
    "RetryBudget", "RetryBudgetConfig",
    "REASON_BACKLOG", "REASON_DEADLINE", "REASON_RATE", "REASON_RX_OVERFLOW",
    "REASON_BROWNOUT",
]
