"""The FrontEnd: the serving path every request now walks.

::

    session arrival ──► NIC (wire + bounded RX) ──► pump
                                                     │ admission control
                                                     ▼
                                  dispatch scheduler (WFQ, window)
                                                     │
                                                     ▼
                              BionicDB.submit ──► softcore batch former

Attach one FrontEnd to a :class:`~repro.core.system.BionicDB` (of one
node or many), create sessions, then ``run()``: the same
discrete-event engine advances clients, the link, the pump, the
dispatchers and the chip on one timeline, and a
:class:`~repro.frontend.slo.FrontendReport` summarises the outcome.
Like the chip's units, every actor on the path is a handler the engine
calls when its data arrives — an arrival, a landed packet, a lane
signal, a freed window slot, a finished block — so an exception in any
of them leaves ``Engine.run()`` at the instant it is raised.

Every generated request ends in exactly one terminal state —
``committed``, ``aborted``, ``rejected`` or ``timed_out``; if the
event heap drains with a request unresolved, ``run()`` raises
:class:`~repro.errors.StuckTransactionError` (the PR-1 machinery)
rather than letting the loss masquerade as a quiet run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..errors import FrontendError, StuckTransactionError
from ..mem.txnblock import TxnStatus
from .admission import (
    AdmissionConfig, AdmissionController, REASON_DEADLINE, REASON_RX_OVERFLOW,
    RetryBudget, RetryBudgetConfig,
)
from .nic import Nic, NicConfig
from .scheduler import DispatchScheduler, SchedulerConfig
from .session import ClientSession, Request, SessionConfig
from .slo import FrontendReport

__all__ = ["FrontendConfig", "FrontEnd"]


@dataclass
class FrontendConfig:
    nic: NicConfig = field(default_factory=NicConfig)
    admission: AdmissionConfig = field(default_factory=AdmissionConfig)
    scheduler: SchedulerConfig = field(default_factory=SchedulerConfig)
    #: the per-class budget session retries are drawn from; ``None``
    #: grants every retry a session's ``max_retries`` allows
    retry_budget: Optional[RetryBudgetConfig] = None

    @staticmethod
    def passthrough() -> "FrontendConfig":
        """A transparent front-end: infinite link, no admission, no
        dispatch window — requests reach the workers at their arrival
        instants, preserving the historical direct-submit behaviour
        (what a plain open-loop Poisson client needs)."""
        return FrontendConfig(
            nic=NicConfig(bandwidth_gbps=None, propagation_ns=0.0,
                          rx_queue_depth=None, rx_process_ns=0.0),
            scheduler=SchedulerConfig(max_inflight_per_worker=None),
        )


class FrontEnd:
    """The network front-end for one BionicDB machine."""

    def __init__(self, db, config: Optional[FrontendConfig] = None,
                 faults=None):
        self.db = db
        self.config = config or FrontendConfig()
        self.engine = db.engine
        #: optional repro.faults.FaultPlan threaded into the NIC
        self.faults = faults
        self.nic = Nic(self.engine, self._pump, self.config.nic,
                       stats=db.stats, name="frontend.nic", faults=faults)
        self._dup_discarded = db.stats.counter("frontend.dup_discarded")
        self.admission = AdmissionController(self.engine,
                                             self.config.admission,
                                             stats=db.stats)
        self.scheduler = DispatchScheduler(
            self.engine, db.total_workers, self.config.scheduler,
            submit=self._submit, on_timeout=self._timeout, stats=db.stats)
        #: the per-class retry budget, built only when
        #: ``FrontendConfig.retry_budget`` is given
        self.budget: Optional[RetryBudget] = (
            RetryBudget(self.config.retry_budget)
            if self.config.retry_budget is not None else None)
        self.sessions: List[ClientSession] = []
        self._by_txn = {}              # txn_id -> Request (in the chip)
        self._start_ns = self.engine.now
        db.attach_frontend(self)

    # -- sessions -----------------------------------------------------------
    def session(self, factory, config: Optional[SessionConfig] = None,
                rng=None, **kwargs) -> ClientSession:
        """Open a client session.

        ``factory(i) -> (block, home_worker)`` builds request *i* at its
        arrival instant.  Pass a :class:`SessionConfig`, or its fields
        as keyword arguments.  ``rng`` (a seeded ``random.Random``)
        replaces the session's private RNG so several sessions — and
        their retry-backoff jitter — reproduce from one workload seed.
        """
        if self.db.frontend is not self:
            raise FrontendError("front-end is detached from its system")
        if config is None:
            config = SessionConfig(**kwargs)
        elif kwargs:
            raise FrontendError("pass a SessionConfig or kwargs, not both")
        sess = ClientSession(self, len(self.sessions), config, factory,
                             rng=rng)
        self.sessions.append(sess)
        self.scheduler.register_session(sess.id, config.weight)
        return sess

    # -- the serving path ----------------------------------------------------
    def _deliver(self, req: Request) -> None:
        """Send a request's first attempt."""
        if self.budget is not None:
            self.budget.note_first_attempt(req.session.config.priority)
        self.nic.transmit(req, self._landed)

    def _landed(self, req: Request) -> None:
        if not self.nic.receive(req):
            # the sender sees the loss at once: settle now, not a step on
            self._stamp(req, "rejected", REASON_RX_OVERFLOW)
            self._settle(req)

    def _settle(self, req: Request) -> None:
        """The attempt reached an outcome: retry a shed after its
        backoff, or close the request."""
        cfg = req.session.config
        if req.outcome == "rejected" and req.attempts < cfg.max_retries:
            if self.budget is None or self.budget.try_spend(cfg.priority):
                req.attempts += 1
                req.session.stats.retries += 1
                backoff = cfg.retry_backoff_ns * (2 ** (req.attempts - 1))
                if cfg.retry_jitter > 0:
                    backoff *= 1.0 - cfg.retry_jitter * req.session._rng.random()
                if backoff > 0:
                    self.engine._schedule_fn(self.engine.now + backoff,
                                             self._retry, req)
                else:
                    self._retry(req)
                return
            # budget exhausted: go terminal with the last shed reason
            # rather than amplify the storm
            req.session.stats.retries_denied += 1
        req.session._terminal(req)

    def _retry(self, req: Request) -> None:
        req.reset_for_retry()
        self.nic.transmit(req, self._landed)

    def _pump(self, req: Request) -> None:
        """The RX ring's handler: dedup, admission control, dispatch."""
        if req.in_system or req.outcome is not None:
            # an injected duplicate of an attempt already accepted
            # (or already terminal) — dedup as a host stack would
            self._dup_discarded.add()
            return
        req.in_system = True
        now = self.engine.now
        if req.expired(now):
            self._finish(req, "timed_out", REASON_DEADLINE)
            return
        reason = self.admission.check(self.scheduler.backlog,
                                      req.session.config.priority)
        if reason is not None:
            self._finish(req, "rejected", reason)
            return
        self.scheduler.enqueue(req)

    def _submit(self, req: Request) -> None:
        self._by_txn[req.block.txn_id] = req
        self.db.submit(req.block, req.home)

    def _timeout(self, req: Request) -> None:
        self._finish(req, "timed_out", REASON_DEADLINE)

    def _finish(self, req: Request, outcome: str,
                reason: Optional[str] = None) -> None:
        """Shed a request (rejected / timed out); its sender settles it
        on the engine's next step."""
        self._stamp(req, outcome, reason)
        self.engine._schedule_fn(self.engine.now, self._settle, req)

    def _stamp(self, req: Request, outcome: str,
               reason: Optional[str]) -> None:
        req.outcome = outcome
        req.reason = reason
        header = req.block.header
        header.status = (TxnStatus.REJECTED if outcome == "rejected"
                         else TxnStatus.TIMED_OUT)
        header.abort_reason = reason
        req.block.done_at_ns = self.engine.now

    # -- completion from the chip -------------------------------------------
    def _note_done(self, block) -> None:
        req = self._by_txn.pop(block.txn_id, None)
        if req is None:
            return    # not front-end traffic (direct submit)
        self.scheduler.note_done(req.home)
        req.outcome = ("committed"
                       if block.header.status is TxnStatus.COMMITTED
                       else "aborted")
        req.reason = block.header.abort_reason
        self.engine._schedule_fn(self.engine.now, self._settle, req)

    # -- running -------------------------------------------------------------
    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> FrontendReport:
        """Advance the whole machine, then summarise the serving path."""
        if self.db.frontend is not self:
            raise FrontendError("front-end is detached from its system")
        self.db.run(until=until, max_events=max_events)
        drained = self.engine.idle
        if drained:
            stuck = {f"{s.config.name}/{req.index}": req.block.header.status.value
                     for s in self.sessions for req in s.requests
                     if req.outcome is None}
            if stuck:
                raise StuckTransactionError(
                    f"{len(stuck)} front-end request(s) never reached a "
                    f"terminal outcome after the event heap drained",
                    stuck=stuck)
        return self.report()

    def report(self) -> FrontendReport:
        report = FrontendReport(
            elapsed_ns=self.engine.now - self._start_ns,
            sessions=[s.stats for s in self.sessions],
            nic_delivered=self.nic.delivered,
            nic_dropped=self.nic.dropped,
            admission_shed={
                "rate": self.admission._shed_rate.value,
                "backlog": self.admission._shed_backlog.value,
            },
            dispatched=self.scheduler._dispatched.value,
            brownout_shed=dict(sorted(self.admission.brownout_shed.items())),
        )
        if self.budget is not None:
            report.retry_budget = self.budget.totals()
        return report

    # -- lifecycle -----------------------------------------------------------
    def detach(self) -> None:
        """Release the attach point so another front-end can take over."""
        if self.db.frontend is self:
            self.db.detach_frontend(self)
