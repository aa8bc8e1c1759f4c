"""SLO tracking: goodput and latency percentiles per tenant.

This module turns the front-end's raw outcomes into the numbers an
operator actually watches:

* **offered / committed / aborted / rejected / timed-out** — an exact
  conservation law: every generated request ends in exactly one of the
  four terminal outcomes, checked by :attr:`FrontendReport.conserved`.
* **goodput** — commits that met their deadline (all commits when a
  session declares no deadline).  Under overload this is the curve
  that must stay flat while naive throughput collapses into timeouts.
* **latency percentiles** — end-to-end, from block creation at the
  client through NIC, admission, dispatch queueing and execution;
  exact nearest-rank over every committed request's sample.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..sim.stats import nearest_rank
from .resilience import REASON_BREAKER, REASON_BROWNOUT

__all__ = ["SessionStats", "FrontendReport"]


@dataclass
class SessionStats:
    """Per-session serving-path accounting."""

    name: str
    priority: int = 0         # brownout/budget class (0 = most important)
    offered: int = 0          # requests generated
    committed: int = 0
    aborted: int = 0
    rejected: int = 0         # shed: NIC overflow / rate limit / backlog
    timed_out: int = 0        # deadline expired while queued
    retries: int = 0          # re-submissions after a shed (not new offers)
    #: rejections whose *final* shed reason was brownout / an open
    #: breaker — subsets of ``rejected``, for exact per-class SLO
    #: accounting under overload
    rejected_brownout: int = 0
    rejected_breaker: int = 0
    #: retries the per-class retry budget refused (the request then
    #: went terminal with its last shed reason)
    retries_denied: int = 0
    deadline_met: int = 0     # commits inside their deadline
    #: end-to-end latency of every committed request, in commit order
    latencies_ns: List[float] = field(default_factory=list)

    def record(self, req) -> None:
        """Fold one terminal request into the tallies."""
        outcome = req.outcome
        if outcome == "committed":
            self.committed += 1
            done = req.block.done_at_ns
            self.latencies_ns.append(done - req.created_at_ns)
            if req.deadline_at_ns is None or done <= req.deadline_at_ns:
                self.deadline_met += 1
        elif outcome == "aborted":
            self.aborted += 1
        elif outcome == "rejected":
            self.rejected += 1
            if req.reason == REASON_BROWNOUT:
                self.rejected_brownout += 1
            elif req.reason == REASON_BREAKER:
                self.rejected_breaker += 1
        elif outcome == "timed_out":
            self.timed_out += 1
        else:  # pragma: no cover - guarded by FrontEnd.run()
            raise ValueError(f"non-terminal outcome {outcome!r}")

    @property
    def resolved(self) -> int:
        return self.committed + self.aborted + self.rejected + self.timed_out

    @property
    def conserved(self) -> bool:
        return self.resolved == self.offered

    def percentile_ns(self, p: float) -> float:
        """Exact nearest-rank percentile of committed latencies."""
        return nearest_rank(sorted(self.latencies_ns), p)


@dataclass
class FrontendReport:
    """The serving-path summary a FrontEnd.run() returns."""

    elapsed_ns: float
    sessions: List[SessionStats]
    nic_delivered: int = 0
    nic_dropped: int = 0
    admission_shed: Dict[str, int] = field(default_factory=dict)
    dispatched: int = 0
    #: breaker open / half-open / re-close transition counts (empty
    #: when the resilience layer is disabled)
    breaker_transitions: Dict[str, int] = field(default_factory=dict)
    #: per-class retry-budget grants/denials
    retry_budget: Dict[str, int] = field(default_factory=dict)
    #: priority class -> requests shed by brownout (attempt-level; the
    #: terminal per-class view lives in :meth:`by_class`)
    brownout_shed: Dict[int, int] = field(default_factory=dict)
    #: cross-node submits re-planned onto their true home lane
    rehomed: int = 0
    #: requests parked on a retryable cluster error / replayed after
    parked: int = 0
    replayed: int = 0

    # -- totals -------------------------------------------------------------
    def _sum(self, attr: str) -> int:
        return sum(getattr(s, attr) for s in self.sessions)

    @property
    def offered(self) -> int:
        return self._sum("offered")

    @property
    def committed(self) -> int:
        return self._sum("committed")

    @property
    def aborted(self) -> int:
        return self._sum("aborted")

    @property
    def rejected(self) -> int:
        return self._sum("rejected")

    @property
    def timed_out(self) -> int:
        return self._sum("timed_out")

    @property
    def deadline_met(self) -> int:
        return self._sum("deadline_met")

    @property
    def conserved(self) -> bool:
        """rejected + timed_out + committed + aborted == offered."""
        return all(s.conserved for s in self.sessions)

    def by_class(self) -> Dict[int, Dict[str, int]]:
        """Terminal-state breakdown per priority class — the exact
        per-class SLO accounting brownout shedding is judged by."""
        fields = ("offered", "committed", "aborted", "rejected",
                  "timed_out", "rejected_brownout", "rejected_breaker",
                  "retries", "retries_denied", "deadline_met")
        out: Dict[int, Dict[str, int]] = {}
        for s in self.sessions:
            cls = out.setdefault(s.priority, {f: 0 for f in fields})
            for f in fields:
                cls[f] += getattr(s, f)
        return dict(sorted(out.items()))

    # -- rates --------------------------------------------------------------
    @property
    def offered_tps(self) -> float:
        return self.offered / (self.elapsed_ns * 1e-9) if self.elapsed_ns else 0.0

    @property
    def throughput_tps(self) -> float:
        return self.committed / (self.elapsed_ns * 1e-9) if self.elapsed_ns else 0.0

    @property
    def goodput_tps(self) -> float:
        """Commits that met their deadline, per second."""
        return self.deadline_met / (self.elapsed_ns * 1e-9) if self.elapsed_ns else 0.0

    # -- latency ------------------------------------------------------------
    def percentile_ns(self, p: float) -> float:
        """Exact nearest-rank percentile over all sessions' commits."""
        merged: List[float] = []
        for s in self.sessions:
            merged.extend(s.latencies_ns)
        return nearest_rank(sorted(merged), p)

    # -- rendering ----------------------------------------------------------
    def render(self) -> str:
        lines = ["front-end report " + "=" * 55]
        lines.append(
            f"  elapsed {self.elapsed_ns / 1e6:10.3f} ms   "
            f"offered {self.offered}  committed {self.committed}  "
            f"aborted {self.aborted}  rejected {self.rejected}  "
            f"timed-out {self.timed_out}")
        lines.append(
            f"  offered {self.offered_tps / 1e3:8.1f} kTps   "
            f"throughput {self.throughput_tps / 1e3:8.1f} kTps   "
            f"goodput {self.goodput_tps / 1e3:8.1f} kTps")
        if self.committed:
            lines.append(
                f"  latency p50 {self.percentile_ns(50) / 1e3:9.1f} us   "
                f"p95 {self.percentile_ns(95) / 1e3:9.1f} us   "
                f"p99 {self.percentile_ns(99) / 1e3:9.1f} us")
        lines.append(
            f"  nic delivered {self.nic_delivered}  dropped {self.nic_dropped}"
            f"   admission shed {self.admission_shed}   "
            f"dispatched {self.dispatched}")
        if self.breaker_transitions or self.retry_budget or self.rehomed \
                or self.parked or self.brownout_shed:
            lines.append(
                f"  breakers {self.breaker_transitions}  "
                f"retry-budget {self.retry_budget}  "
                f"brownout-shed {self.brownout_shed}  "
                f"rehomed {self.rehomed}  parked {self.parked}  "
                f"replayed {self.replayed}")
            for cls, row in self.by_class().items():
                lines.append(
                    f"  class {cls}: offered {row['offered']}  "
                    f"committed {row['committed']}  "
                    f"rejected {row['rejected']} "
                    f"(brownout {row['rejected_brownout']}, "
                    f"breaker {row['rejected_breaker']})  "
                    f"timed-out {row['timed_out']}  "
                    f"retries {row['retries']} "
                    f"(denied {row['retries_denied']})")
        for s in self.sessions:
            lines.append(
                f"  [{s.name}] offered {s.offered}  committed {s.committed}"
                f"  aborted {s.aborted}  rejected {s.rejected}"
                f"  timed-out {s.timed_out}  retries {s.retries}"
                f"  deadline-met {s.deadline_met}")
        return "\n".join(lines)
