"""The cluster-aware retry router: planning behind typed retry signals.

:class:`ClusterRetryRouter` is a control-plane planner that reads
:class:`repro.cluster.ha.HACluster`'s clock, the control-plane engine
the membership service owns, and steps it only through
:meth:`~repro.cluster.ha.HACluster.advance`.  It caches
``ownership_map()``, refreshes it on ``StaleEpochError`` (re-homing
submits to the current owner, at most :data:`MAX_EPOCH_REFRESHES`
times per attempt), reconciles against the authoritative log before
any re-execution so retries never double-apply, lets the cluster
queue-and-replay during migration windows, and fails fast through
per-partition breakers and a retry budget so a failover cannot
snowball into a retry storm:

* :class:`CircuitBreaker` / :class:`BreakerBank` — one closed → open →
  half-open state machine per partition, tripped by the failure rate
  over a sliding sample window of :data:`BREAKER_WINDOW`
  (``PartitionUnavailableError`` and friends count as failures) at
  :data:`BREAKER_FAILURE_THRESHOLD`.  Open breakers fail fast instead
  of queueing doomed work; after :data:`BREAKER_OPEN_NS` (one failure
  detector timeout) :data:`BREAKER_HALF_OPEN_PROBES` probes are let
  through and the first probe success closes the breaker again.
* :class:`~repro.frontend.admission.RetryBudget` — the front-end's
  per-class retry budget, here with a per-round trickle
  (:data:`ROUND_REFILL`).

It is the only client the cluster-backed drills of
``repro.faults.drill`` have: every flavour of ``--suite cluster`` and
the two cluster flavours of ``--suite overload`` drive it.  A
:class:`~repro.frontend.core.FrontEnd` serves one
:class:`~repro.core.system.BionicDB` and needs no router.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Optional, Set

from ..errors import (
    FrontendError, PartitionUnavailableError, ReplicationStalledError,
    StaleEpochError,
)
from ..frontend.admission import RetryBudget, RetryBudgetConfig
from .membership import HEARTBEAT_TIMEOUT_NS

__all__ = [
    "ClusterRetryRouter", "ROUND_REFILL", "MAX_EPOCH_REFRESHES",
    "CircuitBreaker", "BreakerBank",
    "BREAKER_CLOSED", "BREAKER_OPEN", "BREAKER_HALF_OPEN",
    "BREAKER_WINDOW", "BREAKER_MIN_SAMPLES", "BREAKER_OPEN_NS",
    "BREAKER_FAILURE_THRESHOLD", "BREAKER_HALF_OPEN_PROBES",
]

#: budget tokens trickled back per :meth:`ClusterRetryRouter.pump` round
#: so a long recovery cannot starve once a storm has passed;
#: amplification stays bounded by the settle budget
ROUND_REFILL = 1.0
#: ownership refreshes one placement attempt may make before a submit
#: that is still fenced is an error
MAX_EPOCH_REFRESHES = 4


# -- circuit breakers --------------------------------------------------------

BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half_open"

#: sliding sample window (successes + failures) the trip decision is
#: taken over
BREAKER_WINDOW = 8
#: don't trip on fewer than this many samples in the window
BREAKER_MIN_SAMPLES = 2
#: cooldown before an open breaker admits half-open probes: one failure
#: detector timeout, by when a dead owner has been failed over
BREAKER_OPEN_NS = HEARTBEAT_TIMEOUT_NS
#: failure fraction of the window at which a breaker opens
BREAKER_FAILURE_THRESHOLD = 0.5
#: probes a half-open breaker admits; the first success closes it
BREAKER_HALF_OPEN_PROBES = 2


class CircuitBreaker:
    """closed → open → half-open state machine for one partition."""

    __slots__ = ("partition", "state", "_window", "_opened_at",
                 "_probes_left", "opened", "half_opened", "reclosed")

    def __init__(self, partition: int = 0):
        self.partition = partition
        self.state = BREAKER_CLOSED
        self._window: Deque[int] = deque(maxlen=BREAKER_WINDOW)
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
            if now_ns - self._opened_at >= BREAKER_OPEN_NS:
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
        if (len(window) >= BREAKER_MIN_SAMPLES
                and sum(window) >= BREAKER_FAILURE_THRESHOLD * len(window)):
            self._trip(now_ns)

    def _trip(self, now_ns: float) -> None:
        self.state = BREAKER_OPEN
        self.opened += 1
        self._opened_at = now_ns
        self._window.clear()


class BreakerBank:
    """Lazy per-partition breakers plus aggregate accounting."""

    def __init__(self):
        self._breakers: Dict[int, CircuitBreaker] = {}

    def breaker(self, partition: int) -> CircuitBreaker:
        brk = self._breakers.get(partition)
        if brk is None:
            brk = self._breakers[partition] = CircuitBreaker(partition)
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


# -- the planner -------------------------------------------------------------

class ClusterRetryRouter:
    """Plans a transaction stream onto an :class:`HACluster`.

    The client-visible contract: :meth:`route` every transaction once
    (tags must be sortable), :meth:`pump` (or :meth:`settle`) until
    :attr:`done`; every routed transaction then appears in
    :attr:`acked` exactly once, and :meth:`HACluster.reconcile`
    guarantees none was executed twice.

    Planning rules, in order:

    * **Stalled first.** A transaction that executed but missed its
      replication ack is *reconciled against the authoritative log*
      before any re-submit — a committed transaction is never
      double-applied.
    * **Breakers fail fast.** A partition whose submits keep bouncing
      (owner dead, not yet failed over) trips its breaker; further
      submits are skipped entirely until the cooldown admits probes.
    * **Retries are budgeted.** Re-attempts spend per-class tokens
      funded by first-attempt traffic (plus a per-round trickle), so
      retry amplification is bounded no matter how long the outage.
    * **Stale epochs re-home.** ``StaleEpochError`` refreshes the
      cached ``ownership_map()`` and re-submits to the current owner.
    * **Migrations queue-and-replay.** ``queued`` results park at the
      cluster; :meth:`pump` collects them from ``released`` after the
      re-own, and re-routes anything the cluster ``deferred``.
    * **Order is preserved.** Per-partition FIFO: a transaction never
      overtakes an earlier one bound for the same partition.
    * **Footprints pre-classify.** Every routed spec is classified
      single-partition / single-node / cross-node *before* the first
      submit, from the footprint its procedure was registered with on
      the home partition's owner (every node registers the same
      procedures); a procedure whose pinned partitions are owned by a
      different node than its home is rejected with a typed error at
      :meth:`route` time — zero submit attempts, where the dynamic path
      would bounce and burn retry budget.
    """

    def __init__(self, cluster, budget: Optional[RetryBudgetConfig] = None):
        self.cluster = cluster
        self.budget = RetryBudget(budget)
        self.breakers = BreakerBank()
        self.epochs: Dict[int, int] = {
            p: epoch for p, (_owner, epoch)
            in sorted(cluster.ownership_map().items())}
        self.specs: Dict[Any, tuple] = {}       # tag -> (spec, layout)
        self.acked: Dict[Any, tuple] = {}       # tag -> (txn_id, outcome)
        self.pending: Dict[int, List[Any]] = {}  # partition -> ordered tags
        self.stalled: Set[Any] = set()
        self.queued: Set[Any] = set()
        self._seen: Set[Any] = set()
        # accounting
        self.attempts = 0
        self.reexecuted = 0
        self.stale_refreshes = 0
        self.queued_total = 0
        self.planned_rejects = 0

    # -- public surface ------------------------------------------------------
    def route(self, tag: Any, spec, layout) -> None:
        """Accept one transaction for delivery; submits immediately
        unless earlier work for the same partition is still pending.
        A statically cross-node spec is rejected here — before any
        submit attempt."""
        if tag in self.specs:
            raise FrontendError("tag already routed", tag=tag)
        self._preclassify(tag, spec)
        self.specs[tag] = (spec, layout)
        self._collect()
        queue = self.pending.setdefault(spec.home, [])
        queue.append(tag)
        self._flush(spec.home)

    def pump(self) -> None:
        """One control-plane round: refill the budget trickle, collect
        router-released/deferred work, and flush every partition."""
        self.budget.deposit(ROUND_REFILL)
        self._collect()
        for p in sorted(self.pending):
            self._flush(p)

    def settle(self, max_rounds: int, advance_ns: float) -> int:
        """Pump (advancing the cluster clock between rounds) until
        everything routed is acked; returns the rounds consumed.
        Raises :class:`FrontendError` on non-convergence."""
        for rounds in range(max_rounds):
            self.pump()
            if self.done:
                return rounds
            self.cluster.advance(advance_ns)
        self.pump()
        if self.done:
            return max_rounds
        missing = sorted(set(self.specs) - set(self.acked))
        raise FrontendError(
            "stream did not converge within the settle budget",
            missing=missing, rounds=max_rounds,
            pending={p: q for p, q in sorted(self.pending.items()) if q},
            breaker_states=self.breakers.states())

    @property
    def done(self) -> bool:
        return len(self.acked) == len(self.specs)

    @property
    def first_attempts(self) -> int:
        return len(self._seen)

    @property
    def amplification(self) -> float:
        """Submit attempts per routed transaction (1.0 = no retries)."""
        return self.attempts / len(self.specs) if self.specs else 0.0

    def refresh(self) -> None:
        """Re-cache the ownership map (the StaleEpochError response)."""
        for p, (_owner, epoch) in sorted(self.cluster.ownership_map().items()):
            self.epochs[p] = epoch

    # -- internals -----------------------------------------------------------
    def _preclassify(self, tag: Any, spec) -> None:
        """Join the spec's procedure footprint with the current
        ownership map; reject statically cross-node work up front."""
        cluster = self.cluster
        db = cluster.nodes[cluster.owner_of(spec.home)]
        footprint = db.catalogue.lookup(spec.proc_id).footprint
        owners = {p: owner for p, (owner, _epoch)
                  in cluster.ownership_map().items()}
        route = footprint.with_layout(db.schemas, db.total_workers) \
            .classify(spec.home, node_of=lambda p: owners.get(p, -1))
        if route.verdict == "cross-node":
            self.planned_rejects += 1
            raise FrontendError(
                "procedure footprint pins partitions owned by a "
                "different node than its home; the submit could only "
                "bounce — re-home the stream or split the transaction",
                tag=tag, home=spec.home,
                partitions=sorted(route.partitions),
                nodes=sorted(route.nodes))

    def _collect(self) -> None:
        """Pull migration releases and deferred work back from the
        cluster router."""
        cluster = self.cluster
        for tag, res in list(cluster.released.items()):
            self.acked[tag] = (res.txn_id, res.outcome)
            self.queued.discard(tag)
            self.breakers.record_success(res.partition, cluster.now_ns)
            del cluster.released[tag]
        changed = set()
        while cluster.deferred:
            spec, _layout, tag = cluster.deferred.pop(0)
            self.queued.discard(tag)
            queue = self.pending.setdefault(spec.home, [])
            if tag not in queue:
                queue.append(tag)
                changed.add(spec.home)
            if cluster.attempt_of(tag) is not None:
                self.stalled.add(tag)
        for p in sorted(changed):
            self.pending[p].sort()

    def _flush(self, partition: int) -> None:
        queue = self.pending.get(partition, ())
        while queue:
            if not self._try(queue[0]):
                return
            queue.pop(0)

    def _try(self, tag: Any) -> bool:
        """One placement attempt; ``True`` = tag is acked or queued at
        the cluster (either way it has left ``pending``)."""
        cluster = self.cluster
        spec, layout = self.specs[tag]
        p = spec.home
        if tag in self.stalled:
            rc = cluster.reconcile(tag)
            if rc is not None:
                state, status = rc
                if state == "acked":
                    self.stalled.discard(tag)
                    self.acked[tag] = (cluster.attempt_of(tag)[1], status)
                    self.breakers.record_success(p, cluster.now_ns)
                    return True
                return False        # executed, replication still stuck
            self.stalled.discard(tag)   # no durable trace: re-execute
            self.reexecuted += 1
        if not self.breakers.allow(p, cluster.now_ns):
            return False
        if tag in self._seen and not self.budget.try_spend():
            return False
        first = tag not in self._seen
        self._seen.add(tag)
        if first:
            self.budget.note_first_attempt()
        for _ in range(MAX_EPOCH_REFRESHES):
            self.attempts += 1
            try:
                res = cluster.submit_spec(spec, layout,
                                          client_epoch=self.epochs.get(p),
                                          tag=tag)
            except StaleEpochError:
                self.stale_refreshes += 1
                self.refresh()
                continue
            except PartitionUnavailableError:
                self.breakers.record_failure(p, cluster.now_ns)
                return False
            except ReplicationStalledError:
                self.breakers.record_failure(p, cluster.now_ns)
                self.stalled.add(tag)
                return False
            if res.status == "queued":
                self.queued.add(tag)
                self.queued_total += 1
            else:
                self.acked[tag] = (res.txn_id, res.outcome)
                self.breakers.record_success(p, cluster.now_ns)
            return True
        raise FrontendError(
            "submit still fenced after repeated ownership refreshes",
            tag=tag, partition=p, epoch=self.epochs.get(p))
