"""Failure detection and epoch-numbered membership views.

Every node heartbeats every peer over the same :class:`NodeLinks`
lanes the data plane uses, so a link fault starves both planes
consistently.  A node is *suspected* by a peer once the peer's last
heartbeat from it is older than :data:`HEARTBEAT_TIMEOUT_NS`; it is
*declared dead* — and a new epoch-numbered :class:`MembershipView` is
emitted — only when **every** live peer suspects it, so a single cut
link (one peer deaf, the rest still hearing beats) never triggers a
spurious failover, while total silence (node death, or a wedged
heartbeat egress — the classic false positive) does.

The service owns the control plane's clock, an
:class:`~repro.sim.engine.Engine` on which every heartbeat's emission
and arrival are work items; :meth:`advance_to` runs it to a target
time, and the rest of the control plane (:mod:`repro.cluster.ha`, its
replication streams, the router) reads the same clock.

The service is also the cluster's single **epoch authority**:
:meth:`next_epoch` hands out the monotonic epochs that tag every
ownership decision (failover, migration re-own), which is what makes
stale-epoch fencing sound — an ownership change is visible as a strict
epoch increase, never a reuse.

Declared-dead is terminal: a falsely-declared node that later resumes
heartbeating stays out of the view (its partitions have moved; epoch
fencing rejects anything it acknowledges late).  Rejoin/catch-up is
roadmap work, not silently half-done here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from ..sim.engine import Engine
from .interconnect import NodeLinks

__all__ = ["MembershipView", "MembershipService", "HEARTBEAT_INTERVAL_NS",
           "HEARTBEAT_TIMEOUT_NS"]

#: how often each node emits a heartbeat to every peer (1 ms)
HEARTBEAT_INTERVAL_NS = 1_000_000.0
#: silence after which a peer suspects a node (5 ms) — five intervals,
#: so one delayed beat never declares a healthy node dead
HEARTBEAT_TIMEOUT_NS = 5_000_000.0


@dataclass(frozen=True)
class MembershipView:
    """One epoch-numbered snapshot of who the cluster believes is alive."""

    epoch: int
    alive: FrozenSet[int]
    dead: FrozenSet[int]
    at_ns: float
    #: the node whose death (if any) produced this view
    declared: Optional[int] = None


class MembershipService:
    """Heartbeat bookkeeping, suspicion, and death declaration."""

    def __init__(self, n_nodes: int, links: NodeLinks):
        if n_nodes < 1:
            raise ValueError("need at least one node")
        self.n_nodes = n_nodes
        self.links = links
        self.engine = Engine()
        #: declared-alive nodes (a falsely-declared node leaves this set
        #: even though it is still executing — fencing handles the rest)
        self.alive: Set[int] = set(range(n_nodes))
        #: nodes that actually stopped (they emit nothing)
        self.really_dead: Set[int] = set()
        #: observer -> peer -> last heartbeat arrival
        self.last_heard: Dict[int, Dict[int, float]] = {
            d: {s: 0.0 for s in range(n_nodes) if s != d}
            for d in range(n_nodes)}
        self.epoch = 1
        self.views: List[MembershipView] = [MembershipView(
            epoch=1, alive=frozenset(self.alive), dead=frozenset(),
            at_ns=0.0)]
        self._on_death: List[Callable[[int, int, float], None]] = []
        # each beat reschedules itself as it fires, so beats due at one
        # instant fire in node order
        for n in range(n_nodes):
            self.engine.call_fn_at(HEARTBEAT_INTERVAL_NS, self._beat, n)

    @property
    def now_ns(self) -> float:
        """The control plane's virtual time."""
        return self.engine.now

    # -- wiring --------------------------------------------------------------
    def on_death(self, fn: Callable[[int, int, float], None]) -> None:
        """Register ``fn(node, epoch, now_ns)`` to run at declaration."""
        self._on_death.append(fn)

    def next_epoch(self) -> int:
        """The single epoch authority: every ownership change takes its
        epoch from here, so epochs order *all* ownership decisions."""
        self.epoch += 1
        return self.epoch

    def kill(self, node: int) -> None:
        """The node actually stops (power loss): it emits no further
        heartbeats; declaration follows from the resulting silence."""
        self.really_dead.add(node)

    # -- queries -------------------------------------------------------------
    def suspects(self, observer: int, peer: int) -> bool:
        heard = self.last_heard[observer].get(peer)
        if heard is None:
            return False
        return (self.now_ns - heard) > HEARTBEAT_TIMEOUT_NS

    def view(self) -> MembershipView:
        return self.views[-1]

    # -- the clock -----------------------------------------------------------
    def advance_to(self, t: float) -> None:
        """Run heartbeat emission and delivery up to virtual time ``t``
        (a past ``t`` moves nothing), declaring deaths along the way."""
        self.engine.run(until=t)
        self._declare()

    def _beat(self, src: int) -> None:
        """``src`` heartbeats every declared-alive peer, then beats
        again one interval later — unless it is dead, for good."""
        if src not in self.alive or src in self.really_dead:
            return
        now = self.now_ns
        self.engine.call_fn_at(now + HEARTBEAT_INTERVAL_NS, self._beat, src)
        for dst in sorted(self.alive):
            if dst == src:
                continue
            arr = self.links.delivery(src, dst, now, kind="hb",
                                      heartbeat=True)
            if arr is not None:
                self.engine.call_fn_at(arr, self._heard, (src, dst))
        self._declare()

    def _heard(self, pair: Tuple[int, int]) -> None:
        src, dst = pair
        if dst in self.alive:
            self.last_heard[dst][src] = max(self.last_heard[dst][src],
                                            self.now_ns)
        self._declare()

    def _declare(self) -> None:
        """Declare dead every alive node all its live peers suspect."""
        t = self.now_ns
        for node in sorted(self.alive):
            observers = [d for d in self.alive if d != node]
            if not observers:
                continue    # a lone survivor never declares itself dead
            if all(self.suspects(d, node) for d in observers):
                self.alive.discard(node)
                epoch = self.next_epoch()
                self.views.append(MembershipView(
                    epoch=epoch, alive=frozenset(self.alive),
                    dead=frozenset(range(self.n_nodes)) - frozenset(self.alive),
                    at_ns=t, declared=node))
                for fn in self._on_death:
                    fn(node, epoch, t)
