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

The service is engine-free: :meth:`advance_to` replays heartbeat
emission and delivery up to a target virtual time, the same
hand-advanced clock the HA control plane and the cluster drills use.
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

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Set

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

    def __init__(self, n_nodes: int, links: NodeLinks,
                 start_ns: float = 0.0):
        if n_nodes < 1:
            raise ValueError("need at least one node")
        self.n_nodes = n_nodes
        self.links = links
        self.now_ns = start_ns
        #: declared-alive nodes (a falsely-declared node leaves this set
        #: even though it is still executing — fencing handles the rest)
        self.alive: Set[int] = set(range(n_nodes))
        #: nodes that actually stopped (they emit nothing)
        self.really_dead: Set[int] = set()
        #: observer -> peer -> last heartbeat arrival
        self.last_heard: Dict[int, Dict[int, float]] = {
            d: {s: start_ns for s in range(n_nodes) if s != d}
            for d in range(n_nodes)}
        self._next_beat: Dict[int, float] = {
            n: start_ns + HEARTBEAT_INTERVAL_NS
            for n in range(n_nodes)}
        self._pending: List[tuple] = []     # (arrive, seq, src, dst)
        self._seq = 0
        self.epoch = 1
        self.views: List[MembershipView] = [MembershipView(
            epoch=1, alive=frozenset(self.alive), dead=frozenset(),
            at_ns=start_ns)]
        self._on_death: List[Callable[[int, int, float], None]] = []

    # -- wiring --------------------------------------------------------------
    def on_death(self, fn: Callable[[int, int, float], None]) -> None:
        """Register ``fn(node, epoch, now_ns)`` to run at declaration."""
        self._on_death.append(fn)

    def next_epoch(self) -> int:
        """The single epoch authority: every ownership change takes its
        epoch from here, so epochs order *all* ownership decisions."""
        self.epoch += 1
        return self.epoch

    def kill(self, node: int, now_ns: Optional[float] = None) -> None:
        """The node actually stops (power loss): it emits no further
        heartbeats; declaration follows from the resulting silence."""
        self.really_dead.add(node)
        if now_ns is not None:
            self.now_ns = max(self.now_ns, now_ns)

    # -- queries -------------------------------------------------------------
    def suspects(self, observer: int, peer: int,
                 now_ns: Optional[float] = None) -> bool:
        t = self.now_ns if now_ns is None else now_ns
        heard = self.last_heard[observer].get(peer)
        if heard is None:
            return False
        return (t - heard) > HEARTBEAT_TIMEOUT_NS

    def view(self) -> MembershipView:
        return self.views[-1]

    # -- the clock -----------------------------------------------------------
    def advance_to(self, t: float) -> List[MembershipView]:
        """Replay heartbeat emission/delivery up to virtual time ``t``;
        returns the views (death declarations) emitted along the way."""
        emitted: List[MembershipView] = []
        while True:
            senders = sorted((self.alive - self.really_dead))
            next_emit = min((self._next_beat[n] for n in senders),
                            default=math.inf)
            next_arr = self._pending[0][0] if self._pending else math.inf
            ts = min(next_emit, next_arr)
            if ts > t or ts == math.inf:
                break
            if next_arr <= next_emit:
                arrive, _, src, dst = heapq.heappop(self._pending)
                if dst in self.alive and src in self.last_heard[dst]:
                    self.last_heard[dst][src] = max(
                        self.last_heard[dst][src], arrive)
            else:
                src = min(n for n in senders if self._next_beat[n] == next_emit)
                self._next_beat[src] += HEARTBEAT_INTERVAL_NS
                for dst in sorted(self.alive):
                    if dst == src:
                        continue
                    arr = self.links.delivery(src, dst, ts, kind="hb",
                                              heartbeat=True)
                    if arr is not None:
                        heapq.heappush(self._pending,
                                       (arr, self._seq, src, dst))
                        self._seq += 1
            emitted.extend(self._declare(ts))
        self.now_ns = max(self.now_ns, t)
        emitted.extend(self._declare(self.now_ns))
        return emitted

    def _declare(self, t: float) -> List[MembershipView]:
        """Declare dead every alive node all its live peers suspect."""
        out: List[MembershipView] = []
        for node in sorted(self.alive):
            observers = [d for d in self.alive if d != node]
            if not observers:
                continue    # a lone survivor never declares itself dead
            if all(self.suspects(d, node, t) for d in observers):
                self.alive.discard(node)
                epoch = self.next_epoch()
                view = MembershipView(
                    epoch=epoch, alive=frozenset(self.alive),
                    dead=frozenset(range(self.n_nodes)) - frozenset(self.alive),
                    at_ns=t, declared=node)
                self.views.append(view)
                out.append(view)
                for fn in self._on_death:
                    fn(node, epoch, t)
        return out
