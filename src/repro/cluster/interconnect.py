"""Hierarchical interconnect for multi-chip BionicDB (§4.6 future work).

"BionicDB is currently a single-chip, single-node system ... it is
vital to scale BionicDB across multiple FPGA nodes in a shared-nothing
cluster like H-store ... the message-passing channels should be
diversified with additional connectivities for inter-node
communication."

This interconnect is one more :class:`~repro.comm.Fabric` over global
worker ids: messages between workers on the same chip take that chip's
own fabric's timing (crossbar or ring); messages crossing chips take an
inter-node link (microseconds, serialised per directed node pair).

The inter-node portion is factored into :class:`NodeLinks`, a pure
time-arithmetic model of the node-to-node lanes (serialisation,
latency, drops, stalls, partitions) that needs no event engine.  The
interconnect uses it for the data plane; the HA control plane
(:mod:`repro.cluster.membership`) routes heartbeats and command-log
shipping over the *same* lanes, so a link fault starves both planes
consistently — the topology-sensitivity lesson from *OLTP on Hardware
Islands*.

Because cluster nodes share no DRAM, a request that crosses nodes must
be *self-contained*: the key travels inline (no remote KeyFetch into
the initiator's transaction block), and operations whose effects or
operands live in the initiator's memory — writes (the §4.7 commit
protocol patches tuples from the initiator) and scans (the scan set is
materialised in the initiator's block) — are rejected with
:class:`ClusterError`.  A distributed commit protocol is beyond the
paper's design; see DESIGN.md.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional, Sequence

from ..comm.channels import Crossbar, Fabric, RequestPacket
from ..errors import BionicError
from ..isa.instructions import Opcode
from ..sim.clock import ClockDomain
from ..sim.engine import Engine
from ..sim.stats import StatsRegistry

__all__ = ["ClusterError", "HierarchicalInterconnect", "NodeLinks"]

_CROSS_NODE_OK = frozenset({Opcode.SEARCH})


class ClusterError(BionicError, RuntimeError):
    """An operation that cannot cross shared-nothing node boundaries."""


class NodeLinks:
    """The inter-node lanes: serialisation, latency, and injected faults.

    Engine-free: :meth:`delivery` is pure time arithmetic — given a send
    instant it returns the arrival instant, or ``None`` when the message
    is lost (an armed ``interconnect.drop``, a fired or standing
    ``interconnect.partition``, a muted heartbeat source).  Callers that
    live on the discrete-event engine (the data-plane interconnect)
    schedule the delivery themselves; callers that advance virtual time
    by hand (the membership layer, replication shipping, drills) use the
    returned instants directly.

    Fault sites consulted per send, in order: ``interconnect.drop``,
    ``interconnect.stall``, then ``interconnect.partition`` (which cuts
    the undirected node pair for ``plan.draw() * partition_max_ns`` and
    loses the triggering message).  Heartbeat sends additionally consult
    ``cluster.heartbeat_loss`` first.
    """

    def __init__(self, n_nodes: int,
                 inter_latency_ns: float = 1500.0,
                 inter_issue_ns: float = 50.0,
                 faults=None,
                 stats: Optional[StatsRegistry] = None,
                 stall_max_ns: float = 50_000.0,
                 partition_max_ns: float = 20_000_000.0):
        if n_nodes < 1:
            raise ValueError("need at least one node")
        self.n_nodes = n_nodes
        self.inter_latency_ns = inter_latency_ns
        self.inter_issue_ns = inter_issue_ns
        self.faults = faults
        self.stall_max_ns = stall_max_ns
        self.partition_max_ns = partition_max_ns
        self.stats = stats or StatsRegistry()
        self._lane_free: Dict[tuple, float] = {}
        #: undirected node pair -> healed-at instant
        self._cut_until: Dict[FrozenSet[int], float] = {}
        #: node -> heartbeat-egress muted until (detector-food drills)
        self._hb_muted_until: Dict[int, float] = {}
        self._fault_lost = self.stats.counter("comm.fault_lost")
        self._fault_stalled = self.stats.counter("comm.fault_stalled")
        self._fault_partitioned = self.stats.counter("comm.fault_partitioned")
        self._hb_lost = self.stats.counter("comm.heartbeats_lost")

    # -- standing link state -------------------------------------------------
    def isolate(self, a: int, b: int, until_ns: float) -> None:
        """Cut the (a, b) pair — both directions — until ``until_ns``."""
        pair = frozenset((a, b))
        self._cut_until[pair] = max(self._cut_until.get(pair, 0.0), until_ns)

    def heal(self, a: int, b: int) -> None:
        self._cut_until.pop(frozenset((a, b)), None)

    def is_cut(self, a: int, b: int, now_ns: float) -> bool:
        return self._cut_until.get(frozenset((a, b)), 0.0) > now_ns

    def mute_heartbeats(self, node: int, until_ns: float) -> None:
        """Silence ``node``'s outgoing heartbeats (its NIC egress control
        queue wedges) while data traffic still flows — the classic
        failure-detector false positive."""
        self._hb_muted_until[node] = max(
            self._hb_muted_until.get(node, 0.0), until_ns)

    # -- delivery ------------------------------------------------------------
    def delivery(self, src_node: int, dst_node: int, now_ns: float,
                 kind: str = "req", heartbeat: bool = False
                 ) -> Optional[float]:
        """Arrival instant of one message sent at ``now_ns`` — or
        ``None`` if it is lost on the wire."""
        lane = (kind, src_node, dst_node)
        depart = max(now_ns, self._lane_free.get(lane, 0.0))
        self._lane_free[lane] = depart + self.inter_issue_ns
        arrive = depart + self.inter_latency_ns
        if heartbeat and self._hb_muted_until.get(src_node, 0.0) > now_ns:
            self._hb_lost.add()
            return None
        if self.is_cut(src_node, dst_node, now_ns):
            self._fault_partitioned.add()
            if heartbeat:
                self._hb_lost.add()
            return None
        if self.faults is not None:
            from ..faults.plan import (
                HEARTBEAT_LOSS, LINK_DROP, LINK_PARTITION, LINK_STALL,
            )
            if heartbeat and self.faults.fires(HEARTBEAT_LOSS, now_ns):
                self._hb_lost.add()
                return None
            if self.faults.fires(LINK_DROP, now_ns):
                # lost on the wire: never delivered.  A waiting
                # initiator strands; the PR-1 stuck-transaction check
                # surfaces the loss instead of a silent hang.
                self._fault_lost.add()
                return None
            if self.faults.fires(LINK_STALL, now_ns):
                self._fault_stalled.add()
                arrive += self.faults.draw() * self.stall_max_ns
            if self.faults.fires(LINK_PARTITION, now_ns):
                self.isolate(src_node, dst_node,
                             now_ns + self.faults.draw() * self.partition_max_ns)
                self._fault_partitioned.add()
                return None
        return arrive

    def bulk_transfer_ns(self, src_node: int, dst_node: int, n_bytes: int,
                         now_ns: float, ns_per_byte: float
                         ) -> Optional[float]:
        """Completion instant of a bulk state transfer (migration
        snapshot + log tail), or ``None`` while the pair is cut."""
        if self.is_cut(src_node, dst_node, now_ns):
            self._fault_partitioned.add()
            return None
        return now_ns + self.inter_latency_ns + n_bytes * ns_per_byte


class HierarchicalInterconnect(Fabric):
    """Per-chip fabrics joined by :class:`NodeLinks`: a
    :class:`~repro.comm.Fabric` over global worker ids.

    ``node_of[w]`` is worker ``w``'s node; ``fabrics[n]`` is node
    ``n``'s on-chip fabric (a :class:`~repro.comm.Crossbar` or
    :class:`~repro.comm.RingInterconnect` over that node's workers, in
    global-id order) and times its same-node traffic — a default
    crossbar per node when not given.
    """

    def __init__(self, engine: Engine, clock: ClockDomain,
                 node_of: Sequence[int],
                 fabrics: Optional[Sequence] = None,
                 inter_latency_ns: float = 1500.0,
                 inter_issue_ns: float = 50.0,
                 stats: Optional[StatsRegistry] = None,
                 faults=None,
                 stall_max_ns: float = 50_000.0):
        super().__init__(engine, len(node_of), stats)
        self.node_of = list(node_of)
        self.inter_latency_ns = inter_latency_ns
        n_nodes = max(self.node_of) + 1
        #: worker -> its station id on its own chip's fabric
        self._station = []
        sizes = [0] * n_nodes
        for node in self.node_of:
            self._station.append(sizes[node])
            sizes[node] += 1
        self.fabrics = list(fabrics) if fabrics is not None else [
            Crossbar(engine, clock, size, stats=self.stats) for size in sizes]
        #: the shared inter-node lane model (and its optional
        #: repro.faults.FaultPlan: inter-node messages can be lost,
        #: stalled by up to ``stall_max_ns`` or cut off by a link
        #: partition); the HA control plane rides the same instance so
        #: faults starve both planes consistently
        self.node_links = NodeLinks(
            n_nodes, inter_latency_ns=inter_latency_ns,
            inter_issue_ns=inter_issue_ns, faults=faults, stats=self.stats,
            stall_max_ns=stall_max_ns)
        self._inter = self.stats.counter("comm.internode_messages")

    def crosses_nodes(self, src: int, dst: int) -> bool:
        return self.node_of[src] != self.node_of[dst]

    def send_request(self, packet: RequestPacket) -> None:
        self._check_dst(packet.dst_worker)
        if self.crosses_nodes(packet.src_worker, packet.dst_worker):
            self._make_self_contained(packet)
        super().send_request(packet)

    def _make_self_contained(self, packet: RequestPacket) -> None:
        req = packet.request
        if req.op not in _CROSS_NODE_OK:
            raise ClusterError(
                f"{req.op.value} cannot cross node boundaries: the commit "
                "protocol and scan buffers live in the initiator's memory")
        if req.key_value is None:
            # no shared DRAM: the key must travel inline
            req.key_value = req.route_key
            req.key_addr = None

    def _arrival(self, kind: str, src: int, dst: int) -> Optional[float]:
        src_node, dst_node = self.node_of[src], self.node_of[dst]
        if src_node == dst_node:
            return self.fabrics[src_node]._arrival(
                kind, self._station[src], self._station[dst])
        self._inter.add()
        return self.node_links.delivery(src_node, dst_node,
                                        self.engine.now, kind=kind)

    # -- latency figures ---------------------------------------------------------
    @property
    def primitive_latency_ns(self) -> float:
        return self.fabrics[0].primitive_latency_ns

    @property
    def roundtrip_latency_ns(self) -> float:
        return self.fabrics[0].roundtrip_latency_ns

    @property
    def internode_roundtrip_ns(self) -> float:
        return 2 * self.inter_latency_ns
