"""On-chip message-passing channels (§4.6).

Each partition worker owns a communication *link*: a request channel
and a response channel.  When the softcore decodes a DB instruction
whose target partition is remote, it builds a request packet
(instruction + transaction timestamp + source/destination worker ids)
and sends it asynchronously.  A background unit at the remote worker
watches its request channel and dispatches inbound instructions to the
local index coprocessor as *background* requests; the result travels
back on the response channel and is written into the initiator's CP
register asynchronously.

The measured protocol cost is 3 cycles (24 ns at 125 MHz) per message,
6 cycles (48 ns) for a request/response pair — Table 3.  Congestion can
add slightly to this: each directed link serialises at one message per
cycle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

from ..index.common import DbRequest
from ..sim.clock import ClockDomain
from ..sim.engine import Engine
from ..sim.stats import StatsRegistry
from ..sim.sync import Fifo
from ..txn.cc import DbResult

__all__ = ["RequestPacket", "ResponsePacket", "Crossbar", "CommLink"]

_packet_ids = itertools.count(1)


@dataclass
class RequestPacket:
    """A DB instruction in flight between workers."""

    src_worker: int
    dst_worker: int
    request: DbRequest
    packet_id: int = field(default_factory=lambda: next(_packet_ids))


@dataclass
class ResponsePacket:
    """A DB result returning to the initiating worker."""

    src_worker: int
    dst_worker: int
    cp_index: int
    txn_id: int
    result: DbResult
    req_id: int = 0
    packet_id: int = field(default_factory=lambda: next(_packet_ids))


class CommLink:
    """One worker's request + response channel pair."""

    def __init__(self, engine: Engine, worker_id: int):
        self.worker_id = worker_id
        self.requests = Fifo(engine, name=f"w{worker_id}.req")
        self.responses = Fifo(engine, name=f"w{worker_id}.rsp")


class Crossbar:
    """The (non-scaling, §4.6) crossbar interconnect between workers.

    Message latency is ``hop_cycles`` plus any serialisation delay on
    the directed (src, dst, kind) link, which admits one message per
    cycle.
    """

    def __init__(self, engine: Engine, clock: ClockDomain, n_workers: int,
                 hop_cycles: float = 3.0,
                 stats: Optional[StatsRegistry] = None):
        if n_workers < 1:
            raise ValueError("need at least one worker")
        self.engine = engine
        self.clock = clock
        self.n_workers = n_workers
        self.hop_ns = clock.ns(hop_cycles)
        self.issue_interval_ns = clock.ns(1.0)
        self.links = [CommLink(engine, w) for w in range(n_workers)]
        self._lane_free: Dict[tuple, float] = {}
        self.stats = stats or StatsRegistry()
        self._sent = self.stats.counter("comm.messages")

    def link(self, worker_id: int) -> CommLink:
        return self.links[worker_id]

    # -- sending ------------------------------------------------------------
    def send_request(self, packet: RequestPacket) -> None:
        self._check_dst(packet.dst_worker)
        self.send("req", packet.src_worker, packet.dst_worker,
                  self.links[packet.dst_worker].requests, packet)

    def send_response(self, packet: ResponsePacket) -> None:
        self._check_dst(packet.dst_worker)
        self.send("rsp", packet.src_worker, packet.dst_worker,
                  self.links[packet.dst_worker].responses, packet)

    def _check_dst(self, dst: int) -> None:
        if not 0 <= dst < self.n_workers:
            raise ValueError(f"destination worker {dst} out of range")

    def send(self, kind: str, src: int, dst: int, queue: Fifo,
             packet) -> None:
        """Put ``packet`` on ``queue`` after the fabric's delay from
        station ``src`` to ``dst`` (the call a multi-node interconnect
        makes for same-node traffic, with chip-local station ids)."""
        lane = (kind, src, dst)
        now = self.engine.now
        depart = max(now, self._lane_free.get(lane, 0.0))
        self._lane_free[lane] = depart + self.issue_interval_ns
        arrive = depart + self.hop_ns
        self._sent.add()
        self.engine.call_fn_at(arrive, queue.try_put, packet)

    # -- latency figures (Table 3) -------------------------------------------
    @property
    def primitive_latency_ns(self) -> float:
        """One message hop (uncongested)."""
        return self.hop_ns

    @property
    def roundtrip_latency_ns(self) -> float:
        """One request/response pair (uncongested)."""
        return 2 * self.hop_ns
