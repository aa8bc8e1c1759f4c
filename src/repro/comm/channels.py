"""On-chip message-passing channels (§4.6).

Each partition worker has a request channel and a response channel.
When the softcore decodes a DB instruction whose target partition is
remote, it builds a request packet (instruction + transaction
timestamp + source/destination worker ids) and sends it
asynchronously.  The remote worker's *background unit* — a state
machine woken by arriving data, like an index pipeline stage (§4.4) —
dispatches the instruction to the local index coprocessor as a
*background* request; the result travels back on the response channel
and is written into the initiator's CP register asynchronously.

:class:`Fabric` is the send path every topology shares: a worker
``attach``-es its two handlers, and a packet is handed to its
destination's handler at the arrival instant the topology computes
(``_arrival``).  Each channel serves its arrivals one at a time
(:class:`~repro.sim.sync.Inbox` at zero delay).

The measured protocol cost is 3 cycles (24 ns at 125 MHz) per message,
6 cycles (48 ns) for a request/response pair — Table 3.  Congestion can
add slightly to this: each directed link serialises at one message per
cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..index.common import DbRequest
from ..sim.clock import ClockDomain
from ..sim.engine import Engine
from ..sim.stats import StatsRegistry
from ..sim.sync import Inbox
from ..txn.cc import DbResult

__all__ = ["RequestPacket", "ResponsePacket", "Fabric", "Crossbar"]


@dataclass
class RequestPacket:
    """A DB instruction in flight between workers."""

    src_worker: int
    dst_worker: int
    request: DbRequest


@dataclass
class ResponsePacket:
    """A DB result returning to the initiating worker."""

    src_worker: int
    dst_worker: int
    cp_index: int
    result: DbResult


class Fabric:
    """The send path of every on-chip and cluster topology.

    Subclasses define ``_arrival(kind, src, dst)``: the instant a
    ``kind`` (``"req"`` / ``"rsp"``) message sent now from worker
    ``src`` reaches worker ``dst``, or ``None`` when it is lost.
    """

    def __init__(self, engine: Engine, n_workers: int,
                 stats: Optional[StatsRegistry] = None):
        if n_workers < 1:
            raise ValueError("need at least one worker")
        self.engine = engine
        self.n_workers = n_workers
        self.stats = stats or StatsRegistry()
        self._sent = self.stats.counter("comm.messages")
        #: worker -> its request / response channel, once attached
        self._requests: List[Optional[Inbox]] = [None] * n_workers
        self._responses: List[Optional[Inbox]] = [None] * n_workers

    def attach(self, worker: int, on_request: Callable[[RequestPacket], None],
               on_response: Callable[[ResponsePacket], None]) -> None:
        """Hand ``worker``'s arriving requests and responses to these
        handlers, each channel one packet at a time."""
        self._check_dst(worker)
        self._requests[worker] = Inbox(self.engine, on_request)
        self._responses[worker] = Inbox(self.engine, on_response)

    def send_request(self, packet: RequestPacket) -> None:
        self._send("req", self._requests, packet)

    def send_response(self, packet: ResponsePacket) -> None:
        self._send("rsp", self._responses, packet)

    def _check_dst(self, dst: int) -> None:
        if not 0 <= dst < self.n_workers:
            raise ValueError(f"destination worker {dst} out of range")

    def _send(self, kind: str, inboxes: List[Optional[Inbox]],
              packet) -> None:
        dst = packet.dst_worker
        self._check_dst(dst)
        self._sent.add()
        arrive = self._arrival(kind, packet.src_worker, dst)
        if arrive is not None:
            self.engine.call_fn_at(arrive, inboxes[dst].arrive, packet)

    def _arrival(self, kind: str, src: int, dst: int) -> Optional[float]:
        raise NotImplementedError


class Crossbar(Fabric):
    """The (non-scaling, §4.6) crossbar interconnect between workers.

    Message latency is ``hop_cycles`` plus any serialisation delay on
    the directed (kind, src, dst) lane, which admits one message per
    cycle.
    """

    #: one hop (Table 3's primitive latency)
    hop_cycles = 3.0

    def __init__(self, engine: Engine, clock: ClockDomain, n_workers: int,
                 stats: Optional[StatsRegistry] = None):
        super().__init__(engine, n_workers, stats)
        self.hop_ns = clock.ns(self.hop_cycles)
        self.issue_interval_ns = clock.ns(1.0)
        self._lane_free: Dict[tuple, float] = {}

    def _arrival(self, kind: str, src: int, dst: int) -> float:
        lane = (kind, src, dst)
        depart = max(self.engine.now, self._lane_free.get(lane, 0.0))
        self._lane_free[lane] = depart + self.issue_interval_ns
        return depart + self.hop_ns

    # -- latency figures (Table 3) -------------------------------------------
    @property
    def primitive_latency_ns(self) -> float:
        """One message hop (uncongested)."""
        return self.hop_ns

    @property
    def roundtrip_latency_ns(self) -> float:
        """One request/response pair (uncongested)."""
        return 2 * self.hop_ns
