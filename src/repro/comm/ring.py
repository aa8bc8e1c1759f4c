"""Ring interconnect — the paper's §4.6 scaling direction.

"The current topology of the on-chip communication is crossbar which
does not scale.  When scaling up BionicDB on datacenter-grade FPGAs
that can fit tens or hundreds of BionicDB workers in a single chip, a
scalable on-chip communication topology, such as ring or tree, will be
required."

This implements the ring: a unidirectional token ring where a message
from worker *s* to worker *d* traverses ``(d - s) mod n`` hops of
``hop_cycles`` each.  Wiring cost grows O(n) in workers (the crossbar's
grows O(n²)); latency grows O(n) — the scale-up benchmark quantifies
that trade.

The class is interface-compatible with :class:`repro.comm.Crossbar`
(``link``/``send_request``/``send_response``), so partition workers are
topology-agnostic.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..sim.clock import ClockDomain
from ..sim.engine import Engine
from ..sim.stats import StatsRegistry
from ..sim.sync import Fifo
from .channels import CommLink, RequestPacket, ResponsePacket

__all__ = ["RingInterconnect"]


class RingInterconnect:
    """Unidirectional ring of point-to-point segments."""

    def __init__(self, engine: Engine, clock: ClockDomain, n_workers: int,
                 hop_cycles: float = 2.0,
                 stats: Optional[StatsRegistry] = None):
        if n_workers < 1:
            raise ValueError("need at least one worker")
        self.engine = engine
        self.clock = clock
        self.n_workers = n_workers
        self.hop_ns = clock.ns(hop_cycles)
        self.issue_interval_ns = clock.ns(1.0)
        self.links = [CommLink(engine, w) for w in range(n_workers)]
        # each ring segment (w -> w+1) admits one flit per cycle
        self._segment_free = [0.0] * n_workers
        self.stats = stats or StatsRegistry()
        self._sent = self.stats.counter("comm.messages")
        self._hops = self.stats.counter("comm.hops")

    def link(self, worker_id: int) -> CommLink:
        return self.links[worker_id]

    def hops_between(self, src: int, dst: int) -> int:
        return (dst - src) % self.n_workers or self.n_workers

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
        """As :meth:`Crossbar.send`; requests and responses share the
        ring's segments, so ``kind`` picks no lane."""
        now = self.engine.now
        hops = self.hops_between(src, dst)
        # serialise on each segment the message crosses, in order
        t = now
        seg = src
        for _ in range(hops):
            depart = max(t, self._segment_free[seg])
            self._segment_free[seg] = depart + self.issue_interval_ns
            t = depart + self.hop_ns
            seg = (seg + 1) % self.n_workers
        self._sent.add()
        self._hops.add(hops)
        self.engine.call_fn_at(t, queue.try_put, packet)

    # -- latency figures -------------------------------------------------------
    @property
    def primitive_latency_ns(self) -> float:
        """Average one-way latency over uniformly distributed peers."""
        if self.n_workers == 1:
            return self.hop_ns
        mean_hops = sum(self.hops_between(0, d)
                        for d in range(1, self.n_workers)) / (self.n_workers - 1)
        return mean_hops * self.hop_ns

    @property
    def roundtrip_latency_ns(self) -> float:
        """A request/response pair always crosses the full ring."""
        return self.n_workers * self.hop_ns
