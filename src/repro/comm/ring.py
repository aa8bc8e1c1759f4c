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

The ring supplies only its arrival model; the send path is
:class:`repro.comm.Fabric`'s, so partition workers are
topology-agnostic.
"""

from __future__ import annotations

from typing import Optional

from ..sim.clock import ClockDomain
from ..sim.engine import Engine
from ..sim.stats import StatsRegistry
from .channels import Fabric

__all__ = ["RingInterconnect"]


class RingInterconnect(Fabric):
    """Unidirectional ring of point-to-point segments."""

    #: one segment (Table 3's ring anchor)
    hop_cycles = 2.0

    def __init__(self, engine: Engine, clock: ClockDomain, n_workers: int,
                 stats: Optional[StatsRegistry] = None):
        super().__init__(engine, n_workers, stats)
        self.hop_ns = clock.ns(self.hop_cycles)
        self.issue_interval_ns = clock.ns(1.0)
        # each ring segment (w -> w+1) admits one flit per cycle
        self._segment_free = [0.0] * n_workers
        self._hops = self.stats.counter("comm.hops")

    def hops_between(self, src: int, dst: int) -> int:
        return (dst - src) % self.n_workers or self.n_workers

    def _arrival(self, kind: str, src: int, dst: int) -> float:
        """Requests and responses share the ring's segments, so ``kind``
        picks no lane: the message serialises on each segment it
        crosses, in order."""
        hops = self.hops_between(src, dst)
        t = self.engine.now
        seg = src
        for _ in range(hops):
            depart = max(t, self._segment_free[seg])
            self._segment_free[seg] = depart + self.issue_interval_ns
            t = depart + self.hop_ns
            seg = (seg + 1) % self.n_workers
        self._hops.add(hops)
        return t

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
