"""NIC / link model: how transaction blocks physically reach the chip.

The paper measures saturated throughput from pre-populated transaction
blocks and defers the serving path: "ideally, remote clients should
submit transaction blocks through network cards" (§5.1).  This module
is that network card.  A :class:`Nic` charges simulated time for every
block that enters the system — serialisation on a shared full-duplex
link of configurable bandwidth, a per-packet propagation latency, and
a *bounded* RX ring drained at a per-packet processing rate.  When
arrivals outpace RX processing the ring fills and the NIC sheds load
by dropping packets (drop-tail), exactly the behaviour today's free
teleport into ``BionicDB.submit`` cannot express.

The RX ring is an :class:`~repro.sim.sync.Inbox` whose service delay
is ``rx_process_ns`` and whose handler is the front-end's pump.
Packet sizes come from the block layout, one 64-byte line
(:data:`BYTES_PER_CELL`) per cell.  Only the parts a client actually
ships cross the wire — the header cell and the input cells; the output,
scratch, undo and scan areas are allocated chip-side and never
serialise onto the link.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from ..errors import ConfigError
from ..sim.engine import Engine
from ..sim.stats import StatsRegistry
from ..sim.sync import Inbox

__all__ = ["NicConfig", "Nic", "BYTES_PER_CELL"]

#: wire bytes per transaction-block cell (one cache line)
BYTES_PER_CELL = 64


@dataclass
class NicConfig:
    #: shared-link bandwidth; ``None`` models an infinitely fast link
    #: (no serialisation delay) — what the pass-through front-end uses
    bandwidth_gbps: Optional[float] = 40.0
    #: one-way per-packet latency (wire + PHY + DMA), ns
    propagation_ns: float = 500.0
    #: bounded RX descriptor ring; ``None`` = unbounded (never drops)
    rx_queue_depth: Optional[int] = 256
    #: per-packet host-side processing cost when draining RX, ns
    rx_process_ns: float = 40.0

    def __post_init__(self):
        if self.bandwidth_gbps is not None and self.bandwidth_gbps <= 0:
            raise ConfigError("bandwidth_gbps must be positive (or None)",
                              bandwidth_gbps=self.bandwidth_gbps)
        if self.propagation_ns < 0:
            raise ConfigError("propagation_ns must be >= 0",
                              propagation_ns=self.propagation_ns)
        if self.rx_queue_depth is not None and self.rx_queue_depth < 1:
            raise ConfigError("rx_queue_depth must be >= 1 (or None)",
                              rx_queue_depth=self.rx_queue_depth)
        if self.rx_process_ns < 0:
            raise ConfigError("rx_process_ns must be >= 0",
                              rx_process_ns=self.rx_process_ns)


class Nic:
    """The ingress link: serialisation, propagation, bounded RX ring.

    ``transmit(request, landed)`` charges wire time and calls
    ``landed(request)`` when the packet reaches the card;
    ``receive(request)`` then either puts it on the RX ring, whose
    handler ``on_receive`` serves one packet per ``rx_process_ns``, or
    drops it.
    """

    def __init__(self, engine: Engine, on_receive: Callable[[Any], None],
                 config: Optional[NicConfig] = None,
                 stats: Optional[StatsRegistry] = None, name: str = "nic",
                 faults=None):
        self.engine = engine
        self.config = config or NicConfig()
        self.stats = stats or StatsRegistry()
        self.name = name
        #: optional repro.faults.FaultPlan; None = perfect link
        self.faults = faults
        self.rx = Inbox(engine, on_receive, self.config.rx_process_ns)
        self._busy_until = 0.0   # when the shared wire next idles
        self._delivered = self.stats.counter(f"{name}.delivered")
        self._dropped = self.stats.counter(f"{name}.rx_dropped")
        self._bytes = self.stats.counter(f"{name}.bytes")
        self._fault_lost = self.stats.counter(f"{name}.fault_lost")
        self._fault_corrupted = self.stats.counter(f"{name}.fault_corrupted")
        self._fault_duplicated = self.stats.counter(f"{name}.fault_duplicated")

    @property
    def delivered(self) -> int:
        return self._delivered.value

    @property
    def dropped(self) -> int:
        return self._dropped.value

    @staticmethod
    def packet_bytes(request) -> int:
        """Wire size of one request: header + input cells.

        A client ships ``proc_id`` plus the inputs; the output, scratch,
        undo and scan areas of the transaction block are chip-side
        allocations that never cross the link.
        """
        return (1 + request.block.layout.n_inputs) * BYTES_PER_CELL

    def wire_ns(self, size_bytes: int) -> float:
        """Serialisation time for one packet on the shared link."""
        if self.config.bandwidth_gbps is None:
            return 0.0
        # bits / (Gbit/s) == ns
        return size_bytes * 8.0 / self.config.bandwidth_gbps

    def transmit(self, request, landed: Callable[[Any], None]) -> None:
        """Put one request on the wire; ``landed(request)`` runs when it
        reaches the card — inline if that is now."""
        size = self.packet_bytes(request)
        self._bytes.add(size)
        engine = self.engine
        now = engine.now
        start = max(now, self._busy_until)        # wait for the shared wire
        self._busy_until = start + self.wire_ns(size)
        arrival = self._busy_until + self.config.propagation_ns
        if arrival > now:
            engine._schedule_fn(now + (arrival - now), landed, request)
        else:
            landed(request)

    def receive(self, request) -> bool:
        """Put a landed request on the RX ring.

        Returns False when the packet is lost — ring full, or an
        injected wire loss / in-flight corruption (the RX checksum
        discards a damaged packet, so both look the same to the
        sender).  An injected duplication puts the packet on the ring
        twice; the pump discards the extra copy, as a host network
        stack dedups retransmits.
        """
        duplicate = False
        if self.faults is not None:
            from ..faults.plan import NIC_CORRUPT, NIC_DROP, NIC_DUPLICATE
            now = self.engine.now
            if self.faults.fires(NIC_DROP, now):
                self._fault_lost.add()
                return False
            if self.faults.fires(NIC_CORRUPT, now):
                self._fault_corrupted.add()
                return False
            duplicate = self.faults.fires(NIC_DUPLICATE, now)
        depth = self.config.rx_queue_depth
        rx = self.rx
        if depth is not None and len(rx) >= depth:
            self._dropped.add()
            return False
        rx.arrive(request)
        self._delivered.add()
        if duplicate:
            # the second copy competes for ring space like any packet
            if depth is None or len(rx) < depth:
                rx.arrive(request)
                self._fault_duplicated.add()
        return True
