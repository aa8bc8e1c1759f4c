"""NIC / link model: how transaction blocks physically reach the chip.

The paper measures saturated throughput from pre-populated transaction
blocks and defers the serving path: "ideally, remote clients should
submit transaction blocks through network cards" (§5.1).  This module
is that network card.  A :class:`Nic` charges simulated time for every
block that enters the system — serialisation on a shared full-duplex
link of configurable bandwidth, a per-packet propagation latency, and
a *bounded* RX queue drained at a per-packet processing rate.  When
arrivals outpace RX processing the queue fills and the NIC sheds load
by dropping packets (drop-tail), exactly the behaviour today's free
teleport into ``BionicDB.submit`` cannot express.

Sizes are taken from the block layout (one cell ≈ one 64-byte line)
unless the config pins a fixed packet size.  Only the parts a client
actually ships cross the wire — the header cell and the input cells;
the output, scratch, undo and scan areas are allocated chip-side and
never serialise onto the link.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..errors import ConfigError
from ..sim.engine import Engine
from ..sim.stats import StatsRegistry
from ..sim.sync import Fifo

__all__ = ["NicConfig", "Nic"]


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
    #: fixed packet size; ``None`` derives it from the block layout
    packet_bytes: Optional[int] = None
    #: cell-to-wire conversion when deriving packet size from a layout
    bytes_per_cell: int = 64

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
        if self.packet_bytes is not None and self.packet_bytes < 1:
            raise ConfigError("packet_bytes must be >= 1 (or None)",
                              packet_bytes=self.packet_bytes)
        if self.bytes_per_cell < 1:
            raise ConfigError("bytes_per_cell must be >= 1",
                              bytes_per_cell=self.bytes_per_cell)


class Nic:
    """The ingress link: serialisation, propagation, bounded RX queue.

    ``transmit(request)`` is a generator the front-end runs as (or
    inside) a process; it charges wire time and either lands the
    request in ``rx`` (returning True) or drops it when the RX ring is
    full (returning False).  The front-end pump drains ``rx`` at
    ``rx_process_ns`` per packet.
    """

    def __init__(self, engine: Engine, config: Optional[NicConfig] = None,
                 stats: Optional[StatsRegistry] = None, name: str = "nic",
                 faults=None):
        self.engine = engine
        self.config = config or NicConfig()
        self.stats = stats or StatsRegistry()
        self.name = name
        #: optional repro.faults.FaultPlan; None = perfect link
        self.faults = faults
        self.rx: Fifo = Fifo(engine, name=f"{name}.rx")
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

    def packet_bytes(self, request) -> int:
        """Wire size of one request: header + input cells.

        A client ships ``proc_id`` plus the inputs; the output, scratch,
        undo and scan areas of the transaction block are chip-side
        allocations that never cross the link.
        """
        cfg = self.config
        if cfg.packet_bytes is not None:
            return cfg.packet_bytes
        layout = request.block.layout
        return (1 + layout.n_inputs) * cfg.bytes_per_cell

    def wire_ns(self, size_bytes: int) -> float:
        """Serialisation time for one packet on the shared link."""
        if self.config.bandwidth_gbps is None:
            return 0.0
        # bits / (Gbit/s) == ns
        return size_bytes * 8.0 / self.config.bandwidth_gbps

    def transmit(self, request):
        """Deliver one request over the link; yields simulated time.

        Returns True when the request landed in the RX queue, False
        when the packet was lost — bounded ring full, or an injected
        wire loss / in-flight corruption (the RX checksum discards a
        damaged packet, so both look the same to the sender).

        An injected duplication delivers the packet twice; the
        front-end pump detects and discards the extra copy, as a host
        network stack dedups retransmits.
        """
        cfg = self.config
        size = self.packet_bytes(request)
        self._bytes.add(size)
        now = self.engine.now
        start = max(now, self._busy_until)        # wait for the shared wire
        self._busy_until = start + self.wire_ns(size)
        arrival = self._busy_until + cfg.propagation_ns
        if arrival > now:
            yield arrival - now
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
        if (cfg.rx_queue_depth is not None
                and len(self.rx) >= cfg.rx_queue_depth):
            self._dropped.add()
            return False
        self.rx.try_put(request)
        self._delivered.add()
        if duplicate:
            # the second copy competes for ring space like any packet
            if (cfg.rx_queue_depth is None
                    or len(self.rx) < cfg.rx_queue_depth):
                self.rx.try_put(request)
                self._fault_duplicated.add()
        return True
