"""Configuration of a simulated BionicDB machine.

The paper evaluates one design point, so its timing is constants, each
in the module that charges it, with the paper anchor that justifies it:

* the 125 MHz FPGA clock (§5.2), 8 ns per cycle:
  :data:`repro.sim.clock.FPGA_MHZ`;
* DRAM random-access latency 85 cycles (~680 ns) over 8 channels —
  HC-2 class coprocessor memory through the crossbar interconnect:
  :class:`repro.sim.memory.DramModel`'s defaults;
* the index pipelines' stage charges, depths and port issue intervals:
  each pipeline's defaults (``HashTimings``, ``issue_intervals``, …).
  The hash read port issues one request per 24 cycles (HC-2 port
  arbitration); a SEARCH needs three dependent reads, so four workers
  peak near 7 Mops with knees between 12 and 16 total in-flight
  requests — the Figure 10a anchor.  Skiplist stages have internal
  memory stalls, so parallelism is bound by pipeline depth (8 stages,
  Figure 11);
* the scanners' per-tuple cost, dominated by copying the 1 KB tuple
  into the transaction block's scan buffer (~145 cycles), which is why
  one scanner bottlenecks Figure 11c:
  :data:`repro.index.common.SCAN_EMIT_CYCLES`;
* on-chip message passing, 3 cycles per message and 6 per round trip
  (Table 3): the :class:`~repro.comm.channels.Crossbar`'s hop, 2 on the
  :class:`~repro.comm.ring.RingInterconnect`;
* the softcore's charges — five RISC steps per CPU instruction, Prepare
  + Dispatch per DB instruction, a 10-cycle context switch (§4.3,
  §4.5): :mod:`repro.softcore.timing`.

What remains here is what experiments vary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..errors import ConfigError
from ..softcore.core import SoftcoreConfig

__all__ = ["BionicConfig", "HAConfig"]


@dataclass
class HAConfig:
    """Cluster high-availability knobs (heartbeats, failover, migration).

    Validated at construction with the same typed-error style as
    :class:`BionicConfig`: the relationships that would make the
    failure detector or the migration state machine nonsensical
    (timeout not exceeding the interval, a zero unavailability budget)
    are rejected before any node is built."""

    #: how often each node emits a heartbeat to every peer
    heartbeat_interval_ns: float = 1_000_000.0          # 1 ms
    #: silence after which a node is declared dead — must exceed the
    #: interval, or a single on-time beat's latency declares everyone dead
    heartbeat_timeout_ns: float = 5_000_000.0           # 5 ms
    #: command-log frames an owner may buffer unreplicated before it
    #: refuses new transactions for the partition (bounded lag)
    replication_max_lag: int = 64
    #: per-partition bound on drain→transfer→re-own unavailability
    migration_budget_ns: float = 50_000_000.0           # 50 ms
    #: simulated cost of bulk state transfer (snapshot + log tail)
    transfer_ns_per_byte: float = 0.1                   # ~10 GB/s links
    #: client backoff between retries of retryable cluster errors
    retry_backoff_ns: float = 500_000.0

    def __post_init__(self):
        if self.heartbeat_interval_ns <= 0:
            raise ConfigError("heartbeat_interval_ns must be positive",
                              heartbeat_interval_ns=self.heartbeat_interval_ns)
        if self.heartbeat_timeout_ns <= self.heartbeat_interval_ns:
            raise ConfigError(
                "heartbeat_timeout_ns must exceed heartbeat_interval_ns, or "
                "one delayed beat declares a healthy node dead",
                heartbeat_timeout_ns=self.heartbeat_timeout_ns,
                heartbeat_interval_ns=self.heartbeat_interval_ns)
        if self.replication_max_lag < 1:
            raise ConfigError("replication_max_lag must be >= 1",
                              replication_max_lag=self.replication_max_lag)
        if self.migration_budget_ns <= 0:
            raise ConfigError("migration_budget_ns must be positive",
                              migration_budget_ns=self.migration_budget_ns)
        if self.transfer_ns_per_byte < 0:
            raise ConfigError("transfer_ns_per_byte must be >= 0",
                              transfer_ns_per_byte=self.transfer_ns_per_byte)
        if self.retry_backoff_ns < 0:
            raise ConfigError("retry_backoff_ns must be >= 0",
                              retry_backoff_ns=self.retry_backoff_ns)


@dataclass
class BionicConfig:
    n_workers: int = 4

    # communication: "crossbar" (the paper's, O(n^2) wiring) or "ring"
    # (its §4.6 scaling suggestion, O(n) wiring, O(n) latency)
    comm_topology: str = "crossbar"

    # target device for the resource ledger: "virtex5" (the paper's) or
    # "ultrascale_plus" (the §7 scale-up target)
    device: str = "virtex5"

    softcore: SoftcoreConfig = field(default_factory=SoftcoreConfig)

    # execution tracing (repro.sim.trace.Tracer); None = disabled
    tracer: Optional[object] = None

    def __post_init__(self):
        if self.n_workers < 1:
            raise ConfigError("n_workers must be >= 1",
                              n_workers=self.n_workers)
        if self.comm_topology not in ("crossbar", "ring"):
            raise ConfigError(f"unknown topology {self.comm_topology!r}")
        if self.device not in ("virtex5", "ultrascale_plus"):
            raise ConfigError(f"unknown device {self.device!r}")
