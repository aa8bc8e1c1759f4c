"""Central configuration for a simulated BionicDB machine.

Every timing parameter the model uses lives here, with the paper
anchor that justifies it:

* 125 MHz FPGA clock (§5.2); 8 ns per cycle.
* DRAM random-access latency 85 cycles (~680 ns) — HC-2 class
  coprocessor memory through the crossbar interconnect.
* The hash coprocessor's read port issues one request per 24 cycles
  (HC-2 port arbitration).  A SEARCH needs three dependent reads
  (key fetch, bucket, tuple), so a saturated worker sustains one probe
  per ~72 cycles: four workers peak near 7 Mops with knees between 12
  and 16 total in-flight requests — the Figure 10a anchor.  INSERTs
  need two reads plus two writes (write port interval 28), landing near
  8.5 Mops aggregate.
* Skiplist stages have internal memory stalls, so parallelism is bound
  by pipeline depth (8 stages), reproducing Figure 11's early
  saturation; the scanner's per-tuple cost is dominated by copying the
  1 KB tuple into the transaction block's scan buffer (~145 cycles),
  which is why one scanner bottlenecks Figure 11c and "at least five
  scanners" would be needed to catch the software skiplist (§5.5).
* On-chip message passing: 3 cycles per message, 6 per round trip
  (Table 3); context switch 10 cycles (§4.5); CPU instructions take the
  five RISC steps, DB instructions Prepare + Dispatch (§4.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from ..errors import ConfigError
from ..index.bptree.pipeline import BPTreeTimings
from ..index.hash.pipeline import HashTimings
from ..index.skiplist.pipeline import SkiplistTimings
from ..mem.txnblock import BlockLayout
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
    # machine
    n_workers: int = 4
    fpga_mhz: float = 125.0
    dram_latency_cycles: float = 85.0
    dram_channels: int = 8

    # hash coprocessor
    hash_timings: HashTimings = field(default_factory=HashTimings)
    hash_traverse_stages: int = 1
    hash_read_issue_interval: float = 24.0
    hash_write_issue_interval: float = 28.0
    hash_buckets_default: int = 1 << 16

    # skiplist coprocessor
    skiplist_timings: SkiplistTimings = field(
        default_factory=lambda: SkiplistTimings(scan_emit=145.0))
    skiplist_stages: int = 8
    skiplist_scanners: int = 1
    skiplist_max_height: int = 20
    skiplist_read_issue_interval: float = 4.0
    skiplist_write_issue_interval: float = 4.0

    # B+ tree coprocessor (batched level-wise traversal; ROADMAP item 4)
    bptree_timings: BPTreeTimings = field(
        default_factory=lambda: BPTreeTimings(scan_emit=145.0))
    bptree_fanout: int = 15
    bptree_stages: int = 4
    bptree_wave_size: int = 8
    bptree_read_issue_interval: float = 4.0
    bptree_write_issue_interval: float = 4.0

    # shared coprocessor in-flight budget (Figure 10/11 sweeps)
    max_in_flight: int = 16

    # hazard prevention (disable only for anomaly demonstrations)
    hazard_prevention: bool = True

    # communication: "crossbar" (the paper's, O(n^2) wiring) or "ring"
    # (its §4.6 scaling suggestion, O(n) wiring, O(n) latency)
    comm_topology: str = "crossbar"
    comm_hop_cycles: float = 3.0
    ring_hop_cycles: float = 2.0

    # target device for the resource ledger: "virtex5" (the paper's) or
    # "ultrascale_plus" (the §7 scale-up target)
    device: str = "virtex5"

    # softcore
    softcore: SoftcoreConfig = field(default_factory=SoftcoreConfig)

    # transaction blocks
    block_layout: BlockLayout = field(default_factory=BlockLayout)

    # execution tracing (repro.sim.trace.Tracer); None = disabled
    tracer: Optional[object] = None

    def __post_init__(self):
        if self.n_workers < 1:
            raise ConfigError("n_workers must be >= 1",
                              n_workers=self.n_workers)
        if self.fpga_mhz <= 0:
            raise ConfigError("fpga_mhz must be positive",
                              fpga_mhz=self.fpga_mhz)
        if self.comm_topology not in ("crossbar", "ring"):
            raise ConfigError(f"unknown topology {self.comm_topology!r}")
        if self.device not in ("virtex5", "ultrascale_plus"):
            raise ConfigError(f"unknown device {self.device!r}")
        for name, minimum in (
            ("dram_latency_cycles", 0.0), ("dram_channels", 1),
            ("hash_traverse_stages", 1), ("hash_read_issue_interval", 0.0),
            ("hash_write_issue_interval", 0.0), ("hash_buckets_default", 1),
            ("skiplist_stages", 1), ("skiplist_scanners", 1),
            ("skiplist_max_height", 1), ("skiplist_read_issue_interval", 0.0),
            ("skiplist_write_issue_interval", 0.0),
            ("bptree_fanout", 3), ("bptree_stages", 1),
            ("bptree_wave_size", 1),
            ("bptree_read_issue_interval", 0.0),
            ("bptree_write_issue_interval", 0.0),
            ("max_in_flight", 1), ("comm_hop_cycles", 0.0),
            ("ring_hop_cycles", 0.0),
        ):
            value = getattr(self, name)
            if value < minimum:
                raise ConfigError(f"{name} must be >= {minimum}",
                                  **{name: value})
        if self.softcore.n_registers < 1:
            raise ConfigError("softcore.n_registers must be >= 1",
                              n_registers=self.softcore.n_registers)
        if self.block_layout.n_inputs < 1:
            raise ConfigError("block_layout.n_inputs must be >= 1",
                              n_inputs=self.block_layout.n_inputs)

    def with_(self, **changes) -> "BionicConfig":
        """A modified copy (dataclasses.replace convenience)."""
        return replace(self, **changes)

    def hash_kwargs(self) -> dict:
        return {
            "timings": self.hash_timings,
            "n_traverse_stages": self.hash_traverse_stages,
            "hazard_prevention": self.hazard_prevention,
            "max_in_flight": self.max_in_flight,
            "read_issue_interval_cycles": self.hash_read_issue_interval,
            "write_issue_interval_cycles": self.hash_write_issue_interval,
        }

    def skiplist_kwargs(self) -> dict:
        return {
            "timings": self.skiplist_timings,
            "n_stages": self.skiplist_stages,
            "n_scanners": self.skiplist_scanners,
            "max_height": self.skiplist_max_height,
            "hazard_prevention": self.hazard_prevention,
            "max_in_flight": self.max_in_flight,
            "read_issue_interval_cycles": self.skiplist_read_issue_interval,
            "write_issue_interval_cycles": self.skiplist_write_issue_interval,
        }

    def bptree_kwargs(self) -> dict:
        return {
            "timings": self.bptree_timings,
            "fanout": self.bptree_fanout,
            "n_stages": self.bptree_stages,
            "wave_size": self.bptree_wave_size,
            "max_in_flight": self.max_in_flight,
            "read_issue_interval_cycles": self.bptree_read_issue_interval,
            "write_issue_interval_cycles": self.bptree_write_issue_interval,
        }
