"""Configuration of a simulated BionicDB machine.

The paper evaluates one design point, so its timing is constants, each
in the module that charges it, with the paper anchor that justifies it:

* the 125 MHz FPGA clock (§5.2), 8 ns per cycle:
  :data:`repro.sim.clock.FPGA_MHZ`;
* DRAM random-access latency 85 cycles (~680 ns) over 8 channels —
  HC-2 class coprocessor memory through the crossbar interconnect:
  :class:`repro.sim.memory.DramModel`'s defaults;
* the index pipelines' stage charges, depths and port issue intervals:
  each pipeline's class attributes (``keyfetch_cycles``,
  ``issue_intervals``, ``n_stages``, …).
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
  (Table 3): the :class:`~repro.comm.channels.Crossbar`'s
  ``hop_cycles``, 2 on the :class:`~repro.comm.ring.RingInterconnect`;
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

__all__ = ["BionicConfig"]


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
