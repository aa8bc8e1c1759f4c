"""Xeon E7 4807 cost model for the software baseline (§5.2).

The baseline engine executes *real* data-structure operations (so
correctness, conflicts and aborts are genuine); simulated time is
charged from this model.  The paper's comparison CPU is a 1.87 GHz
Xeon E7 4807: 32 KB L1, 256 KB L2, 18 MB shared L3, DDR3 DRAM.

The central quantity is the cost of touching one 64-byte line.  OLTP
probes are dependent pointer chases (the paper's whole motivation), so
line touches serialise; a *streamed* touch (sequentially allocated
nodes, e.g. a software skiplist's bottom level built in key order) is
prefetch-friendly and far cheaper — this asymmetry is what makes the
software skiplist 5x faster than the hardware scan in Figure 11d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["XeonModel"]

LINE_BYTES = 64


@dataclass
class XeonModel:
    #: the cores running transactions, which load DRAM together
    active_cores: int = 1

    freq_ghz = 1.87
    l3_ns = 20.0
    dram_ns = 80.0
    streamed_line_ns = 18.0     # prefetcher-friendly sequential touch
    l3_bytes = 18 * 1024 * 1024
    #: per-instruction cost for the non-memory work of one DB operation
    op_overhead_ns = 25.0
    #: transaction begin/commit bookkeeping (timestamp, logging elide)
    txn_overhead_ns = 120.0
    #: per-read-set-entry OCC validation cost
    validate_entry_ns = 8.0
    #: DRAM queueing under multi-core load: latency inflates toward
    #: (1 + contention_span) as active cores grow; this saturating shape
    #: reproduces Silo's mildly sublinear scaling (Fig. 9a: 6x the cores
    #: buy ~4.5x the throughput)
    contention_span = 0.75
    contention_cores_scale = 6.0
    #: how much of a random payload copy the line-fill burst overlaps
    payload_overlap = 0.95

    @property
    def loaded_dram_ns(self) -> float:
        """DRAM latency under the current core count's load."""
        inflate = 1.0 + self.contention_span * (
            1.0 - math.exp(-(self.active_cores - 1) / self.contention_cores_scale))
        return self.dram_ns * inflate

    def resident_fraction(self, working_set_bytes: int) -> float:
        """Fraction of a structure's lines expected to sit in L3."""
        if working_set_bytes <= 0:
            return 1.0
        return min(1.0, self.l3_bytes / working_set_bytes)

    def line_ns(self, working_set_bytes: int) -> float:
        """Expected cost of one dependent line touch into a structure
        of the given size (L3-resident fraction hits at L3 cost)."""
        f = self.resident_fraction(working_set_bytes)
        return f * self.l3_ns + (1.0 - f) * self.loaded_dram_ns

    def random_lines_ns(self, n_lines: int, working_set_bytes: int) -> float:
        """n dependent line touches (no overlap: pointer chase)."""
        return n_lines * self.line_ns(working_set_bytes)

    def streamed_lines_ns(self, n_lines: int) -> float:
        """n sequential line touches (prefetcher hides most latency)."""
        return n_lines * self.streamed_line_ns

    def payload_ns(self, payload_bytes: int, streamed: bool = False) -> float:
        lines = max(1, (payload_bytes + LINE_BYTES - 1) // LINE_BYTES)
        if streamed:
            return self.streamed_lines_ns(lines)
        return lines * self.loaded_dram_ns * self.payload_overlap
