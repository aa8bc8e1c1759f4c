"""Clock domains: convert cycle counts to engine time (nanoseconds).

BionicDB runs at 125 MHz (8 ns/cycle); the Xeon baseline at 1.87 GHz.
A :class:`ClockDomain` is attached to every timed component so cycle
budgets from the paper translate into a shared nanosecond timeline.
"""

from __future__ import annotations

from .engine import Engine

__all__ = ["ClockDomain", "FPGA_MHZ"]

#: the BionicDB clock: the Virtex-5 on the HC-2 at 125 MHz (§5.2)
FPGA_MHZ = 125.0


class ClockDomain:
    def __init__(self, engine: Engine, freq_mhz: float, name: str = ""):
        if freq_mhz <= 0:
            raise ValueError("frequency must be positive")
        self.engine = engine
        self.freq_mhz = freq_mhz
        self.ns_per_cycle = 1000.0 / freq_mhz
        self.name = name

    def ns(self, cycles: float) -> float:
        """Nanoseconds taken by ``cycles`` cycles."""
        return cycles * self.ns_per_cycle

    def cycles(self, ns: float) -> float:
        """Cycles elapsed in ``ns`` nanoseconds."""
        return ns / self.ns_per_cycle

    def delay(self, cycles: float) -> float:
        """A delay of ``cycles`` cycles, in ns, for a generator to yield:
        :meth:`Engine.follow <repro.sim.engine.Engine.follow>` schedules
        the resumption without allocating an event object."""
        return self.ns(cycles)

    @property
    def now_cycles(self) -> float:
        return self.engine.now / self.ns_per_cycle

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ClockDomain({self.name or 'anon'}, {self.freq_mhz} MHz)"
