"""Shared fixtures and helpers for the BionicDB reproduction test suite."""

from __future__ import annotations

import pytest

from repro.sim import ClockDomain, DramModel, Engine, Heap, StatsRegistry


class SimEnv:
    """A bundled engine + FPGA clock + DRAM used across index tests."""

    def __init__(self, latency_cycles: float = 60.0, channels: int = 8,
                 engine=None):
        self.engine = engine if engine is not None else Engine()
        self.clock = ClockDomain(self.engine, 125.0, name="fpga")
        self.stats = StatsRegistry()
        self.heap = Heap(stats=self.stats)
        self.dram = DramModel(self.engine, self.clock, self.heap,
                              latency_cycles=latency_cycles, channels=channels,
                              stats=self.stats)

    def run(self, until: float | None = None) -> float:
        return self.engine.run(until=until)


@pytest.fixture
def env() -> SimEnv:
    return SimEnv()


def collect_results(requests):
    """Attach a collector to DbRequests; returns the shared results list."""
    results = []

    def on_complete(req, result):
        results.append((req, result))

    for r in requests:
        r.on_complete = on_complete
    return results


def heap_image(heap):
    """Every occupied cell, in address order, in a comparable form —
    what two load paths must agree on cell for cell."""
    return heap.allocated_cells, [(addr, repr(cell))
                                  for addr, cell in heap.items()]
