"""Shared fixtures and helpers for the BionicDB reproduction test suite."""

from __future__ import annotations

import pytest

from repro.index.bptree.pipeline import BPTreePipeline
from repro.sim import ClockDomain, DramModel, Engine, Heap, StatsRegistry
from repro.sim.memory import ColdRows


class SmallNodeBPTree(BPTreePipeline):
    """A B+ tree pipeline with 4 keys per node instead of 15: a few
    hundred keys grow a tree deep enough to split, purge and descend
    several levels."""

    fanout = 4


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
    what two load paths must agree on cell for cell.

    Reading every cell builds every cold row, so the image also checks
    the cold-row invariants: no cell is handed out cold, and no row was
    built more often than rows were laid out cold."""
    cells = list(heap.items())
    assert not any(cell.__class__ is ColdRows for _addr, cell in cells)
    assert heap.rows_inflated.value <= heap.rows_cold.value
    return heap.allocated_cells, [(addr, repr(cell)) for addr, cell in cells]


def per_row(db):
    """Make ``db.load_many`` the row-at-a-time ``db.load`` loop its heap
    image must agree with, for rows and for columns."""
    def load_many(rows=(), *, columns=(), partition=None):
        n = 0
        for table_id, key, fields in rows:
            db.load(table_id, key, fields, partition=partition)
            n += 1
        for table_id, keys, column in columns:
            for key, fields in zip(keys, column, strict=True):
                db.load(table_id, key, fields, partition=partition)
                n += 1
        return n
    db.load_many = load_many
    return db
