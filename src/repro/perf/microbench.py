"""Engine microbenchmarks: host throughput of the simulation primitives.

Three hot paths, reported as absolute rates (meaningful next to the
host metadata stamped into the same file, not across machines):

* ``events`` — bare event-loop turnaround: processes yielding numeric
  delays (events fired per host-second).
* ``port_roundtrips`` — dependent DRAM reads through a
  :class:`~repro.sim.memory.MemoryPort` (round-trips per host-second).
* ``channel_msgs`` — producer/consumer over a :class:`~repro.sim.sync.Fifo`
  (messages per host-second).

Wall-clock reads below are the *measurement* of host cost — they never
influence simulated behaviour, which is why the determinism-lint
pragmas are legitimate.

Timed regions run with the garbage collector quiesced
(:func:`quiesced_gc`, the same discipline as :mod:`timeit`): a cyclic
collection triggered by heap state accumulated *outside* the bench —
a long pytest session, a prior CLI invocation — would otherwise land
inside the timing window.
"""

from __future__ import annotations

import contextlib
import gc
import time
from typing import Callable, Dict

from ..sim.clock import ClockDomain
from ..sim.memory import DramModel, Heap
from ..sim.sync import Fifo
from ..sim.engine import Engine

__all__ = ["run_microbenchmarks", "quiesced_gc"]


@contextlib.contextmanager
def quiesced_gc():
    """Collect garbage now, then keep the collector off while timing."""
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _best_of(repeats: int, fn: Callable[[], Dict[str, float]]) -> Dict[str, float]:
    best = None
    for _ in range(max(1, repeats)):
        sample = fn()
        if best is None or sample["seconds"] < best["seconds"]:
            best = sample
    return best


def _bench_events(n_yields: int) -> Dict[str, float]:
    eng = Engine()

    def ticker(n):
        for _ in range(n):
            yield 1.0

    for _ in range(4):
        eng.process(ticker(n_yields // 4))
    with quiesced_gc():
        t0 = time.perf_counter()   # det: allow(wall-clock)
        eng.run()
        dt = time.perf_counter() - t0   # det: allow(wall-clock)
    return {"seconds": dt, "events": float(eng.events_fired),
            "rate": eng.events_fired / dt}


def _bench_port(n_reads: int) -> Dict[str, float]:
    eng = Engine()
    clock = ClockDomain(eng, 125.0, name="bench")
    heap = Heap()
    dram = DramModel(eng, clock, heap)
    port = dram.new_port("bench", max_outstanding=4)
    base = heap.alloc(64)

    def reader(n):
        for i in range(n):
            yield port.read(base + (i & 63))   # dependent round-trips

    eng.process(reader(n_reads))
    with quiesced_gc():
        t0 = time.perf_counter()   # det: allow(wall-clock)
        eng.run()
        dt = time.perf_counter() - t0   # det: allow(wall-clock)
    return {"seconds": dt, "events": float(eng.events_fired),
            "rate": n_reads / dt}


def _bench_channel(n_msgs: int) -> Dict[str, float]:
    eng = Engine()
    fifo = Fifo(eng, capacity=16, name="bench")

    def producer(n):
        for i in range(n):
            yield fifo.put(i)

    def consumer(n):
        for _ in range(n):
            yield fifo.get()

    eng.process(producer(n_msgs))
    eng.process(consumer(n_msgs))
    with quiesced_gc():
        t0 = time.perf_counter()   # det: allow(wall-clock)
        eng.run()
        dt = time.perf_counter() - t0   # det: allow(wall-clock)
    return {"seconds": dt, "events": float(eng.events_fired),
            "rate": n_msgs / dt}


def run_microbenchmarks(smoke: bool = False,
                        repeats: int = 3) -> Dict[str, Dict[str, object]]:
    """Time each primitive; report its rate and firing count."""
    sizes = {
        "events": 50_000 if smoke else 200_000,
        "port_roundtrips": 5_000 if smoke else 20_000,
        "channel_msgs": 12_500 if smoke else 50_000,
    }
    benches = {
        "events": _bench_events,
        "port_roundtrips": _bench_port,
        "channel_msgs": _bench_channel,
    }
    out: Dict[str, Dict[str, object]] = {}
    for name, bench in benches.items():
        n = sizes[name]
        best = _best_of(repeats, lambda: bench(n))
        out[name] = {
            "n": n,
            "rate_per_sec": best["rate"],
            "events_fired": best["events"],
        }
    return out
