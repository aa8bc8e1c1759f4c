"""Three-way index comparison + range-scan selectivity sweep.

These tests assert the extension's acceptance criteria, not just that
the curves render:

* point queries order hash > B+ tree > skiplist at saturation;
* range-scan throughput falls monotonically with span, and every scan
  matches the software B+ tree golden model (zero parity mismatches);
* level-wise wave batching charges DRAM for strictly fewer node
  fetches than one-key-at-a-time traversal at batch >= 8.
"""

from repro.bench.experiments import EXPERIMENTS, run


def test_index3_acceptance():
    point = run(EXPERIMENTS["ext-index3"], 240, (4, 16))
    by_label = {s.name: s.ys for s in point.series}
    sat = {label: ys[-1] for label, ys in by_label.items()}
    assert sat["Hash"] > sat["B+ tree"] > sat["Skiplist"]

    scan = run(EXPERIMENTS["ext-index3-scan"], 30, (10, 50, 200))
    by_label = {s.name: s.ys for s in scan.series}
    for kind in ("Skiplist RANGE_SCAN", "B+ tree RANGE_SCAN"):
        ys = by_label[kind]
        assert ys[0] > ys[1] > ys[2], f"{kind} not monotone in span: {ys}"
    assert all(v == 0 for v in by_label["Parity mismatches"]), (
        "hardware scans diverged from the software B+ tree golden model")


def test_wave_batching_reduces_dram_fetches():
    import random

    from repro.index.bptree.pipeline import BPTreePipeline
    from repro.index.common import DbRequest
    from repro.isa import Opcode
    from repro.sim import ClockDomain, DramModel, Engine, Heap

    def fetches(wave_size: int) -> int:
        engine = Engine()
        clock = ClockDomain(engine, 125.0)
        dram = DramModel(engine, clock, Heap(), latency_cycles=85, channels=8)
        pipe = BPTreePipeline(engine, clock, dram, "bp",
                              wave_size=wave_size, max_in_flight=64)
        for k in range(2000):
            pipe.bulk_load(k, [k])
        rng = random.Random(41)
        for i in range(128):
            pipe.submit(DbRequest(op=Opcode.SEARCH, table_id=0, ts=1,
                                  txn_id=i, key_value=rng.randrange(2000)))
        engine.run()
        return pipe.node_fetches.value

    assert fetches(8) < fetches(1)
