"""Tests for the softcore's generated-code executor, the bulk loader
and the paper-scale sweep runner.

The executor's contract (see ``repro.softcore.compiled``) is enforced
here at unit-suite speed: simulated observables equal to values captured
from the instruction interpreter it replaced (event counts no higher) —
static on every index kind, under dynamic scheduling, and as a trace
digest — one compilation per catalogue, and malformed programs failing where the interpreter
failed; and a bulk-load fast path whose heap image is cell-for-cell
identical to per-row loading.
"""

import gc
import hashlib
import json
import random

import pytest

from repro.core import BionicConfig, BionicDB
from repro.isa.builder import ProcedureBuilder
from repro.isa.instructions import Gp, Section
from repro.mem.schema import IndexKind, SchemaError, TableSchema
from repro.perf import POINTS, run_point, run_sweep
from repro.perf.__main__ import main
from repro.perf.sweep import _fingerprint, _merge_into, _point_seed
from repro.sim.trace import Tracer
from repro.softcore import SoftcoreConfig
from repro.workloads import (
    TpccConfig, TpccWorkload, YcsbConfig, YcsbWorkload,
)
from repro.workloads.ycsb import PROC_READ_BASE, YCSB_TABLE

from conftest import heap_image, per_row as _per_row
from goldens import (
    GOLDEN_MODES, GOLDEN_SMOKE, OBSERVABLES, agrees, ycsb_scenario,
)


# -- the interpreter's behaviour, kept as data -------------------------------

def test_dynamic_scheduling_matches_the_interpreter():
    got = ycsb_scenario(softcore=SoftcoreConfig(dynamic_scheduling=True))
    assert agrees(got, GOLDEN_MODES["dynamic"]), got


def test_traced_run_matches_the_interpreter_line_for_line():
    tracer = Tracer(categories={"softcore", "txn"})
    traced = ycsb_scenario(tracer=tracer)
    assert not tracer.dropped
    digest = hashlib.sha256(tracer.format().encode()).hexdigest()
    assert digest == GOLDEN_MODES["trace_sha256"]
    # observing the run changes nothing it simulates
    assert agrees(traced, GOLDEN_SMOKE["ycsb_smoke"]), traced
    untraced = ycsb_scenario()
    assert [traced[key] for key in OBSERVABLES] == [
        untraced[key] for key in OBSERVABLES]


#: _tiny_ycsb() per index kind: (events_fired ceiling, now_ns,
#: commit_hash).  The hash entry's observables are the interpreter's.
#: The skiplist and B+ tree entries were re-captured once, when memory
#: completions began resuming their waiter inside the completion firing
#: (no relay item): a process woken by a completion now issues its next
#: read ahead of other work queued for the same instant, which re-breaks
#: same-instant DRAM channel ties — skiplist now_ns 49408 -> 49480
#: (+0.15 %), B+ tree now_ns unchanged, two of nine completion times
#: +8 ns.
GOLDEN_TINY = {
    IndexKind.HASH: (416, 13192.0,
                     "e59bf3befe55ca6a7c449b312c3e063c"
                     "924a916dfb044f053ea0d639046bdc69"),
    IndexKind.SKIPLIST: (1249, 49480.0,
                         "6dce08b5f379555c1d66d3a82b4f7b6e"
                         "9364b6efe65ea0240ce168398d216d56"),
    IndexKind.BPTREE: (457, 18712.0,
                       "d91cdf4122080216e4fd54c22332fd1c"
                       "91968414ce728f4f4d99b729cdc9fb0a"),
}


def _tiny_ycsb(index_kind=IndexKind.HASH):
    wl = YcsbWorkload(YcsbConfig(records_per_partition=200, n_partitions=2,
                                 reads_per_txn=2, seed=5,
                                 index_kind=index_kind))
    db = BionicDB(BionicConfig(n_workers=2))
    wl.install(db)
    specs = wl.make_read_txns(6) + wl.make_rmw_txns(3)
    report, blocks = wl.submit_all(db, specs)
    return db, _fingerprint(db, report, blocks)


@pytest.mark.parametrize("index_kind", list(GOLDEN_TINY))
def test_fingerprint_on_every_index_kind(index_kind):
    _db, got = _tiny_ycsb(index_kind)
    events, now_ns, commit_hash = GOLDEN_TINY[index_kind]
    assert agrees(got, {"events_fired": events, "now_ns": now_ns,
                        "committed": 9, "aborted": 0,
                        "commit_hash": commit_hash}), got


# -- one compilation per catalogue -------------------------------------------

def test_generated_code_is_shared_through_the_catalogue():
    db, _fp = _tiny_ycsb()
    tiers = [w.softcore._code for w in db.workers]
    assert tiers[0]._cache is tiers[1]._cache is db.catalogue.compiled
    entry = db.catalogue.lookup(PROC_READ_BASE + 2)
    units = tiers[0].units(entry, Section.LOGIC)
    # compiled once by whichever worker ran it first, visible to all
    assert tiers[1].units(entry, Section.LOGIC) is units


def test_reregistration_invalidates_generated_code():
    db = BionicDB(BionicConfig(n_workers=1))
    db.define_table(TableSchema(0, "kv", IndexKind.HASH, hash_buckets=16))

    def run(value):
        b = ProcedureBuilder("const")
        b.mov(0, value)
        b.store(Gp(0), b.at(0))
        db.register_procedure(1, b.build())
        block = db.new_block(1, [None], worker=0)
        db.submit(block, 0)
        db.run()
        return block.input_cell(0)

    assert run(1) == 1
    assert run(2) == 2      # the replaced procedure's code, not a stale hit


def test_unknown_table_fails_when_the_instruction_is_reached():
    db = BionicDB(BionicConfig(n_workers=1))
    b = ProcedureBuilder("touches_missing_table")
    b.search(cp=0, table=999, key=b.at(0))
    b.commit_handler()
    b.commit()
    db.register_procedure(7, b.build(), verify=False)
    # db.submit() would refuse the block; go past the admission check
    db.workers[0].softcore.submit(db.new_block(7, [1], worker=0))
    with pytest.raises(SchemaError, match="unknown table id 999"):
        db.run()
    # the Prepare step was charged before the lookup failed
    assert db.stats.counter("worker0.instructions").value == 1
    assert db.stats.counter("worker0.db_instructions").value == 0


# -- bulk-load fast path -----------------------------------------------------

def _heap_image(db):
    return heap_image(db.heap)


def _ycsb_db(index_kind):
    def build(per_row):
        db = BionicDB(BionicConfig(n_workers=2))
        YcsbWorkload(YcsbConfig(records_per_partition=400, n_partitions=2,
                                reads_per_txn=2, seed=9,
                                index_kind=index_kind)
                     ).install(_per_row(db) if per_row else db)
        return db
    return build


def _tpcc_db(per_row):
    # ITEM is replicated: its rows interleave one cell per worker
    db = BionicDB(BionicConfig(n_workers=2))
    TpccWorkload(TpccConfig(n_partitions=2, districts_per_warehouse=2,
                            customers_per_district=20, items=50)
                 ).install(_per_row(db) if per_row else db)
    return db


def _mixed_db(per_row):
    """Replicated hash, skiplist and B+ tree tables next to partitioned
    ones, and table ids that change mid-stream and come back."""
    db = BionicDB(BionicConfig(n_workers=3))
    db.define_table(TableSchema(0, "h", IndexKind.HASH, hash_buckets=16))
    db.define_table(TableSchema(1, "hr", IndexKind.HASH, hash_buckets=16,
                                replicated=True))
    db.define_table(TableSchema(2, "sr", IndexKind.SKIPLIST, replicated=True))
    db.define_table(TableSchema(3, "br", IndexKind.BPTREE, replicated=True))
    db.define_table(TableSchema(4, "b", IndexKind.BPTREE))
    rows = [(t, key, [f"{t}.{key}", key])
            for lo in (0, 60) for t in (1, 0, 3, 2, 4, 1)
            for key in range(lo + 10 * t, lo + 10 * t + 60)
            if not (t == 1 and lo == 60)]
    (_per_row(db) if per_row else db).load_many(iter(rows))
    return db


ORDERED = {"skiplist": IndexKind.SKIPLIST, "bptree": IndexKind.BPTREE}


def _ordered_db(index_kind, *batches, bury=()):
    """One partition, one ordered table, one ``load_many`` per batch, so
    each batch reaches the pipeline's loader whole.  Keys in ``bury``
    become committed tombstones once the first batch is in."""
    def build(per_row):
        db = BionicDB(BionicConfig(n_workers=1))
        db.define_table(TableSchema(0, "t", index_kind))
        if per_row:
            _per_row(db)
        for n, batch in enumerate(batches):
            db.load_many([(0, key, [key]) for key in batch])
            if n == 0:
                for key in bury:
                    db.workers[0].pipeline_for(0).lookup_direct(
                        key).tombstone = True
        return db
    return build


#: key streams the ascending YCSB load never produces; what a loader
#: that carries state from one row to the next could get wrong
STREAMS = {
    "descending": (range(300, 0, -1),),
    "shuffled": (random.Random(5).sample(range(1000), 300),),
    # four ascending runs in one batch, each threading the earlier ones
    "sawtooth": ([key for lane in range(4) for key in range(lane, 400, 4)],),
    # a second batch whose keys fall between those already loaded:
    # one per gap, then one per seventy gaps
    "interleaved": (range(0, 600, 2), range(1, 600, 2)),
    "sparse": (range(0, 3000, 3), range(1, 3000, 210)),
}


@pytest.mark.parametrize("build", [
    _ycsb_db(IndexKind.HASH), _ycsb_db(IndexKind.SKIPLIST),
    _ycsb_db(IndexKind.BPTREE), _tpcc_db, _mixed_db,
    *(_ordered_db(index_kind, *batches)
      for index_kind in ORDERED.values() for batches in STREAMS.values()),
    _ordered_db(IndexKind.BPTREE, range(0, 200, 2),
                sorted([*range(51, 150, 2), 60, 98, 120]), bury=(60, 98, 120)),
], ids=["ycsb-hash", "ycsb-skiplist", "ycsb-bptree", "tpcc", "mixed",
        *(f"{kind}-{stream}" for kind in ORDERED for stream in STREAMS),
        "bptree-tombstones"])
def test_load_many_heap_image_matches_per_row_load(build):
    fast_cells, fast = _heap_image(build(per_row=False))
    slow_cells, slow = _heap_image(build(per_row=True))
    assert fast_cells == slow_cells
    assert len(fast) == len(slow)
    for got, want in zip(fast, slow):
        assert got == want


@pytest.mark.parametrize("index_kind", ORDERED.values(), ids=ORDERED)
def test_duplicate_mid_batch_stops_where_per_row_load_stops(index_kind):
    keys = [*range(100), 50, *range(100, 150)]
    outcomes = []
    for per_row in (False, True):
        db = _ordered_db(index_kind)(per_row)
        with pytest.raises(ValueError, match="duplicate key in bulk load: 50"):
            db.load_many([(0, key, [key]) for key in keys])
        pipe = db.workers[0].pipeline_for(0)
        installed = (pipe.tower_count if index_kind == IndexKind.SKIPLIST
                     else pipe.tuple_count)
        assert installed == 100
        outcomes.append(_heap_image(db))
    assert outcomes[0] == outcomes[1]


def _small_ycsb_db():
    db = BionicDB(BionicConfig(n_workers=2))
    YcsbWorkload(YcsbConfig(records_per_partition=1000, n_partitions=2,
                            reads_per_txn=2, seed=9)
                 ).install(db, load_data=False)
    return db


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("bad_row", [False, True])
def test_load_many_leaves_the_collector_as_it_found_it(enabled, bad_row):
    db = _small_ycsb_db()
    rows = [(YCSB_TABLE, key, ["v"]) for key in range(50)]
    if bad_row:
        rows.insert(25, (999, 0, ["no such table"]))
    was_enabled = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        if bad_row:
            with pytest.raises(SchemaError):
                db.load_many(rows)
        else:
            assert db.load_many(rows) == 50
        assert gc.isenabled() is enabled
    finally:
        gc.enable() if was_enabled else gc.disable()


def test_loaded_row_costs_the_collector_at_most_two_objects():
    # layout pin, and the deterministic guard against load bloat: a
    # hash batch is columns (repro.sim.memory.ColdRows), so what a load
    # adds for the collector to walk is a constant per batch — one
    # batch per partition here — whatever the number of rows
    added = {}
    for n_rows in (2000, 8000):
        db = _small_ycsb_db()
        rows = [(YCSB_TABLE, key, ["v"]) for key in range(n_rows)]
        gc.collect()
        before = len(gc.get_objects())
        db.load_many(rows)
        added[n_rows] = len(gc.get_objects()) - before
    assert added[2000] == added[8000] <= 8 * db.config.n_workers


# -- sweep runner ------------------------------------------------------------

TINY_POINTS = {
    "tiny_ycsb": {
        "workload": "ycsb", "n_workers": 2, "records_per_partition": 200,
        "reads_per_txn": 2, "n_txns": 8,
    },
    "tiny_ycsb_b": {
        "workload": "ycsb", "n_workers": 2, "records_per_partition": 200,
        "reads_per_txn": 2, "n_txns": 8,
    },
}


def _install_tiny_points(monkeypatch):
    for name, params in TINY_POINTS.items():
        monkeypatch.setitem(POINTS, name, params)


def test_point_seed_is_stable():
    assert _point_seed("ycsb_paper_300k") == _point_seed("ycsb_paper_300k")
    assert _point_seed("a") != _point_seed("b")
    assert 0 <= _point_seed("anything") < 1_000_000


def test_run_point_is_seeded_by_name_and_fingerprinted(monkeypatch):
    _install_tiny_points(monkeypatch)
    first = run_point("tiny_ycsb")
    again = run_point("tiny_ycsb")
    other = run_point("tiny_ycsb_b")
    assert first["seed"] == again["seed"] != other["seed"]
    for key in OBSERVABLES:
        assert first[key] == again[key], key
    assert first["commit_hash"] != other["commit_hash"]
    assert first["host_seconds"] > 0
    assert first["peak_rss_mb"] > 0


def test_run_point_honours_index_kind_and_op(monkeypatch):
    monkeypatch.setitem(POINTS, "tiny_scan", {
        "workload": "ycsb", "n_workers": 2, "records_per_partition": 200,
        "index_kind": "skiplist", "op": "scan", "n_txns": 8})
    got = run_point("tiny_scan")
    db = BionicDB(BionicConfig(n_workers=2))
    workload = YcsbWorkload(YcsbConfig(
        records_per_partition=200, n_partitions=2,
        index_kind=IndexKind.SKIPLIST, seed=_point_seed("tiny_scan")))
    workload.install(db)
    report, blocks = workload.submit_all(db, workload.make_scan_txns(8))
    want = _fingerprint(db, report, blocks)
    assert got["committed"] == 8
    for key in OBSERVABLES:
        assert got[key] == want[key], key


def test_run_sweep_rejects_unknown_points():
    with pytest.raises(KeyError):
        run_sweep(["no_such_point"])


def test_run_sweep_serial_keeps_registry_order(monkeypatch):
    _install_tiny_points(monkeypatch)
    results = run_sweep(["tiny_ycsb_b", "tiny_ycsb"], jobs=1)
    assert list(results) == ["tiny_ycsb_b", "tiny_ycsb"]
    assert results["tiny_ycsb"]["point"] == "tiny_ycsb"


def test_run_sweep_records_each_points_own_peak(monkeypatch):
    # a fat point then a tiny one through one job: the tiny point's
    # peak must be its own, not the high-water mark the fat one left
    _install_tiny_points(monkeypatch)
    monkeypatch.setitem(POINTS, "fat_ycsb", dict(
        TINY_POINTS["tiny_ycsb"], records_per_partition=50_000))
    results = run_sweep(["fat_ycsb", "tiny_ycsb"], jobs=1)
    assert results["tiny_ycsb"]["peak_rss_mb"] \
        < results["fat_ycsb"]["peak_rss_mb"]


def test_merge_into_preserves_other_sections(tmp_path):
    out = tmp_path / "bench.json"
    out.write_text(json.dumps({"notes": {"x": 1}}))
    _merge_into(str(out), {"p": {"now_ns": 1.0}})
    data = json.loads(out.read_text())
    assert data["notes"] == {"x": 1}
    assert data["sweep"]["p"]["now_ns"] == 1.0
    assert "cpu_count" in data["sweep_meta"]
    # a second merge updates in place without dropping earlier points
    _merge_into(str(out), {"q": {"now_ns": 2.0}})
    data = json.loads(out.read_text())
    assert set(data["sweep"]) == {"p", "q"}


def test_sweep_main_list_exits_clean(capsys):
    assert main(["--list"]) == 0
    printed = capsys.readouterr().out
    for name in POINTS:
        assert name in printed


def test_sweep_main_merges_points(monkeypatch, tmp_path, capsys):
    _install_tiny_points(monkeypatch)
    out = tmp_path / "bench.json"
    # jobs=1: one pool child at a time; the pool's initializer hands
    # each the monkeypatched registry
    rc = main(["--points", "tiny_ycsb,tiny_ycsb_b",
               "--jobs", "1", "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert set(data["sweep"]) == {"tiny_ycsb", "tiny_ycsb_b"}
    assert data["sweep"]["tiny_ycsb"]["throughput_tps"] > 0

