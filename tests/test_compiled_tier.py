"""Tests for the compiled execution tier and the paper-scale sweep runner.

The tier's contract (see ``repro.softcore.compiled``) is enforced here
at unit-suite speed: a fingerprint bit-identical to the checked-in
goldens and to the interpreter on every field, ``events_fired``
included, whatever index kind the table uses; interpreter fallback
whenever tracing is on or the specializer declines a section; and a
bulk-load fast path whose heap image is cell-for-cell identical to
per-row loading.
"""

import gc
import json

import pytest

from repro.core import BionicConfig, BionicDB
from repro.isa.builder import ProcedureBuilder
from repro.mem.schema import IndexKind, SchemaError, TableSchema
from repro.perf import (
    GOLDEN_SMOKE,
    POINTS,
    SCENARIOS,
    bptree_scenario,
    equivalence_failures,
    run_equivalence,
    run_point,
    run_sweep,
    tpcc_scenario,
    ycsb_scenario,
)
from repro.perf.__main__ import main
from repro.perf.sweep import _merge_into, _point_seed, sweep_main
from repro.sim.trace import Tracer
from repro.softcore import SoftcoreConfig
from repro.softcore.compiled import CompiledTier, compile_procedure
from repro.workloads import (
    TpccConfig, TpccWorkload, YcsbConfig, YcsbWorkload,
)
from repro.workloads.ycsb import YCSB_TABLE

COMPILED = SoftcoreConfig(compiled=True)

_SCENARIO_FNS = {
    "ycsb_smoke": ycsb_scenario,
    "tpcc_smoke": tpcc_scenario,
    "bptree_range_smoke": bptree_scenario,
}


# -- compiled tier vs the checked-in goldens ---------------------------------

@pytest.mark.parametrize("name", list(GOLDEN_SMOKE))
def test_compiled_tier_matches_goldens(name):
    assert _SCENARIO_FNS[name](None, 1, COMPILED) == GOLDEN_SMOKE[name], name


def test_run_equivalence_includes_compiled_tier():
    results = run_equivalence(scale=1, scenarios=["ycsb_smoke"])
    entry = results["ycsb_smoke"]
    assert entry["compiled_match"]
    assert entry["compiled"] == entry["fast"]


def test_equivalence_failures_reports_compiled_divergence():
    results = run_equivalence(scale=1, scenarios=["ycsb_smoke"])
    broken = dict(results)
    entry = dict(broken["ycsb_smoke"])
    entry["compiled_match"] = False
    broken["ycsb_smoke"] = entry
    messages = equivalence_failures(broken)
    assert len(messages) == 1
    assert "compiled tier" in messages[0]


# -- fallback ----------------------------------------------------------------

def _tiny_ycsb(softcore=None, tracer=None, index_kind=IndexKind.HASH):
    wl = YcsbWorkload(YcsbConfig(records_per_partition=200, n_partitions=2,
                                 reads_per_txn=2, seed=5,
                                 index_kind=index_kind))
    db = BionicDB(BionicConfig(n_workers=2, tracer=tracer,
                               softcore=softcore or SoftcoreConfig()))
    wl.install(db)
    specs = wl.make_read_txns(6) + wl.make_rmw_txns(3)
    report, blocks = wl.submit_all(db, specs)
    from repro.perf.equivalence import _fingerprint
    return db, _fingerprint(db, report, blocks)


def test_tracer_forces_interpreter_with_identical_timing():
    _db, interp = _tiny_ycsb()
    _db, compiled = _tiny_ycsb(softcore=COMPILED)
    tracer = Tracer(categories={"softcore"})
    _db, traced = _tiny_ycsb(softcore=COMPILED, tracer=tracer)
    # per-instruction trace lines only exist in the interpreter, so
    # their presence proves the fallback actually ran
    assert tracer.events, "tracing under compiled=True emitted no lines"
    assert traced == interp
    assert compiled == interp


@pytest.mark.parametrize("index_kind", [IndexKind.HASH, IndexKind.SKIPLIST,
                                        IndexKind.BPTREE])
def test_compiled_matches_interpreter_on_every_index_kind(index_kind):
    _db, interp = _tiny_ycsb(index_kind=index_kind)
    _db, compiled = _tiny_ycsb(softcore=COMPILED, index_kind=index_kind)
    assert compiled == interp


def test_compiled_tier_caches_per_catalogue():
    db = BionicDB(BionicConfig(n_workers=2, softcore=COMPILED))
    wl = YcsbWorkload(YcsbConfig(records_per_partition=100, n_partitions=2,
                                 reads_per_txn=2, seed=3))
    wl.install(db)
    tiers = [w.softcore._compiled for w in db.workers]
    assert all(isinstance(t, CompiledTier) for t in tiers)
    from repro.workloads.ycsb import PROC_READ_BASE
    cp = tiers[0].compiled(db.catalogue.lookup(PROC_READ_BASE + 2))
    assert cp.fully_compiled, cp.declined
    # every worker shares the catalogue-level cache: compiling on one
    # softcore makes the form visible to all
    assert tiers[0]._cache is tiers[1]._cache


def test_specializer_declines_unknown_table():
    db = BionicDB(BionicConfig(n_workers=1, softcore=COMPILED))
    b = ProcedureBuilder("touches_missing_table")
    b.search(cp=0, table=999, key=b.at(0))
    b.commit_handler()
    b.commit()
    db.register_procedure(7, b.build(), verify=False)
    sc = db.workers[0].softcore
    cp = compile_procedure(sc, db.catalogue.lookup(7))
    assert not cp.fully_compiled
    assert any("unknown table" in why for why in cp.declined.values())


# -- bulk-load fast path -----------------------------------------------------

def _heap_image(db):
    return db.heap.allocated_cells, [(addr, repr(cell))
                                     for addr, cell in db.heap.items()]


def _per_row(db):
    """Make ``db.load_many`` the row-at-a-time loop it must agree with."""
    db.load_many = lambda rows: [db.load(*row) for row in rows]
    return db


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


@pytest.mark.parametrize("build", [
    _ycsb_db(IndexKind.HASH), _ycsb_db(IndexKind.SKIPLIST),
    _ycsb_db(IndexKind.BPTREE), _tpcc_db, _mixed_db,
], ids=["ycsb-hash", "ycsb-skiplist", "ycsb-bptree", "tpcc", "mixed"])
def test_load_many_heap_image_matches_per_row_load(build):
    fast_cells, fast = _heap_image(build(per_row=False))
    slow_cells, slow = _heap_image(build(per_row=True))
    assert fast_cells == slow_cells
    assert len(fast) == len(slow)
    for got, want in zip(fast, slow):
        assert got == want


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
    # layout pin: a record and its field list, nothing else tracked
    # per row (no instance __dict__, no per-row key/bucket container)
    db = _small_ycsb_db()
    rows = [(YCSB_TABLE, key, ["v"]) for key in range(2000)]
    gc.collect()
    before = len(gc.get_objects())
    db.load_many(rows)
    assert len(gc.get_objects()) - before <= 2 * len(rows)


# -- sweep runner ------------------------------------------------------------

TINY_POINTS = {
    "tiny_ycsb": {
        "workload": "ycsb", "n_workers": 2, "records_per_partition": 200,
        "reads_per_txn": 2, "n_txns": 8, "compiled": True,
    },
    "tiny_ycsb_interp": {
        "workload": "ycsb", "n_workers": 2, "records_per_partition": 200,
        "reads_per_txn": 2, "n_txns": 8, "compiled": False,
        "seed_name": "tiny_ycsb",
    },
}


def _install_tiny_points(monkeypatch):
    for name, params in TINY_POINTS.items():
        monkeypatch.setitem(POINTS, name, params)


def test_point_seed_is_stable():
    assert _point_seed("ycsb_paper_300k") == _point_seed("ycsb_paper_300k")
    assert _point_seed("a") != _point_seed("b")
    assert 0 <= _point_seed("anything") < 1_000_000


def test_registry_twins_share_a_seed():
    assert POINTS["ycsb_paper_300k_interp"]["seed_name"] == "ycsb_paper_300k"


def test_run_point_fingerprints_both_tiers_identically(monkeypatch):
    _install_tiny_points(monkeypatch)
    compiled = run_point("tiny_ycsb")
    interp = run_point("tiny_ycsb_interp")
    assert compiled["seed"] == interp["seed"]
    for key in GOLDEN_SMOKE["ycsb_smoke"]:
        assert compiled[key] == interp[key], key
    assert compiled["throughput_tps"] == interp["throughput_tps"]
    assert compiled["host_seconds"] > 0
    assert compiled["peak_rss_mb"] > 0


def test_run_sweep_rejects_unknown_points():
    with pytest.raises(KeyError):
        run_sweep(["no_such_point"])


def test_run_sweep_serial_keeps_registry_order(monkeypatch):
    _install_tiny_points(monkeypatch)
    results = run_sweep(["tiny_ycsb_interp", "tiny_ycsb"], jobs=1)
    assert list(results) == ["tiny_ycsb_interp", "tiny_ycsb"]
    assert results["tiny_ycsb"]["point"] == "tiny_ycsb"


def test_merge_into_preserves_other_sections(tmp_path):
    out = tmp_path / "bench.json"
    out.write_text(json.dumps({"schema": "repro.perf/v2",
                               "simspeed": {"x": 1}}))
    _merge_into(str(out), {"p": {"now_ns": 1.0}})
    data = json.loads(out.read_text())
    assert data["simspeed"] == {"x": 1}
    assert data["sweep"]["p"]["now_ns"] == 1.0
    assert "cpu_count" in data["sweep_meta"]
    # a second merge updates in place without dropping earlier points
    _merge_into(str(out), {"q": {"now_ns": 2.0}})
    data = json.loads(out.read_text())
    assert set(data["sweep"]) == {"p", "q"}


def test_sweep_main_list_exits_clean(capsys):
    assert sweep_main(["--list"]) == 0
    printed = capsys.readouterr().out
    for name in POINTS:
        assert name in printed


def test_sweep_main_records_tier_speedups(monkeypatch, tmp_path, capsys):
    _install_tiny_points(monkeypatch)
    out = tmp_path / "bench.json"
    # jobs=1: the monkeypatched registry does not exist in pool workers
    rc = sweep_main(["--points", "tiny_ycsb,tiny_ycsb_interp",
                     "--jobs", "1", "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    entry = data["sweep"]["tiny_ycsb"]
    assert entry["speedup_vs_interpreted"] > 0
    assert entry["run_speedup_vs_interpreted"] > 0
    assert entry["commit_hash"] == data["sweep"]["tiny_ycsb_interp"]["commit_hash"]


# -- CLI filters -------------------------------------------------------------

def test_cli_list_prints_scenarios(capsys):
    assert main(["--list"]) == 0
    printed = capsys.readouterr().out.split()
    assert set(SCENARIOS) <= set(printed)


def test_cli_rejects_unknown_scenario(capsys):
    with pytest.raises(SystemExit):
        main(["--scenario", "nope"])


def test_cli_sweep_subcommand_routes(capsys):
    assert main(["sweep", "--list"]) == 0
    assert "ycsb_paper_300k" in capsys.readouterr().out
