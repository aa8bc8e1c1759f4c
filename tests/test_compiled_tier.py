"""Tests for the compiled execution tier and the paper-scale sweep runner.

The tier's contract (see ``repro.softcore.compiled``) is enforced here
at unit-suite speed: a fingerprint bit-identical to the checked-in
goldens and to the interpreter on every field, ``events_fired``
included, whatever index kind the table uses; interpreter fallback
whenever tracing is on or the specializer declines a section; and a
bulk-load fast path whose heap image is cell-for-cell identical to
per-row loading.
"""

import json

import pytest

from repro.core import BionicConfig, BionicDB
from repro.isa.builder import ProcedureBuilder
from repro.mem.schema import IndexKind
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
from repro.workloads import YcsbConfig, YcsbWorkload
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

def test_load_many_heap_image_matches_per_row_load():
    cfg = YcsbConfig(records_per_partition=400, n_partitions=2,
                     reads_per_txn=2, seed=9)

    def build(per_row):
        wl = YcsbWorkload(cfg)
        db = BionicDB(BionicConfig(n_workers=2))
        wl.install(db, load_data=not per_row)
        if per_row:
            for key in range(cfg.total_records):
                db.load(YCSB_TABLE, key, [cfg.payload])
        return db

    fast, slow = build(False), build(True)
    assert fast.heap._next == slow.heap._next
    assert set(fast.heap._cells) == set(slow.heap._cells)
    for addr, cell in fast.heap._cells.items():
        assert repr(cell) == repr(slow.heap._cells[addr]), addr


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
