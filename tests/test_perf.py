"""Tests for the repro.perf harness: cycle-equivalence and the CLI.

The heavy guarantee — that the hot-path engine rewrite moved no
simulated event — is enforced here in-tree, so a timing regression in
``repro.sim.engine`` fails the unit suite, not just the perf job.
"""

import json

import pytest

from repro.perf import (
    GOLDEN_SMOKE,
    ReferenceEngine,
    equivalence_failures,
    run_equivalence,
    tpcc_scenario,
    ycsb_scenario,
)
from repro.perf import __main__ as perf_main
from repro.perf.__main__ import REGRESSION_FLOOR, check_regressions, main
from repro.sim import Engine


# -- cycle-equivalence -------------------------------------------------------

def test_fast_engine_matches_golden_and_reference():
    results = run_equivalence(scale=1)
    assert equivalence_failures(results) == []
    for name, entry in results.items():
        assert entry["match"], name
        assert entry["golden_match"], name


def test_golden_constants_are_pinned():
    # the checked-in anchors themselves must not drift silently
    assert GOLDEN_SMOKE["ycsb_smoke"]["events_fired"] == 15384
    assert GOLDEN_SMOKE["ycsb_smoke"]["now_ns"] == 187368.0
    assert GOLDEN_SMOKE["tpcc_smoke"]["events_fired"] == 33611
    assert GOLDEN_SMOKE["tpcc_smoke"]["now_ns"] == 530656.0
    assert GOLDEN_SMOKE["bptree_range_smoke"]["events_fired"] == 6019
    assert GOLDEN_SMOKE["bptree_range_smoke"]["now_ns"] == 423312.0


def test_scenarios_are_deterministic_across_runs():
    assert ycsb_scenario() == ycsb_scenario()
    assert tpcc_scenario(ReferenceEngine) == tpcc_scenario(ReferenceEngine)


def test_equivalence_failures_reports_divergence():
    results = run_equivalence(scale=1)
    broken = dict(results)
    entry = dict(broken["ycsb_smoke"])
    entry["match"] = False
    broken["ycsb_smoke"] = entry
    messages = equivalence_failures(broken)
    assert len(messages) == 1
    assert "ycsb_smoke" in messages[0]


# -- the reference engine is a faithful simulator in its own right -----------

def test_reference_engine_runs_basic_processes():
    eng = ReferenceEngine()
    log = []

    def proc():
        yield 10
        log.append(eng.now)
        value = yield eng.timeout(5, value="v")
        log.append((eng.now, value))

    eng.process(proc())
    eng.run()
    assert log == [10, (15, "v")]


def test_reference_engine_counts_like_fast_engine():
    def workload(eng):
        def proc():
            for _ in range(10):
                yield 1
        eng.process(proc())
        eng.run()
        return eng.events_fired, eng.now

    assert workload(Engine()) == workload(ReferenceEngine())


# -- regression checker ------------------------------------------------------

def _results(events=2.0, ycsb=1.5):
    return {
        "microbench": {"events": {"speedup_vs_reference": events}},
        "simspeed": {"ycsb_smoke": {"speedup_vs_reference": ycsb}},
    }


def test_check_regressions_passes_within_floor():
    assert check_regressions(_results(1.6, 1.2), _results(2.0, 1.5)) == []


def test_check_regressions_flags_big_drop():
    failures = check_regressions(_results(1.0, 1.5), _results(2.0, 1.5))
    assert len(failures) == 1
    assert "microbench.events" in failures[0]


def test_check_regressions_flags_missing_key():
    current = {"microbench": {}, "simspeed": {}}
    failures = check_regressions(current, _results())
    assert len(failures) == 2


# -- CLI ---------------------------------------------------------------------

@pytest.mark.slow
def test_cli_smoke_writes_bench_json(tmp_path):
    out = tmp_path / "bench.json"
    assert main(["--smoke", "--out", str(out), "--repeats", "2"]) == 0
    results = json.loads(out.read_text())
    assert results["schema"] == "repro.perf/v2"
    assert results["mode"] == "smoke"
    for section in ("equivalence", "microbench", "simspeed"):
        assert section in results
    assert results["microbench"]["events"]["speedup_vs_reference"] > 0
    assert "fig09_ycsb_smoke" in results["simspeed"]


def test_cli_check_gates_on_the_ratio_floor(tmp_path, monkeypatch, capsys):
    # fixed measurements: two live millisecond timings compared through
    # the 25% floor are one CPU hiccup away from a false alarm
    measured = {
        "microbench": {"events": {"rate_per_sec": 1e6,
                                  "speedup_vs_reference": 2.0}},
        "simspeed": {"ycsb_smoke": {"host_seconds": 0.1,
                                    "speedup_vs_reference": 1.5}},
    }
    monkeypatch.setattr(perf_main, "run_equivalence", lambda **_kw: {})
    monkeypatch.setattr(perf_main, "run_microbenchmarks",
                        lambda **_kw: measured["microbench"])
    monkeypatch.setattr(perf_main, "run_simspeed",
                        lambda **_kw: measured["simspeed"])

    def check(baseline):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps(baseline))
        return main(["--out", str(tmp_path / "out.json"),
                     "--check", str(path)])

    # a result is usable as its own baseline
    assert check(measured) == 0
    capsys.readouterr()
    # one ratio just under the floor fails the run and is named
    ratio = 2.0 / REGRESSION_FLOOR * 1.01
    assert check(_results(events=ratio, ycsb=1.5)) == 1
    err = capsys.readouterr().err
    assert "microbench.events.speedup_vs_reference" in err
    assert "simspeed" not in err
