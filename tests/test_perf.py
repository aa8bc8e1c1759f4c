"""Tests for the repro.perf harness: equivalence and the CLI.

The heavy guarantee — that a host-cost change moved no simulated
observable and added no firings — is enforced here in-tree, so a timing
regression in ``repro.sim.engine`` fails the unit suite, not just the
perf job.
"""

import json

import pytest

from repro.perf import (
    GOLDEN_SMOKE,
    OBSERVABLES,
    agrees,
    equivalence_failures,
    run_equivalence,
    tpcc_scenario,
    ycsb_scenario,
)
from repro.perf import __main__ as perf_main
from repro.perf.__main__ import check_regressions, main


# -- equivalence -------------------------------------------------------------

def test_engine_matches_golden():
    results = run_equivalence(scale=1)
    assert equivalence_failures(results) == []
    for name, entry in results.items():
        assert entry["golden_match"], name
        for key in OBSERVABLES:
            assert entry["fast"][key] == GOLDEN_SMOKE[name][key], (name, key)


def test_golden_constants_are_pinned():
    # the checked-in observables themselves must not drift silently
    # (events_fired is a ceiling, re-captured whenever it falls)
    assert GOLDEN_SMOKE["ycsb_smoke"]["now_ns"] == 235344.0
    assert GOLDEN_SMOKE["ycsb_smoke"]["commit_hash"].startswith("37be1a00")
    assert GOLDEN_SMOKE["tpcc_smoke"]["now_ns"] == 308504.0
    assert GOLDEN_SMOKE["tpcc_smoke"]["commit_hash"].startswith("5b38b2e8")
    assert GOLDEN_SMOKE["bptree_range_smoke"]["now_ns"] == 423312.0
    assert GOLDEN_SMOKE["bptree_range_smoke"]["commit_hash"].startswith(
        "a0aa2f66")


def test_agrees_pins_observables_and_caps_events():
    golden = GOLDEN_SMOKE["ycsb_smoke"]
    assert agrees(golden, golden)
    assert agrees({**golden, "events_fired": golden["events_fired"] - 1},
                  golden)
    assert not agrees({**golden, "events_fired": golden["events_fired"] + 1},
                      golden)
    for key in OBSERVABLES:
        assert not agrees({**golden, key: None}, golden), key


def test_scenarios_are_deterministic_across_runs():
    assert ycsb_scenario() == ycsb_scenario()
    assert tpcc_scenario() == tpcc_scenario()


def test_equivalence_failures_reports_divergence():
    results = run_equivalence(scale=1)
    broken = dict(results)
    entry = dict(broken["ycsb_smoke"])
    entry["golden_match"] = False
    broken["ycsb_smoke"] = entry
    messages = equivalence_failures(broken)
    assert len(messages) == 1
    assert "ycsb_smoke" in messages[0]


# -- baseline-file check -----------------------------------------------------

def _results(events=100, now_ns=5.0):
    fingerprint = {"events_fired": events, "now_ns": now_ns, "committed": 1,
                   "aborted": 0, "commit_hash": "h"}
    return {"equivalence": {"ycsb_smoke": {"fast": fingerprint}}}


def test_check_regressions_passes_under_the_event_ceiling():
    assert check_regressions(_results(100), _results(100)) == []
    assert check_regressions(_results(60), _results(100)) == []


def test_check_regressions_flags_moved_observable_and_extra_events():
    for current in (_results(now_ns=5.5), _results(events=101)):
        failures = check_regressions(current, _results())
        assert len(failures) == 1
        assert "ycsb_smoke" in failures[0]


def test_check_regressions_flags_missing_key():
    failures = check_regressions({"equivalence": {}}, _results())
    assert len(failures) == 1
    assert "not measured" in failures[0]


# -- CLI ---------------------------------------------------------------------

@pytest.mark.slow
def test_cli_smoke_writes_bench_json(tmp_path):
    out = tmp_path / "bench.json"
    assert main(["--smoke", "--out", str(out), "--repeats", "2"]) == 0
    results = json.loads(out.read_text())
    assert results["schema"] == "repro.perf/v3"
    assert results["mode"] == "smoke"
    for section in ("equivalence", "microbench", "simspeed"):
        assert section in results
    assert results["microbench"]["events"]["rate_per_sec"] > 0
    assert "fig09_ycsb_smoke" in results["simspeed"]


def test_cli_check_gates_on_the_baseline_fingerprints(tmp_path, monkeypatch,
                                                      capsys):
    measured = _results()
    monkeypatch.setattr(perf_main, "run_equivalence",
                        lambda **_kw: measured["equivalence"])
    monkeypatch.setattr(perf_main, "equivalence_failures", lambda _r: [])
    monkeypatch.setattr(perf_main, "run_microbenchmarks", lambda **_kw: {})
    monkeypatch.setattr(perf_main, "run_simspeed", lambda **_kw: {})

    def check(baseline):
        # the baseline is read before --out, the same file, replaces it
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(baseline))
        return main(["--out", str(path), "--check", str(path)])

    # a result is usable as its own baseline
    assert check(measured) == 0
    capsys.readouterr()
    # firing more events than the baseline did fails the run, by name
    assert check(_results(events=99)) == 1
    assert "ycsb_smoke" in capsys.readouterr().err
