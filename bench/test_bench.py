"""The benchmark's own tests: ``python3 -m pytest bench -q``.

Workloads run in-process at a small size multiplier used only here.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from bench import run as cli  # noqa: E402
from bench.compare import compare_results, verdict  # noqa: E402
from bench.measure import run_point  # noqa: E402
from bench.metrics import (  # noqa: E402
    END_TO_END, PER_LAYER, WORKLOADS, kind_of, names,
)
from bench.points import POINTS  # noqa: E402

SCALE, SECONDS = 0.02, 3.0
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(name, seed=1, traced=False, trace_path=None, **overrides):
    point = POINTS[name](seed, SECONDS, SCALE)
    for attr, value in overrides.items():
        setattr(point, attr, value)
    return run_point(point, traced=traced, trace_path=trace_path)


def simulated(result):
    """Everything that must repeat exactly for a seed."""
    counts = {n: v for n, v in result["per_layer"].items()
              if kind_of(n) == "count"}
    sims = {n: v for n, v in result["end_to_end"].items()
            if n.startswith("sim_")}
    return counts, sims, result["sim_fingerprint"], result["attempted"]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_same_seed_same_simulation_other_seed_other(name):
    first, second, other = run(name, 1), run(name, 1), run(name, 2)
    assert first["correct"] and first["failed"] == 0, first["problems"]
    assert first["attempted"] >= 1
    assert simulated(first) == simulated(second)
    assert other["correct"], other["problems"]
    assert other["sim_fingerprint"] != first["sim_fingerprint"]


def test_bypass_sides_are_real():
    ycsb, ordered = run("ycsb_c_paper")["per_layer"], run("ordered_index")["per_layer"]
    assert ordered["index.hash.ops_per_txn"] == 0
    assert ordered["index.skiplist.host_us_per_op"] > 0
    assert ordered["index.bptree.node_fetches_per_op"] > 0
    assert ycsb["index.hash.ops_per_txn"] == 16
    assert ycsb["index.skiplist.run_s"] == ycsb["index.bptree.run_s"] == 0
    assert ycsb["frontend.host_us_per_req"] == 0


def test_declarations_match_benchmark_json():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert BENCHMARK["paths"] == ["bench"]
    assert [(w["name"], w["why"]) for w in BENCHMARK["workloads"]] == \
        list(WORKLOADS.items())
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in BENCHMARK["end_to_end"]] == \
        [row[:4] for row in END_TO_END]
    assert [(m["name"], m["unit"], m["better"])
            for m in BENCHMARK["per_layer"]] == \
        [row[:3] for row in PER_LAYER]
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])
    assert max(BENCHMARK["end_to_end"], key=lambda m: m["bound"])["name"] \
        == "setup_s"


@pytest.mark.parametrize("trace, declared", [(0, "end_to_end"),
                                             (1, "per_layer")])
def test_command_emits_exactly_the_declared_metrics(trace, declared, capsys):
    code = cli.main(["--workload", "serve_multisite", "--seed", "3",
                     "--seconds", str(SECONDS), "--scale", str(SCALE),
                     "--trace", str(trace)])
    last = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 0
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    want = {m["name"]: m["unit"] for m in BENCHMARK[declared]}
    assert {n: m["unit"] for n, m in last["metrics"].items()} == want
    assert all(isinstance(m["value"], (int, float))
               for m in last["metrics"].values())


@pytest.mark.parametrize("name", ["tpcc_np", "serve_multisite"])
def test_span_tree_and_trace_shares_are_well_formed(name, tmp_path):
    trace_path = tmp_path / "trace.json"
    result = run(name, traced=True, trace_path=trace_path)
    events = json.loads(trace_path.read_text())["traceEvents"]
    assert events[0]["name"] == "point"
    seen = {e["name"].partition("[")[0] for e in events}
    assert {"setup", "build", "define", "register", "load", "gen", "run",
            "burst", "new_block", "submit", "drain", "report", "check",
            "teardown"} <= seen
    slack = 1e-3    # µs: float rounding of the exported times
    for event in events:
        parent = event["args"]["parent"]
        if parent < 0:
            continue
        outer = events[parent]
        assert outer["ts"] - slack <= event["ts"]
        assert event["ts"] + event["dur"] <= outer["ts"] + outer["dur"] + slack
        if event["name"] in ("new_block", "submit", "drain", "report"):
            assert event["args"]["burst"] is not None
    assert all(own >= -1e-9 for own in result["self_times"].values())
    layers = result["per_layer"]
    for prefix in ("trace.share.", "trace.load_share."):
        shares = [v for n, v in layers.items() if n.startswith(prefix)]
        assert all(s >= 0 for s in shares)
        assert sum(shares) == pytest.approx(1.0, abs=0.01)
    assert set(layers) == set(names(PER_LAYER))


def test_wrong_expected_value_fails_the_check_and_raises_failed():
    good = run("ycsb_c_paper")
    bad = run("ycsb_c_paper", expected_payload="not what was loaded")
    assert good["correct"] and good["failed"] == 0
    assert not bad["correct"]
    assert bad["failed"] > good["failed"]
    assert bad["failed"] / bad["attempted"] > 0
    assert "read back" in bad["problems"][0]
    # and --compare refuses the pair
    lines, n_worse = compare_results(good, bad)
    assert n_worse >= 1 and any("failed share rose" in l for l in lines)


def test_compare_verdicts():
    assert verdict(10.0, 10.5, "lower", 0.10, 0.02) == "within bound"
    assert verdict(10.0, 11.5, "lower", 0.10, 0.02) == "worse"
    assert verdict(10.0, 8.0, "lower", 0.10, None) == "better"
    assert verdict(100.0, 80.0, "higher", 0.10, 0.0) == "worse"
    assert verdict(10.0, 11.5, "lower", 0.10, 0.30) == "unresolved"
    same = run("tpcc_np")
    lines, n_worse = compare_results(same, same)
    assert n_worse == 0 and "  simulated results identical" in lines


def test_no_result_without_a_program_to_measure(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "ROOT", tmp_path)
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["--workload", "tpcc_np", "--seconds", "1"])
    assert exit_info.value.code not in (0, None)
    assert capsys.readouterr().out == ""
