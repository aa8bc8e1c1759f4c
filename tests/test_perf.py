"""The golden replay: a host-cost change moves no simulated observable
and adds no firings.

Every smoke scenario of ``tests/goldens.py`` runs here on each tier-1
pass, so a timing regression in ``repro.sim.engine`` fails the unit
suite.
"""

from goldens import (
    GOLDEN_SMOKE,
    OBSERVABLES,
    SCENARIOS,
    agrees,
    tpcc_scenario,
    ycsb_scenario,
)


def test_engine_matches_golden():
    assert set(SCENARIOS) == set(GOLDEN_SMOKE)
    for name, scenario in SCENARIOS.items():
        got = scenario()
        assert agrees(got, GOLDEN_SMOKE[name]), (name, got)


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
