"""Drains run with the cyclic collector off (``Engine.run``).

That is sound only while a drain leaves nothing for the collector to
find — everything a run allocates dies by reference count — so the
measurement the design rests on is held here as a test, next to the
guarantee that ``run()`` hands the collector back as it found it.
"""

import gc

import pytest

from repro.core import BionicConfig, BionicDB
from repro.frontend import FrontEnd, SessionConfig
from repro.isa import ProcedureBuilder
from repro.mem.schema import SchemaError
from repro.sim import Engine, SimulationError
from repro.workloads.ycsb import YcsbConfig, YcsbWorkload

from goldens import SETUPS


def _frontend_setup():
    """An open-loop front-end session of YCSB reads, half of them
    homed away from their first key."""
    wl = YcsbWorkload(YcsbConfig(records_per_partition=500, n_partitions=2,
                                 reads_per_txn=4, seed=5))
    db = BionicDB(BionicConfig(n_workers=2))
    wl.install(db)
    specs = wl.make_read_txns(60)
    fe = FrontEnd(db)

    def factory(i):
        spec = specs[i]
        home = (spec.home + i) % 2
        return db.new_block(spec.proc_id, list(spec.inputs),
                            layout=wl.layout_for(spec), worker=home), home

    fe.session(factory, SessionConfig(name="s", arrival="open",
                                      rate_tps=400_000.0,
                                      n_requests=len(specs), seed=1))

    def run():
        report = fe.run()
        assert report.conserved and report.committed == len(specs)

    return db, run


@pytest.mark.parametrize("setup", [*SETUPS.values(), _frontend_setup],
                         ids=[*SETUPS, "frontend_smoke"])
def test_a_drain_leaves_the_collector_nothing_to_find(setup):
    db, run = setup()
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        run()
        assert db.engine.events_fired > 1000
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()


def _one_read_db():
    wl = YcsbWorkload(YcsbConfig(records_per_partition=50, n_partitions=1,
                                 reads_per_txn=2, seed=3))
    db = BionicDB(BionicConfig(n_workers=1))
    wl.install(db)
    return db, wl


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("raises", [False, True])
def test_run_leaves_the_collector_as_it_found_it(enabled, raises):
    db, wl = _one_read_db()
    seen = []
    if raises:
        # a procedure naming a table nobody defined dies inside the drain
        b = ProcedureBuilder("bad-table")
        b.search(cp=0, table=999, key=b.at(0))
        b.commit_handler()
        b.ret(0, 0)
        b.commit()
        db.register_procedure(77, b.build(), verify=False)
        db.workers[0].softcore.submit(db.new_block(77, [1], worker=0))
    else:
        spec = wl.make_read_txns(1)[0]
        db.submit(db.new_block(spec.proc_id, list(spec.inputs),
                               layout=wl.layout_for(spec), worker=0))
    db.engine.call_after(1.0, lambda: seen.append(gc.isenabled()))
    was_enabled = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        if raises:
            with pytest.raises(SchemaError):
                db.run()
        else:
            db.run()
        assert gc.isenabled() is enabled
        assert seen == [False]        # off while the loop ran
    finally:
        gc.enable() if was_enabled else gc.disable()


def test_every_exit_of_the_engine_loop_restores_the_collector():
    # until=, the max_events= watchdog, the watched loop draining and
    # the run-to-idle loop draining leave through different branches
    assert gc.isenabled()
    engine = Engine()
    seen = []
    for t in range(1, 8):
        engine.call_at(float(t), lambda: seen.append(gc.isenabled()))
    engine.run(until=1.5)
    assert gc.isenabled()
    with pytest.raises(SimulationError, match="watchdog"):
        engine.run(max_events=2)        # trips after t=2 and t=3
    assert gc.isenabled() and engine.now == 3.0
    engine.run(max_events=10)           # the watched loop drains
    assert gc.isenabled() and engine.now == 7.0
    engine.call_at(8.0, lambda: seen.append(gc.isenabled()))
    engine.run()
    assert gc.isenabled() and engine.idle
    assert seen == [False] * 8
