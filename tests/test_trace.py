"""Tests for the execution tracer."""

import pytest

from repro.core import BionicConfig, BionicDB
from repro.isa import Gp, ProcedureBuilder
from repro.mem import TableSchema
from repro.sim import Tracer


def traced_db(categories=None):
    tracer = Tracer(categories=categories)
    db = BionicDB(BionicConfig(n_workers=1, tracer=tracer))
    db.define_table(TableSchema(0, "kv", hash_buckets=256,
                                partition_fn=lambda k, n: 0))
    b = ProcedureBuilder("get")
    b.search(cp=0, table=0, key=b.at(0))
    b.commit_handler()
    b.ret(0, 0)
    b.store(Gp(0), b.at(1))
    b.commit()
    db.register_procedure(1, b.build())
    db.load(0, 7, ["v"])
    return db, tracer


def run_one(db):
    block = db.new_block(1, [7, None], worker=0)
    db.submit(block, 0)
    db.run()
    return block


class TestTracer:
    def test_collects_instruction_and_pipeline_events(self):
        db, tracer = traced_db()
        run_one(db)
        cats = {e.category for e in tracer.events}
        assert {"softcore", "hash", "txn"} <= cats
        # instruction stream includes the SEARCH and the COMMIT decision
        softcore = [e.message for e in tracer.filter("softcore")]
        assert any("SEARCH" in m for m in softcore)
        txn = [e.message for e in tracer.filter("txn")]
        assert any("COMMIT" in m for m in txn)

    def test_category_filtering_at_emit(self):
        db, tracer = traced_db(categories={"txn"})
        run_one(db)
        assert all(e.category == "txn" for e in tracer.events)
        assert tracer.events  # but something was recorded

    def test_events_are_time_ordered(self):
        db, tracer = traced_db()
        run_one(db)
        times = [e.time_ns for e in tracer.events]
        assert times == sorted(times)

    def test_format_renders_lines(self):
        db, tracer = traced_db()
        run_one(db)
        text = tracer.format()
        assert len(text.splitlines()) == len(tracer.events)
        assert "ns" in text

    def test_capacity_drops_and_reports(self):
        tracer = Tracer(capacity=3)
        db = BionicDB(BionicConfig(n_workers=1, tracer=tracer))
        db.define_table(TableSchema(0, "kv", hash_buckets=64,
                                    partition_fn=lambda k, n: 0))
        b = ProcedureBuilder("noop")
        for _ in range(10):
            b.nop()
        db.register_procedure(1, b.build())
        block = db.new_block(1, [], worker=0)
        db.submit(block, 0)
        db.run()
        assert len(tracer.events) == 3
        assert tracer.dropped > 0
        assert "dropped" in tracer.format()

    def test_window_filter(self):
        db, tracer = traced_db()
        run_one(db)
        mid = tracer.events[len(tracer.events) // 2].time_ns
        early = tracer.filter(until_ns=mid)
        late = tracer.filter(since_ns=mid)
        assert len(early) + len(late) >= len(tracer.events)

    def test_disabled_by_default_costs_nothing(self):
        db = BionicDB(BionicConfig(n_workers=1))
        assert not db.tracer.enabled
        assert len(db.tracer.events) == 0

    def test_null_tracer_events_are_immutable(self):
        # Regression: _NullTracer.events used to be a class-level list —
        # one caller appending to it polluted every disabled tracer.
        a = BionicDB(BionicConfig(n_workers=1)).tracer
        b = BionicDB(BionicConfig(n_workers=1)).tracer
        with pytest.raises((TypeError, AttributeError)):
            a.events.append("junk")
        assert len(b.events) == 0

    def test_clear(self):
        db, tracer = traced_db()
        run_one(db)
        tracer.clear()
        assert tracer.events == [] and tracer.dropped == 0
