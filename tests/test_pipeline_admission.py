"""Admission under the in-flight cap, shared by all three index
pipelines (``PipelineBase.submit`` / ``_done`` / ``set_max_in_flight``):
a direct call when a token is free, a FIFO wait otherwise."""

import pytest

from repro.index.bptree.pipeline import BPTreePipeline
from repro.index.common import DbRequest
from repro.index.hash.pipeline import HashIndexPipeline
from repro.index.skiplist.pipeline import SkiplistPipeline
from repro.isa import Opcode
from repro.sim import Tracer

from conftest import SimEnv

KINDS = {
    "hash": lambda env, n: HashIndexPipeline(
        env.engine, env.clock, env.dram, "hash0", n_buckets=64,
        stats=env.stats, max_in_flight=n),
    "skiplist": lambda env, n: SkiplistPipeline(
        env.engine, env.clock, env.dram, "sl0", stats=env.stats,
        max_in_flight=n),
    "bptree": lambda env, n: BPTreePipeline(
        env.engine, env.clock, env.dram, "bp0", stats=env.stats,
        max_in_flight=n),
}


class Harness:
    """A loaded pipeline that records when each request is admitted
    (with the in-flight count just after) and when it completes."""

    def __init__(self, kind: str, max_in_flight: int):
        self.env = SimEnv()
        self.pipe = pipe = KINDS[kind](self.env, max_in_flight)
        for key in range(32):
            pipe.bulk_load(key, [key])
        self.entered, self.done = [], {}
        enter = pipe._enter

        def recording_enter(req):
            self.entered.append((self.env.engine.now, req.txn_id,
                                 pipe.tokens.in_use))
            enter(req)

        pipe._enter = recording_enter
        self._next_id = 0

    def submit(self, n: int) -> None:
        for _ in range(n):
            req = DbRequest(op=Opcode.SEARCH, table_id=0, ts=1,
                            txn_id=self._next_id,
                            key_value=self._next_id % 32,
                            on_complete=self._on_complete)
            self._next_id += 1
            self.pipe.submit(req)

    def _on_complete(self, req, _result) -> None:
        self.done[req.txn_id] = self.env.engine.now


@pytest.fixture(params=list(KINDS))
def kind(request):
    return request.param


def test_request_past_the_cap_waits_for_the_first_done(kind):
    h = Harness(kind, max_in_flight=16)
    h.submit(17)
    # sixteen entered inside submit(), in order; the 17th holds no token
    assert [(t, txn) for t, txn, _ in h.entered] == [
        (0.0, i) for i in range(16)]
    assert h.pipe.tokens.in_use == 16
    assert list(r.txn_id for r in h.pipe._waiting) == [16]
    h.env.run()
    assert len(h.done) == 17
    # ... and entered at the instant the first completion freed one
    t_enter, txn, in_use = h.entered[16]
    assert txn == 16
    assert t_enter == min(h.done.values()) > 0
    assert in_use == 16
    assert h.pipe.tokens.in_use == 0 and not h.pipe._waiting


def test_shrink_holds_admission_until_in_flight_falls_under_the_new_cap(kind):
    h = Harness(kind, max_in_flight=8)
    h.submit(8)
    h.pipe.set_max_in_flight(2)
    h.submit(6)
    assert len(h.entered) == 8 and len(h.pipe._waiting) == 6
    h.env.run()
    assert len(h.done) == 14
    later = h.entered[8:]
    assert [txn for _, txn, _ in later] == list(range(8, 14))   # FIFO
    assert all(t > 0 and in_use <= 2 for t, _, in_use in later)


def test_grow_admits_the_waiting_requests_at_once(kind):
    h = Harness(kind, max_in_flight=2)
    h.submit(10)
    assert len(h.entered) == 2 and len(h.pipe._waiting) == 8
    h.pipe.set_max_in_flight(16)
    assert [(t, txn) for t, txn, _ in h.entered] == [
        (0.0, i) for i in range(10)]
    assert h.pipe.tokens.in_use == 10 and not h.pipe._waiting
    h.env.run()
    assert len(h.done) == 10


@pytest.mark.parametrize("cls, kwargs, category", [
    (HashIndexPipeline, {"n_buckets": 64}, "hash"),
    (SkiplistPipeline, {}, "skiplist"),
    (BPTreePipeline, {}, "bptree"),
])
def test_trace_category_is_the_pipeline_kind_whatever_its_name(
        cls, kwargs, category):
    env, tracer = SimEnv(), Tracer()
    pipe = cls(env.engine, env.clock, env.dram, "index0", tracer=tracer,
               **kwargs)
    pipe.bulk_load(1, ["v"])
    pipe.submit(DbRequest(op=Opcode.SEARCH, table_id=0, ts=1, txn_id=1,
                          key_value=1))
    env.run()
    assert {e.category for e in tracer.events} == {category}
