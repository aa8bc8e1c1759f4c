"""The stage framework under all three index pipelines.

Three kinds, one contract: an INSERT whose key and payload both sit in
block cells installs that row; a drained pipeline holds nothing (no
token out, no request waiting, every stage idle with an empty backlog,
no hazard lock, both memory ports empty); and a stream served one
request at a time gives every kind the same answers.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core import BionicConfig, BionicDB
from repro.index.common import DbRequest
from repro.index.hash.pipeline import HashIndexPipeline
from repro.index.skiplist.pipeline import SkiplistPipeline
from repro.isa import Opcode
from repro.isa.builder import ProcedureBuilder
from repro.mem.schema import IndexKind, TableSchema
from repro.txn import ResultCode
from repro.txn.cc import commit_record

from conftest import SimEnv, SmallNodeBPTree

KINDS = {"hash": IndexKind.HASH, "skiplist": IndexKind.SKIPLIST,
         "bptree": IndexKind.BPTREE}


@pytest.mark.parametrize("index_kind", KINDS.values(), ids=KINDS)
def test_insert_reads_both_the_key_cell_and_the_payload_cell(index_kind):
    db = BionicDB(BionicConfig(n_workers=1))
    db.define_table(TableSchema(0, "t", index_kind, hash_buckets=16))
    b = ProcedureBuilder("insert_from_cells")
    b.insert(cp=0, table=0, key=b.at(0), payload=b.at(1))
    db.register_procedure(1, b.build())
    block = db.new_block(1, [123, ["fresh"]], worker=0)
    db.submit(block, 0)
    db.run()
    assert block.header.status.name == "COMMITTED"
    assert db.lookup(0, 123).fields == ["fresh"]


# -- quiescence ----------------------------------------------------------------

def _pipeline(kind: str, env: SimEnv):
    if kind == "hash":
        return HashIndexPipeline(env.engine, env.clock, env.dram, "h0",
                                 n_buckets=4, max_in_flight=3,
                                 stats=env.stats)
    if kind == "skiplist":
        return SkiplistPipeline(env.engine, env.clock, env.dram, "sl0",
                                n_scanners=2, max_in_flight=3,
                                stats=env.stats)
    return SmallNodeBPTree(env.engine, env.clock, env.dram, "bp0",
                           max_in_flight=3, stats=env.stats)


def _req(op, key, ts, **kw):
    return DbRequest(op=op, table_id=0, ts=ts, txn_id=ts, key_value=key, **kw)


@pytest.mark.parametrize("kind", KINDS)
def test_a_drained_pipeline_holds_nothing(kind):
    env = SimEnv()
    pipe = _pipeline(kind, env)
    for key in range(0, 40, 2):
        pipe.bulk_load(key, [key])
    out = env.heap.alloc(16)
    reqs = []
    for k in range(12):
        # ascending inserts contend for one lock (bucket or entry point)
        reqs.append(_req(Opcode.INSERT, 41 + k, 10 + k, insert_payload=[k]))
        reqs.append(_req(Opcode.SEARCH, 2 * k, 10 + k))
        reqs.append(_req(Opcode.UPDATE, 2 * k + 1 if k % 2 else 2 * k, 10 + k))
        reqs.append(_req(Opcode.REMOVE, 38 - 2 * k, 10 + k))
        if kind != "hash" and k % 4 == 0:
            reqs.append(_req(Opcode.RANGE_SCAN, 3 * k, 10 + k, scan_hi=3 * k + 9,
                             scan_count=4, scan_limit=16, scan_out_addr=out))
    done = []
    for r in reqs:
        r.on_complete = lambda r, result: done.append(result.code)
        pipe.submit(r)
    env.run()
    assert len(done) == len(reqs) and pipe.completed.value == len(reqs)
    assert pipe.tokens.available == pipe.tokens.capacity
    assert not pipe._waiting
    assert not any(pipe._busy)
    assert not any(pipe._backlog)
    if kind != "bptree":
        assert pipe.locks.stalls > 0
        assert not pipe.locks._held
    assert pipe.read_port.outstanding == 0
    assert pipe.write_port.outstanding == 0


# -- one stream, three kinds -------------------------------------------------------

POINT_OPS = (Opcode.INSERT, Opcode.SEARCH, Opcode.UPDATE, Opcode.REMOVE)
keys = st.integers(min_value=0, max_value=15)
steps = st.lists(
    st.one_of(st.tuples(st.sampled_from(POINT_OPS), keys),
              st.tuples(st.just(Opcode.RANGE_SCAN), keys,
                        st.integers(min_value=0, max_value=8),
                        st.integers(min_value=1, max_value=6))),
    min_size=1, max_size=40)


class _Served:
    """One kind's pipeline, served one request at a time; every write
    that succeeds is committed at once (a one-request transaction)."""

    def __init__(self, kind: str):
        self.env = SimEnv()
        self.pipe = _pipeline(kind, self.env)
        self.out = self.env.heap.alloc(8)

    def serve(self, req: DbRequest):
        got = []
        req.on_complete = lambda r, result: got.append(result)
        self.pipe.submit(req)
        self.env.run()
        (result,) = got
        if result.ok and req.op in (Opcode.INSERT, Opcode.UPDATE,
                                    Opcode.REMOVE):
            commit_record(self.env.heap.load(result.tuple_addr), req.ts)
        rows = None
        if req.op is Opcode.RANGE_SCAN:
            rows = tuple((key, tuple(fields)) for key, fields in (
                self.env.heap.load(self.out + i)
                for i in range(result.value)))
        # a miss names no tuple; a found one is named by address
        return result.code, result.value, bool(result.tuple_addr), rows


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(steps)
@example([(Opcode.INSERT, 3), (Opcode.REMOVE, 3), (Opcode.SEARCH, 3),
          (Opcode.UPDATE, 3), (Opcode.INSERT, 3), (Opcode.SEARCH, 3),
          (Opcode.RANGE_SCAN, 0, 8, 4)])
def test_every_kind_gives_the_same_answers(stream):
    ordered = {kind: _Served(kind) for kind in ("skiplist", "bptree")}
    hashed = _Served("hash")
    live = set()
    for ts, step in enumerate(stream, start=1):
        op, key = step[:2]
        answers = {}
        for kind, served in ordered.items():
            if op is Opcode.RANGE_SCAN:
                req = _req(op, key, ts, scan_hi=key + step[2],
                           scan_count=step[3], scan_limit=8,
                           scan_out_addr=served.out)
            else:
                req = _req(op, key, ts, insert_payload=[f"{key}@{ts}"])
            answers[kind] = served.serve(req)
        # the hash index has no order to scan, and its INSERT does not
        # look for the key (a live key gets a newer version at the head
        # of its chain), so it serves the point operations the ordered
        # kinds can only answer one way
        if op is not Opcode.RANGE_SCAN and not (op is Opcode.INSERT
                                               and key in live):
            answers["hash"] = hashed.serve(
                _req(op, key, ts, insert_payload=[f"{key}@{ts}"]))
        assert len(set(answers.values())) == 1, (ts, step, answers)
        code = answers["skiplist"][0]
        if code is ResultCode.OK and op is Opcode.INSERT:
            live.add(key)
        elif code is ResultCode.OK and op is Opcode.REMOVE:
            live.discard(key)
    images = {kind: sorted(served.pipe.checkpoint_rows(0))
              for kind, served in {**ordered, "hash": hashed}.items()}
    assert images["skiplist"] == images["bptree"] == images["hash"]
    assert [key for key, _f, _ts in images["hash"]] == sorted(live)
