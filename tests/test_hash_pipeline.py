"""Unit tests for the hash index pipeline (§4.4.1)."""

from array import array

import pytest

from repro.index.common import DbRequest, sdbm_hash
from repro.index.hash.pipeline import HashIndexPipeline
from repro.isa import Opcode
from repro.txn import ResultCode

from conftest import SimEnv, collect_results


def make_pipeline(env: SimEnv, n_buckets=1024, **kw) -> HashIndexPipeline:
    return HashIndexPipeline(env.engine, env.clock, env.dram, "hash0",
                             n_buckets=n_buckets, stats=env.stats, **kw)


def req(op, key=None, ts=1, txn_id=1, key_addr=None, payload=None, **kw):
    r = DbRequest(op=op, table_id=0, ts=ts, txn_id=txn_id,
                  key_addr=key_addr, key_value=key, **kw)
    if payload is not None:
        r.insert_payload = payload
    return r


class TestSdbmHash:
    def test_deterministic(self):
        assert sdbm_hash(42) == sdbm_hash(42)
        assert sdbm_hash("abc") == sdbm_hash("abc")

    def test_distinct_keys_differ(self):
        assert sdbm_hash(1) != sdbm_hash(2)

    def test_bytes_and_tuple_keys(self):
        assert isinstance(sdbm_hash(b"\x00\x01"), int)
        assert isinstance(sdbm_hash((1, 2, 3)), int)

    def test_spread_over_buckets(self):
        buckets = {sdbm_hash(i) % 256 for i in range(2000)}
        assert len(buckets) > 120  # sdbm gives workable (not perfect) spread


class TestInsertSearch:
    def test_insert_then_search_inline_key(self, env):
        pipe = make_pipeline(env)
        ins = req(Opcode.INSERT, key=7, payload=["v7"])
        results = collect_results([ins])
        pipe.submit(ins)
        env.run()
        assert results[0][1].code is ResultCode.OK
        rec = pipe.lookup_direct(7)
        assert rec is not None and rec.fields == ["v7"]
        assert rec.dirty  # uncommitted until the commit protocol runs

    def test_search_found_after_bulk_load(self, env):
        pipe = make_pipeline(env)
        pipe.bulk_load(5, ["five"])
        s = req(Opcode.SEARCH, key=5, ts=3)
        results = collect_results([s])
        pipe.submit(s)
        env.run()
        (r, result), = results
        assert result.code is ResultCode.OK
        assert result.value == "five"
        assert pipe.lookup_direct(5).read_ts == 3  # reader stamped

    def test_search_not_found_empty_bucket(self, env):
        pipe = make_pipeline(env)
        s = req(Opcode.SEARCH, key=99)
        results = collect_results([s])
        pipe.submit(s)
        env.run()
        assert results[0][1].code is ResultCode.NOT_FOUND

    def test_search_not_found_in_chain(self, env):
        # force all keys into one bucket to exercise Traverse
        pipe = make_pipeline(env, n_buckets=1)
        for k in range(5):
            pipe.bulk_load(k, [f"v{k}"])
        s = req(Opcode.SEARCH, key=777)
        results = collect_results([s])
        pipe.submit(s)
        env.run()
        assert results[0][1].code is ResultCode.NOT_FOUND

    def test_traverse_finds_deep_chain_entry(self, env):
        pipe = make_pipeline(env, n_buckets=1)
        for k in range(8):
            pipe.bulk_load(k, [f"v{k}"])
        s = req(Opcode.SEARCH, key=0)  # loaded first -> deepest in chain
        results = collect_results([s])
        pipe.submit(s)
        env.run()
        assert results[0][1].code is ResultCode.OK
        assert results[0][1].value == "v0"

    def test_key_from_transaction_block_cell(self, env):
        pipe = make_pipeline(env)
        pipe.bulk_load(11, ["eleven"])
        cell = env.heap.alloc()
        env.dram.direct_write(cell, 11)
        s = req(Opcode.SEARCH, key_addr=cell)
        results = collect_results([s])
        pipe.submit(s)
        env.run()
        assert results[0][1].code is ResultCode.OK

    def test_insert_key_and_payload_from_block_cell(self, env):
        pipe = make_pipeline(env)
        cell = env.heap.alloc()
        env.dram.direct_write(cell, (21, ["a", "b"]))
        ins = req(Opcode.INSERT, key_addr=cell)
        results = collect_results([ins])
        pipe.submit(ins)
        env.run()
        assert results[0][1].code is ResultCode.OK
        assert pipe.lookup_direct(21).fields == ["a", "b"]

    def test_many_inserts_all_searchable(self, env):
        pipe = make_pipeline(env, n_buckets=64)
        reqs = [req(Opcode.INSERT, key=k, payload=[k * 10], txn_id=k)
                for k in range(40)]
        results = collect_results(reqs)
        for r in reqs:
            pipe.submit(r)
        env.run()
        assert all(res.code is ResultCode.OK for _r, res in results)
        for k in range(40):
            assert pipe.lookup_direct(k).fields == [k * 10]


class TestUpdateRemove:
    def test_update_marks_dirty_and_returns_addr(self, env):
        pipe = make_pipeline(env)
        addr = pipe.bulk_load(3, ["old"])
        u = req(Opcode.UPDATE, key=3, ts=5)
        results = collect_results([u])
        pipe.submit(u)
        env.run()
        (_r, result), = results
        assert result.code is ResultCode.OK
        assert result.tuple_addr == addr
        rec = env.heap.load(addr)
        assert rec.dirty
        assert rec.fields == ["old"]  # UPDATE does not modify data itself

    def test_remove_sets_tombstone_and_dirty(self, env):
        pipe = make_pipeline(env)
        addr = pipe.bulk_load(4, ["x"])
        rm = req(Opcode.REMOVE, key=4, ts=5)
        results = collect_results([rm])
        pipe.submit(rm)
        env.run()
        assert results[0][1].code is ResultCode.OK
        rec = env.heap.load(addr)
        assert rec.dirty and rec.tombstone

    def test_committed_tombstone_is_invisible(self, env):
        pipe = make_pipeline(env)
        addr = pipe.bulk_load(9, ["gone"])
        rec = env.heap.load(addr)
        rec.tombstone = True  # committed delete
        s = req(Opcode.SEARCH, key=9, ts=10)
        results = collect_results([s])
        pipe.submit(s)
        env.run()
        assert results[0][1].code is ResultCode.NOT_FOUND


class TestVisibility:
    def test_read_of_dirty_tuple_blindly_rejected(self, env):
        pipe = make_pipeline(env)
        addr = pipe.bulk_load(1, ["v"])
        env.heap.load(addr).dirty = True
        s = req(Opcode.SEARCH, key=1, ts=100)
        results = collect_results([s])
        pipe.submit(s)
        env.run()
        assert results[0][1].code is ResultCode.CC_REJECT

    def test_read_of_future_write_rejected(self, env):
        pipe = make_pipeline(env)
        addr = pipe.bulk_load(1, ["v"])
        env.heap.load(addr).write_ts = 50
        s = req(Opcode.SEARCH, key=1, ts=10)
        results = collect_results([s])
        pipe.submit(s)
        env.run()
        assert results[0][1].code is ResultCode.CC_REJECT

    def test_write_after_newer_read_rejected(self, env):
        pipe = make_pipeline(env)
        addr = pipe.bulk_load(1, ["v"])
        env.heap.load(addr).read_ts = 50
        u = req(Opcode.UPDATE, key=1, ts=10)
        results = collect_results([u])
        pipe.submit(u)
        env.run()
        assert results[0][1].code is ResultCode.CC_REJECT

    def test_reader_does_not_regress_read_ts(self, env):
        pipe = make_pipeline(env)
        addr = pipe.bulk_load(1, ["v"])
        env.heap.load(addr).read_ts = 8
        s = req(Opcode.SEARCH, key=1, ts=3)  # older reader, still allowed
        results = collect_results([s])
        pipe.submit(s)
        env.run()
        assert results[0][1].code is ResultCode.OK
        assert env.heap.load(addr).read_ts == 8


class TestHazards:
    def _run_concurrent_inserts(self, env, hazard_prevention):
        pipe = make_pipeline(env, n_buckets=1, hazard_prevention=hazard_prevention)
        reqs = [req(Opcode.INSERT, key=k, payload=[k], txn_id=k) for k in range(6)]
        collect_results(reqs)
        for r in reqs:
            pipe.submit(r)
        env.run()
        return pipe

    def test_insert_after_insert_hazard_without_prevention(self, env):
        """Figure 6a: concurrent inserts to one bucket lose tuples."""
        pipe = self._run_concurrent_inserts(env, hazard_prevention=False)
        assert pipe.chain_length(0) < 6  # lost update occurred

    def test_prevention_preserves_all_inserts(self, env):
        """Figure 6b: pipeline stalls keep every insert."""
        pipe = self._run_concurrent_inserts(env, hazard_prevention=True)
        assert pipe.chain_length(0) == 6
        for k in range(6):
            assert pipe.lookup_direct(k) is not None

    def test_search_after_insert_sees_new_tuple(self, env):
        """A search submitted right behind an insert must stall at the
        Hash stage until the install completes, then find the tuple."""
        pipe = make_pipeline(env, n_buckets=1, hazard_prevention=True)
        ins = req(Opcode.INSERT, key=42, payload=["new"], txn_id=1, ts=1)
        s = req(Opcode.SEARCH, key=42, txn_id=2, ts=2)
        results = collect_results([ins, s])
        pipe.submit(ins)
        pipe.submit(s)
        env.run()
        by_op = {r.op: res for r, res in results}
        assert by_op[Opcode.INSERT].code is ResultCode.OK
        # the freshly inserted tuple is dirty -> blind CC rejection,
        # which proves the search *saw* it (not NOT_FOUND)
        assert by_op[Opcode.SEARCH].code is ResultCode.CC_REJECT
        assert pipe.locks.stalls >= 1


class TestThrottling:
    def test_in_flight_cap_respected(self, env):
        pipe = make_pipeline(env, max_in_flight=2)
        reqs = [req(Opcode.SEARCH, key=k) for k in range(10)]
        collect_results(reqs)
        for r in reqs:
            pipe.submit(r)
        max_seen = 0

        def watch():
            nonlocal max_seen
            while True:
                max_seen = max(max_seen, pipe.tokens.in_use)
                yield 8.0

        env.engine.start(watch())
        env.run(until=200_000)
        assert max_seen <= 2
        assert pipe.completed.value == 10

    def test_higher_parallelism_is_faster(self, env):
        def run_with(n):
            local = SimEnv()
            pipe = make_pipeline(local, max_in_flight=n)
            for k in range(64):
                pipe.bulk_load(k, [k])
            reqs = [req(Opcode.SEARCH, key=k % 64) for k in range(128)]
            collect_results(reqs)
            for r in reqs:
                pipe.submit(r)
            local.run()
            return local.engine.now

        t1 = run_with(1)
        t16 = run_with(16)
        assert t16 < t1 / 3  # index pipelining overlaps probes


class TestEngines:
    """A single pipeline has no cross-partition ties, so however its
    zero-delay hand-offs are fused, every request must complete at the
    time and with the result code the hop-per-stage pipeline gave it
    (captured on it, and on the reference engine it agreed with, at the
    last commit that had both)."""

    #: txn_id -> (completion time in ns, result code)
    PINNED = {
        0: (3008.0, "OK"), 1: (1568.0, "OK"),
        2: (3536.0, "OK"), 3: (2752.0, "CC_REJECT"),
        4: (4560.0, "OK"), 5: (4128.0, "OK"),
        6: (4368.0, "OK"), 7: (5648.0, "CC_REJECT"),
        8: (6352.0, "OK"), 9: (5920.0, "OK"),
        10: (9568.0, "OK"), 11: (7440.0, "CC_REJECT"),
        12: (7632.0, "OK"), 13: (7904.0, "OK"),
        14: (11632.0, "OK"), 15: (9312.0, "CC_REJECT"),
        16: (13760.0, "OK"), 17: (10688.0, "OK"),
        18: (15360.0, "OK"), 19: (11952.0, "CC_REJECT"),
        20: (17712.0, "OK"), 21: (13328.0, "OK"),
        22: (18736.0, "OK"), 23: (15168.0, "CC_REJECT"),
        24: (20864.0, "OK"), 25: (16928.0, "OK"),
        26: (21952.0, "OK"), 27: (19056.0, "CC_REJECT"),
        28: (23488.0, "OK"), 29: (20432.0, "OK"),
        30: (24000.0, "OK"), 31: (22272.0, "CC_REJECT"),
    }
    #: firings this stream needs (the hop-per-stage pipeline took 679):
    #: a ceiling, not a pin
    EVENTS_CEILING = 362

    def test_requests_complete_at_the_pinned_times(self, env):
        # 4 buckets and 4 tokens: chains to traverse, inserts contending
        # for bucket locks, searches stalled behind them, queued admission
        pipe = make_pipeline(env, n_buckets=4, max_in_flight=4,
                             hazard_prevention=True)
        for k in range(16):
            pipe.bulk_load(k, [k])
        reqs = []
        for k in range(8):
            reqs.append(req(Opcode.SEARCH, key=k, ts=5, txn_id=len(reqs)))
            reqs.append(req(Opcode.INSERT, key=100 + k, payload=[k], ts=6,
                            txn_id=len(reqs)))
            reqs.append(req(Opcode.UPDATE, key=8 + k, ts=7, txn_id=len(reqs)))
            reqs.append(req(Opcode.SEARCH, key=100 + k, ts=8,
                            txn_id=len(reqs)))
        done = {}

        def on_complete(r, result):
            done[r.txn_id] = (env.engine.now, result.code.name)

        for r in reqs:
            r.on_complete = on_complete
            pipe.submit(r)
        env.run()
        assert pipe.locks.stalls > 0
        assert done == self.PINNED
        assert env.engine.events_fired <= self.EVENTS_CEILING


class TestErrors:
    def test_scan_on_hash_rejected(self, env):
        from repro.index.common import IndexError_
        pipe = make_pipeline(env)
        r = req(Opcode.SCAN, key=1)
        r.scan_count = 10
        pipe.submit(r)
        with pytest.raises(IndexError_, match="dispatched to a hash index"):
            env.run()

    def test_scan_on_hash_table_comes_out_of_db_run(self):
        # admission is a direct call from the softcore's Dispatch step:
        # the rejection must still surface from the engine, not die
        # inside the softcore and be reported as a stuck transaction
        from repro.core import BionicConfig, BionicDB
        from repro.index.common import IndexError_
        from repro.isa.builder import ProcedureBuilder
        from repro.mem.schema import IndexKind, TableSchema
        db = BionicDB(BionicConfig(n_workers=1))
        db.define_table(TableSchema(0, "kv", IndexKind.HASH, hash_buckets=16))
        db.load(0, 1, ["one"])
        b = ProcedureBuilder("scan_hash")
        b.scan(cp=0, table=0, key=b.at(0), count=4, out=b.at(1))
        b.ret(0, 0)
        b.commit_handler()
        b.commit()
        b.abort_handler()
        b.abort()
        db.register_procedure(9, b.build(), verify=False)
        db.submit(db.new_block(9, [1, None, None, None, None], worker=0), 0)
        with pytest.raises(IndexError_, match="dispatched to a hash index"):
            db.run()

    def test_bad_config_rejected(self, env):
        with pytest.raises(ValueError):
            make_pipeline(env, n_buckets=-1)
        with pytest.raises(ValueError):
            make_pipeline(env, n_traverse_stages=0)

    def test_duplicate_table_registration_rejected(self, env):
        pipe = make_pipeline(env)
        with pytest.raises(ValueError):
            pipe.add_table(0, 16)

    def test_unknown_table_rejected(self, env):
        from repro.index.common import IndexError_
        pipe = make_pipeline(env)
        with pytest.raises(IndexError_):
            pipe.bucket_addr_of(1, table_id=9)

    def test_tables_are_isolated(self, env):
        pipe = make_pipeline(env)
        pipe.add_table(1, 64)
        pipe.bulk_load(5, ["t0"], table_id=0)
        pipe.bulk_load(5, ["t1"], table_id=1)
        assert pipe.lookup_direct(5, table_id=0).fields == ["t0"]
        assert pipe.lookup_direct(5, table_id=1).fields == ["t1"]

    def test_bulk_load_many_takes_any_sized_sequence(self, env):
        pipe = make_pipeline(env)
        first = pipe.bulk_load(0, ["v0"])
        fields = [[f"v{k}"] for k in range(40)]
        assert pipe.bulk_load_many(range(1, 20), fields[1:20]) == 19
        assert pipe.bulk_load_many(list(range(20, 30)), fields[20:30]) == 10
        assert pipe.bulk_load_many(array("q", range(30, 40)),
                                   tuple(fields[30:])) == 10
        assert pipe.bulk_load_many((), []) == 0
        with pytest.raises(ValueError):
            pipe.bulk_load_many(range(40, 50), fields[:9])
        # one address per row, in row order, as per-row loading gives
        assert [pipe.lookup_direct(k).addr for k in range(40)] == list(
            range(first, first + 40))
        assert pipe.tuple_count == 40


def _noop():
    yield 1e8
