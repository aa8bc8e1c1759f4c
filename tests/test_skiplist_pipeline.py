"""Unit tests for the skiplist pipeline (§4.4.2)."""

import pytest

from repro.index.common import DbRequest
from repro.index.skiplist.pipeline import (
    SkiplistPipeline, compute_level_ranges,
)
from repro.isa import Opcode
from repro.txn import ResultCode

from conftest import SimEnv, collect_results


def make_pipeline(env: SimEnv, cls=SkiplistPipeline, **kw) -> SkiplistPipeline:
    return cls(env.engine, env.clock, env.dram, "sl0", stats=env.stats, **kw)


def req(op, key=None, ts=1, txn_id=1, **kw):
    return DbRequest(op=op, table_id=0, ts=ts, txn_id=txn_id,
                     key_value=key, **kw)


class TestLevelRanges:
    def test_default_ranges_cover_all_levels(self):
        ranges = compute_level_ranges(20, 8)
        assert ranges[0][0] == 19
        assert ranges[-1] == (0, 0)
        covered = []
        for top, bottom in ranges:
            covered.extend(range(bottom, top + 1))
        assert sorted(covered) == list(range(20))

    def test_top_stage_gets_largest_range(self):
        ranges = compute_level_ranges(20, 8)
        sizes = [top - bottom + 1 for top, bottom in ranges]
        assert sizes[0] == max(sizes)
        assert sizes[-1] == 1 and sizes[-2] == 1

    def test_small_height(self):
        ranges = compute_level_ranges(4, 4)
        assert [top - bottom + 1 for top, bottom in ranges] == [1, 1, 1, 1]

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            compute_level_ranges(4, 0)
        with pytest.raises(ValueError):
            compute_level_ranges(3, 8)


class TestBulkLoadAndDirect:
    def test_bulk_load_sorted_lookup(self, env):
        pipe = make_pipeline(env)
        for k in [5, 1, 9, 3, 7]:
            pipe.bulk_load(k, [f"v{k}"])
        assert [k for k, _ in pipe.items_direct()] == [1, 3, 5, 7, 9]
        assert pipe.lookup_direct(7).fields == ["v7"]
        assert pipe.lookup_direct(4) is None
        pipe.invariant_check()

    def test_ascending_batch_searches_from_the_head_once(self, env):
        # the sorted-run assumption, counted: every row after the first
        # starts from the tower before it
        pipe = make_pipeline(env)
        assert pipe.bulk_load_many(range(400), [[k] for k in range(400)]) == 400
        assert pipe.load_rows.value == 400
        assert pipe.load_descents.value <= 1
        # a descending batch gets no help; one row is a batch of one
        pipe.bulk_load_many(range(500, 400, -1),
                            [[k] for k in range(500, 400, -1)])
        pipe.bulk_load(1000, ["v"])
        assert pipe.load_rows.value == 501
        assert pipe.load_descents.value == 102
        assert pipe.tower_count == 501
        pipe.invariant_check()

    def test_bulk_load_many_invariants(self, env):
        pipe = make_pipeline(env)
        for k in range(199):
            pipe.bulk_load(k * 3 % 199, [k])
        pipe.invariant_check()
        assert pipe.tower_count == 199
        with pytest.raises(ValueError):
            pipe.bulk_load(0, ["dup"])


class TestPointOps:
    def test_insert_then_lookup(self, env):
        pipe = make_pipeline(env)
        r = req(Opcode.INSERT, key=10)
        r.insert_payload = ["ten"]
        results = collect_results([r])
        pipe.submit(r)
        env.run()
        assert results[0][1].code is ResultCode.OK
        tower = pipe.lookup_direct(10)
        assert tower.fields == ["ten"] and tower.dirty
        pipe.invariant_check()

    def test_search_found(self, env):
        pipe = make_pipeline(env)
        for k in range(0, 100, 2):
            pipe.bulk_load(k, [k])
        s = req(Opcode.SEARCH, key=42, ts=7)
        results = collect_results([s])
        pipe.submit(s)
        env.run()
        assert results[0][1].code is ResultCode.OK
        assert results[0][1].value == 42
        assert pipe.lookup_direct(42).read_ts == 7

    def test_search_missing_between_keys(self, env):
        pipe = make_pipeline(env)
        for k in range(0, 100, 2):
            pipe.bulk_load(k, [k])
        s = req(Opcode.SEARCH, key=43)
        results = collect_results([s])
        pipe.submit(s)
        env.run()
        assert results[0][1].code is ResultCode.NOT_FOUND

    def test_search_empty_index(self, env):
        pipe = make_pipeline(env)
        s = req(Opcode.SEARCH, key=1)
        results = collect_results([s])
        pipe.submit(s)
        env.run()
        assert results[0][1].code is ResultCode.NOT_FOUND

    def test_update_and_remove_mark_bits(self, env):
        pipe = make_pipeline(env)
        addr = pipe.bulk_load(8, ["x"])
        u = req(Opcode.UPDATE, key=8, ts=2)
        results = collect_results([u])
        pipe.submit(u)
        env.run()
        assert results[0][1].code is ResultCode.OK
        assert results[0][1].tuple_addr == addr
        assert env.heap.load(addr).dirty
        env.heap.load(addr).dirty = False  # "commit" it
        rm = req(Opcode.REMOVE, key=8, ts=3)
        results2 = collect_results([rm])
        pipe.submit(rm)
        env.run()
        assert results2[0][1].code is ResultCode.OK
        assert env.heap.load(addr).tombstone

    def test_duplicate_insert_rejected(self, env):
        pipe = make_pipeline(env)
        pipe.bulk_load(5, ["orig"])
        r = req(Opcode.INSERT, key=5)
        r.insert_payload = ["dup"]
        results = collect_results([r])
        pipe.submit(r)
        env.run()
        assert results[0][1].code is ResultCode.DUPLICATE
        assert pipe.lookup_direct(5).fields == ["orig"]
        pipe.invariant_check()

    def test_interleaved_inserts_keep_structure(self, env):
        pipe = make_pipeline(env)
        reqs = []
        for k in range(30):
            r = req(Opcode.INSERT, key=k, txn_id=k)
            r.insert_payload = [k]
            reqs.append(r)
        results = collect_results(reqs)
        for r in reqs:
            pipe.submit(r)
        env.run()
        assert all(res.code is ResultCode.OK for _r, res in results)
        pipe.invariant_check()
        assert [k for k, _ in pipe.items_direct()] == list(range(30))

    def test_random_order_interleaved_inserts(self, env):
        import random
        rng = random.Random(7)
        keys = list(range(50))
        rng.shuffle(keys)
        pipe = make_pipeline(env)
        reqs = []
        for k in keys:
            r = req(Opcode.INSERT, key=k, txn_id=k)
            r.insert_payload = [k]
            reqs.append(r)
        collect_results(reqs)
        for r in reqs:
            pipe.submit(r)
        env.run()
        pipe.invariant_check()
        assert [k for k, _ in pipe.items_direct()] == list(range(50))


class TestScan:
    def _loaded(self, env, n=100):
        pipe = make_pipeline(env)
        for k in range(n):
            pipe.bulk_load(k, [f"v{k}"])
        return pipe

    def test_scan_collects_range(self, env):
        pipe = self._loaded(env)
        out = env.heap.alloc(64)
        s = req(Opcode.SCAN, key=10, ts=5)
        s.scan_count = 5
        s.scan_out_addr = out
        s.scan_limit = 64
        results = collect_results([s])
        pipe.submit(s)
        env.run()
        assert results[0][1].code is ResultCode.OK
        assert results[0][1].value == 5
        collected = [env.heap.load(out + i) for i in range(5)]
        assert [k for k, _f in collected] == [10, 11, 12, 13, 14]

    def test_scan_past_end_returns_short_count(self, env):
        pipe = self._loaded(env, n=20)
        out = env.heap.alloc(64)
        s = req(Opcode.SCAN, key=15, ts=5)
        s.scan_count = 50
        s.scan_out_addr = out
        s.scan_limit = 64
        results = collect_results([s])
        pipe.submit(s)
        env.run()
        assert results[0][1].value == 5  # keys 15..19

    def test_scan_skips_invisible_tuples(self, env):
        pipe = self._loaded(env, n=10)
        # make key 3 "inserted in the future" and key 4 a committed delete
        pipe.lookup_direct(3).write_ts = 99
        pipe.lookup_direct(4).tombstone = True
        out = env.heap.alloc(64)
        s = req(Opcode.SCAN, key=0, ts=5)
        s.scan_count = 10
        s.scan_out_addr = out
        s.scan_limit = 64
        results = collect_results([s])
        pipe.submit(s)
        env.run()
        keys = [env.heap.load(out + i)[0] for i in range(results[0][1].value)]
        assert 3 not in keys and 4 not in keys
        assert keys == [0, 1, 2, 5, 6, 7, 8, 9]

    def test_scan_overflow_reported(self, env):
        pipe = self._loaded(env, n=100)
        out = env.heap.alloc(4)
        s = req(Opcode.SCAN, key=0, ts=5)
        s.scan_count = 50
        s.scan_out_addr = out
        s.scan_limit = 4
        results = collect_results([s])
        pipe.submit(s)
        env.run()
        assert results[0][1].code is ResultCode.SCAN_OVERFLOW

    def test_scan_sets_read_timestamps(self, env):
        pipe = self._loaded(env, n=10)
        s = req(Opcode.SCAN, key=2, ts=9)
        s.scan_count = 3
        results = collect_results([s])
        pipe.submit(s)
        env.run()
        assert pipe.lookup_direct(2).read_ts == 9
        assert pipe.lookup_direct(4).read_ts == 9
        assert pipe.lookup_direct(5).read_ts == 0  # beyond the scan

    def test_multiple_scanners_distribute_load(self, env):
        pipe = make_pipeline(env, n_scanners=3)
        for k in range(60):
            pipe.bulk_load(k, [k])
        reqs = []
        for i in range(6):
            s = req(Opcode.SCAN, key=i * 10, ts=5, txn_id=i)
            s.scan_count = 10
            reqs.append(s)
        results = collect_results(reqs)
        for r in reqs:
            pipe.submit(r)
        env.run()
        assert all(res.value == 10 for _r, res in results
                   if res.code is ResultCode.OK)
        assert len(results) == 6


class TestSkiplistHazards:
    def test_insert_hazard_prevention_under_contention(self, env):
        """Sequential (ascending) inserts share entry points; with
        prevention on, no insert is lost (Figure 7b)."""
        pipe = make_pipeline(env)
        reqs = []
        for k in range(25):
            r = req(Opcode.INSERT, key=k, txn_id=k)
            r.insert_payload = [k]
            reqs.append(r)
        results = collect_results(reqs)
        for r in reqs:
            pipe.submit(r)
        env.run()
        assert all(res.code is ResultCode.OK for _r, res in results)
        pipe.invariant_check()
        assert len(pipe.items_direct()) == 25

    def test_lock_table_sees_contention(self, env):
        pipe = make_pipeline(env)
        reqs = []
        for k in range(25):
            r = req(Opcode.INSERT, key=k, txn_id=k)
            r.insert_payload = [k]
            reqs.append(r)
        collect_results(reqs)
        for r in reqs:
            pipe.submit(r)
        env.run()
        assert pipe.locks.stalls > 0  # ascending keys collide on entry points


class TestEngines:
    """A mixed point/scan stream on one skiplist pipeline: every request
    must complete at the time and with the result code pinned here.

    The stream has ascending inserts that queue on one entry-point lock,
    a SEARCH that meets an in-flight insert's dirty tower, two scanners,
    and a key and an INSERT ``(key, fields)`` pair read from block cells.
    """

    #: txn_id -> (completion time in ns, result code)
    PINNED = {
        0: (6896.0, "OK"), 1: (7968.0, "OK"),
        2: (9552.0, "OK"), 3: (13312.0, "OK"),
        4: (11824.0, "OK"), 5: (12896.0, "OK"),
        6: (14480.0, "CC_REJECT"), 7: (15552.0, "NOT_FOUND"),
        8: (18352.0, "OK"), 9: (19424.0, "OK"),
        10: (21008.0, "CC_REJECT"), 11: (22128.0, "OK"),
        12: (24304.0, "OK"), 13: (26976.0, "OK"),
        14: (30752.0, "OK"), 15: (30832.0, "OK"),
        16: (34000.0, "OK"), 17: (37664.0, "OK"),
        18: (38784.0, "OK"), 19: (42928.0, "OK"),
        20: (47584.0, "OK"), 21: (49168.0, "NOT_FOUND"),
        22: (50240.0, "CC_REJECT"), 23: (51872.0, "OK"),
        24: (52944.0, "OK"), 25: (54032.0, "OK"),
        26: (57776.0, "OK"), 27: (57328.0, "OK"),
        28: (58400.0, "OK"), 29: (59984.0, "CC_REJECT"),
        30: (64128.0, "OK"), 31: (66688.0, "OK"),
    }
    #: firings this stream needs: a ceiling, not a pin
    EVENTS_CEILING = 1571

    class Pipeline(SkiplistPipeline):
        #: the 6-cycle scanner (visibility check and buffer write) the
        #: stream was pinned with
        scan_emit_cycles = 6.0

    @classmethod
    def stream(cls, env):
        pipe = make_pipeline(env, cls.Pipeline, max_in_flight=6, n_scanners=2)
        for k in range(0, 80, 2):
            pipe.bulk_load(k, [k])
        out = env.heap.alloc(64)
        cells = env.heap.alloc(2)
        env.heap.store(cells, 20)
        env.heap.store(cells + 1, (41, ["from-cell"]))
        reqs = []

        def add(r):
            r.txn_id = len(reqs)
            reqs.append(r)
            return r

        for k in range(8):
            add(req(Opcode.INSERT, key=81 + 2 * k, ts=6, insert_payload=[k]))
            add(req(Opcode.SEARCH, key=4 * k, ts=5))
            add(req(Opcode.UPDATE, key=4 * k + 2, ts=7))
            if k % 3 == 0:
                s = add(req(Opcode.SCAN, key=10 * k, ts=8))
                s.scan_count = 5
                s.scan_limit = 8
                s.scan_out_addr = out + 8 * (k // 3)
            if k % 4 == 1:
                add(req(Opcode.REMOVE, key=70 + k, ts=9))
            if k == 5:
                add(req(Opcode.SEARCH, key=85, ts=10))
        add(DbRequest(op=Opcode.SEARCH, table_id=0, ts=11, txn_id=0,
                      key_addr=cells))
        add(DbRequest(op=Opcode.INSERT, table_id=0, ts=12, txn_id=0,
                      key_addr=cells + 1))
        return pipe, reqs

    def test_requests_complete_at_the_pinned_times(self, env):
        pipe, reqs = self.stream(env)
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
        assert pipe.lookup_direct(41).fields == ["from-cell"]
        pipe.invariant_check()


class TestSkiplistTiming:
    def test_pipelining_overlaps_point_queries(self, env):
        def run_with(n_inflight):
            local = SimEnv()
            pipe = SkiplistPipeline(local.engine, local.clock, local.dram,
                                    "sl", max_in_flight=n_inflight)
            for k in range(200):
                pipe.bulk_load(k, [k])
            reqs = [req(Opcode.SEARCH, key=(k * 7) % 200, txn_id=k)
                    for k in range(64)]
            collect_results(reqs)
            for r in reqs:
                pipe.submit(r)
            local.run()
            return local.engine.now

        t1 = run_with(1)
        t8 = run_with(8)
        assert t8 < t1 / 2  # depth-bound pipelining still overlaps

    def test_saturation_is_depth_bound(self, env):
        """Beyond ~pipeline depth, extra in-flight requests gain little
        (the Figure 11 shape)."""
        def run_with(n_inflight):
            local = SimEnv()
            pipe = SkiplistPipeline(local.engine, local.clock, local.dram,
                                    "sl", max_in_flight=n_inflight)
            for k in range(200):
                pipe.bulk_load(k, [k])
            reqs = [req(Opcode.SEARCH, key=(k * 7) % 200, txn_id=k)
                    for k in range(64)]
            collect_results(reqs)
            for r in reqs:
                pipe.submit(r)
            local.run()
            return 64 / local.engine.now

        tput8 = run_with(8)
        tput24 = run_with(24)
        assert tput24 < tput8 * 1.3
