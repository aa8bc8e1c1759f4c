"""Tests for the batched level-wise B+ tree index coprocessor."""

import random

import pytest

from repro.core import BionicConfig, BionicDB
from repro.baseline.bptree import BPlusTree
from repro.index import common as index_common
from repro.index.bptree.pipeline import (
    BPTreePipeline, compute_level_ranges,
)
from repro.index.common import DbRequest, sdbm_hash
from repro.isa import Opcode
from repro.isa.assembler import assemble
from repro.isa.disassembler import disassemble
from repro.isa.instructions import BlockRef, Imm, Instruction, IsaError
from repro.mem.schema import IndexKind, TableSchema
from repro.txn import ResultCode
from repro.workloads.ycsb import (
    PROC_RANGE, YcsbConfig, YcsbWorkload,
)

from conftest import SimEnv, SmallNodeBPTree, collect_results


def make_pipeline(env: SimEnv, cls=BPTreePipeline, **kw) -> BPTreePipeline:
    return cls(env.engine, env.clock, env.dram, "bp0", stats=env.stats, **kw)


def req(op, key=None, ts=1, txn_id=1, **kw):
    return DbRequest(op=op, table_id=0, ts=ts, txn_id=txn_id,
                     key_value=key, **kw)


def commit_all(env: SimEnv, pipe: BPTreePipeline, table_id: int = 0):
    """Clear the dirty bit on every record, tombstones included (the
    stand-in commit protocol)."""
    state = pipe._tables[table_id]
    for _addr, leaf in pipe._leaves(state):
        for rec_addr in leaf.children:
            rec = env.heap.load(rec_addr)
            if rec is not None:
                rec.dirty = False


class TestLevelRanges:
    def test_deep_tree_bottom_heavy(self):
        ranges = compute_level_ranges(10, 4)
        assert ranges[0] == (0, 6)       # stage 0 absorbs the remainder
        assert ranges[1:] == [(7, 7), (8, 8), (9, 9)]
        covered = []
        for rng in ranges:
            covered.extend(range(rng[0], rng[1] + 1))
        assert covered == list(range(10))

    def test_shallow_tree_skips_early_stages(self):
        # a 2-level tree on 4 stages: first two stages idle
        assert compute_level_ranges(2, 4) == [None, None, (0, 0), (1, 1)]

    def test_single_level(self):
        assert compute_level_ranges(1, 4) == [None, None, None, (0, 0)]
        assert compute_level_ranges(1, 1) == [(0, 0)]

    def test_empty_index(self):
        assert compute_level_ranges(0, 4) == [None, None, None, None]

    def test_height_equals_stages(self):
        assert compute_level_ranges(4, 4) == [(0, 0), (1, 1), (2, 2), (3, 3)]

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            compute_level_ranges(4, 0)
        with pytest.raises(ValueError):
            compute_level_ranges(-1, 4)


class TestConfigValidation:
    def test_pipeline_ctor_validation(self, env):
        with pytest.raises(ValueError):
            make_pipeline(env, wave_size=0)


class TestHashCacheBound:
    def test_closed_form_int_hash_matches_byte_serial(self):
        for key in (0, 1, 7, 65599, 2**31, 2**63 - 1):
            h = 0
            for byte in index_common._key_bytes(key):
                h = (byte + (h << 6) + (h << 16) - h) & 0xFFFFFFFFFFFFFFFF
            h ^= h >> 33
            h ^= h >> 17
            assert sdbm_hash(key) == h, key


class TestBulkLoadAndDirect:
    def test_bulk_load_sorted_lookup(self, env):
        pipe = make_pipeline(env)
        for k in [5, 1, 9, 3, 7]:
            pipe.bulk_load(k, [f"v{k}"])
        assert [k for k, _ in pipe.items_direct()] == [1, 3, 5, 7, 9]
        assert pipe.lookup_direct(7).fields == ["v7"]
        assert pipe.lookup_direct(4) is None
        pipe.invariant_check()

    def test_ascending_batch_descends_once_per_leaf_split(self, env):
        pipe = make_pipeline(env)
        assert pipe.bulk_load_many(range(400), [[k] for k in range(400)]) == 400
        assert pipe.load_rows.value == 400
        # a full leaf splits 8 / 8, so the rightmost one refills — and
        # drops the remembered path — every eighth row
        ascending = pipe.load_descents.value
        assert 0 < ascending <= 400 // 8
        pipe.bulk_load_many(range(500, 400, -1),
                            [[k] for k in range(500, 400, -1)])
        assert pipe.load_descents.value == ascending + 100
        assert pipe.tuple_count == 500
        pipe.invariant_check()

    def test_bulk_load_many_invariants(self, env):
        pipe = make_pipeline(env, SmallNodeBPTree)
        keys = list(range(200))
        random.Random(3).shuffle(keys)
        for k in keys:
            pipe.bulk_load(k, [k])
        pipe.invariant_check()
        assert pipe.depth_of(0) >= 3
        assert [k for k, _ in pipe.items_direct()] == list(range(200))

    def test_bulk_load_duplicate_rejected(self, env):
        pipe = make_pipeline(env)
        pipe.bulk_load(7, ["a"])
        with pytest.raises(ValueError):
            pipe.bulk_load(7, ["b"])


class TestPointOps:
    def test_insert_then_search(self, env):
        pipe = make_pipeline(env)
        ins = req(Opcode.INSERT, key=42, insert_payload=["hello"])
        results = collect_results([ins])
        pipe.submit(ins)
        env.run()
        assert results[0][1].code is ResultCode.OK
        commit_all(env, pipe)
        s = req(Opcode.SEARCH, key=42, ts=2, txn_id=2)
        results = collect_results([s])
        pipe.submit(s)
        env.run()
        assert results[0][1].code is ResultCode.OK
        assert results[0][1].value == "hello"

    def test_search_missing(self, env):
        pipe = make_pipeline(env)
        for k in range(0, 20, 2):
            pipe.bulk_load(k, [k])
        s = req(Opcode.SEARCH, key=7)
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

    def test_duplicate_insert_rejected(self, env):
        pipe = make_pipeline(env)
        pipe.bulk_load(5, ["v"])
        commit_all(env, pipe)
        ins = req(Opcode.INSERT, key=5, insert_payload=["w"], ts=2, txn_id=2)
        results = collect_results([ins])
        pipe.submit(ins)
        env.run()
        assert results[0][1].code is ResultCode.DUPLICATE
        assert pipe.lookup_direct(5).fields == ["v"]

    def test_insert_reclaims_committed_tombstone(self, env):
        pipe = make_pipeline(env)
        pipe.bulk_load(5, ["old"])
        rec = pipe.lookup_direct(5)
        rec.dirty = False
        rec.tombstone = True
        ins = req(Opcode.INSERT, key=5, insert_payload=["new"], ts=3, txn_id=3)
        results = collect_results([ins])
        pipe.submit(ins)
        env.run()
        assert results[0][1].code is ResultCode.OK
        commit_all(env, pipe)
        assert pipe.lookup_direct(5).fields == ["new"]
        pipe.invariant_check()

    def test_remove_tombstones_only(self, env):
        pipe = make_pipeline(env)
        for k in range(10):
            pipe.bulk_load(k, [k])
        r = req(Opcode.REMOVE, key=4, ts=2, txn_id=2)
        results = collect_results([r])
        pipe.submit(r)
        env.run()
        assert results[0][1].code is ResultCode.OK
        rec = pipe.lookup_direct(4)
        assert rec is not None and rec.tombstone   # logically deleted only
        rec.dirty = False
        s = req(Opcode.SEARCH, key=4, ts=3, txn_id=3)
        results = collect_results([s])
        pipe.submit(s)
        env.run()
        assert results[0][1].code is ResultCode.NOT_FOUND

    def test_interleaved_pipeline_inserts_keep_structure(self, env):
        pipe = make_pipeline(env, SmallNodeBPTree, wave_size=8)
        keys = list(range(80))
        random.Random(11).shuffle(keys)
        reqs = [req(Opcode.INSERT, key=k, insert_payload=[k], txn_id=i, ts=1)
                for i, k in enumerate(keys)]
        results = collect_results(reqs)
        for r in reqs:
            pipe.submit(r)
        env.run()
        assert all(res.code is ResultCode.OK for _r, res in results)
        pipe.invariant_check()
        assert [k for k, _ in pipe.items_direct()] == list(range(80))
        assert pipe.depth_of(0) >= 3


class TestWaveDedup:
    def _fetches(self, wave_size: int) -> int:
        env = SimEnv()
        pipe = make_pipeline(env, wave_size=wave_size, max_in_flight=64)
        for k in range(500):
            pipe.bulk_load(k, [k])
        rng = random.Random(7)
        reqs = [req(Opcode.SEARCH, key=rng.randrange(500), txn_id=i)
                for i in range(64)]
        results = collect_results(reqs)
        for r in reqs:
            pipe.submit(r)
        env.run()
        assert all(res.code is ResultCode.OK for _r, res in results)
        return pipe.node_fetches.value

    def test_batching_reduces_node_fetches(self):
        # the acceptance criterion: at batch >= 8, level-wise dedup
        # charges DRAM for strictly fewer node fetches than one-at-a-time
        batched = self._fetches(8)
        serial = self._fetches(1)
        assert batched < serial

    def test_wave_counter_advances(self, env):
        pipe = make_pipeline(env, wave_size=4)
        for k in range(10):
            pipe.bulk_load(k, [k])
        reqs = [req(Opcode.SEARCH, key=k, txn_id=k) for k in range(8)]
        collect_results(reqs)
        for r in reqs:
            pipe.submit(r)
        env.run()
        assert pipe.waves_formed.value >= 2


class TestRangeScan:
    def _loaded(self, env, n=100, **kw):
        pipe = make_pipeline(env, SmallNodeBPTree, **kw)
        for k in range(n):
            pipe.bulk_load(k, [f"v{k}"])
        return pipe

    def _scan(self, env, pipe, lo, hi, count=50, limit=64, out_cells=64,
              ts=5):
        out = env.heap.alloc(out_cells)
        s = req(Opcode.RANGE_SCAN, key=lo, ts=ts)
        s.scan_hi = hi
        s.scan_count = count
        s.scan_limit = limit
        s.scan_out_addr = out
        results = collect_results([s])
        pipe.submit(s)
        env.run()
        code, n = results[0][1].code, results[0][1].value
        rows = [env.heap.load(out + i) for i in range(n or 0)]
        return code, rows

    def test_inclusive_bounds(self, env):
        pipe = self._loaded(env)
        code, rows = self._scan(env, pipe, 10, 14)
        assert code is ResultCode.OK
        assert [k for k, _f in rows] == [10, 11, 12, 13, 14]

    def test_high_key_before_count_limit(self, env):
        pipe = self._loaded(env)
        code, rows = self._scan(env, pipe, 10, 12, count=50)
        assert [k for k, _f in rows] == [10, 11, 12]

    def test_count_limit_before_high_key(self, env):
        pipe = self._loaded(env)
        code, rows = self._scan(env, pipe, 10, 40, count=5)
        assert [k for k, _f in rows] == [10, 11, 12, 13, 14]

    def test_scan_past_end(self, env):
        pipe = self._loaded(env, n=20)
        code, rows = self._scan(env, pipe, 15, 99)
        assert [k for k, _f in rows] == [15, 16, 17, 18, 19]

    def test_overflow_reported(self, env):
        pipe = self._loaded(env)
        code, rows = self._scan(env, pipe, 0, 80, count=50, limit=4,
                                out_cells=4)
        assert code is ResultCode.SCAN_OVERFLOW

    def test_skips_invisible_tuples(self, env):
        pipe = self._loaded(env, n=10)
        pipe.lookup_direct(3).write_ts = 99    # future insert
        pipe.lookup_direct(4).tombstone = True  # committed delete
        code, rows = self._scan(env, pipe, 0, 9, ts=5)
        keys = [k for k, _f in rows]
        assert 3 not in keys and 4 not in keys
        assert keys == [0, 1, 2, 5, 6, 7, 8, 9]

    def test_sets_read_timestamps(self, env):
        pipe = self._loaded(env, n=10)
        self._scan(env, pipe, 2, 4, ts=9)
        assert pipe.lookup_direct(2).read_ts == 9
        assert pipe.lookup_direct(4).read_ts == 9
        assert pipe.lookup_direct(5).read_ts == 0

    def test_plain_scan_unbounded(self, env):
        pipe = self._loaded(env, n=30)
        out = env.heap.alloc(64)
        s = req(Opcode.SCAN, key=25, ts=5)
        s.scan_count = 50
        s.scan_limit = 64
        s.scan_out_addr = out
        results = collect_results([s])
        pipe.submit(s)
        env.run()
        assert results[0][1].value == 5  # keys 25..29, no high bound


class TestMaintenance:
    def test_insert_purges_overflowing_leaf(self, env):
        pipe = make_pipeline(env, SmallNodeBPTree)
        for k in range(4):
            pipe.bulk_load(k, [k])
        # tombstone-commit two entries; the next overflow purges them
        for k in (0, 2):
            rec = pipe.lookup_direct(k)
            rec.tombstone = True
            rec.dirty = False
        ins = req(Opcode.INSERT, key=9, insert_payload=[9], ts=2, txn_id=2)
        results = collect_results([ins])
        pipe.submit(ins)
        env.run()
        assert results[0][1].code is ResultCode.OK
        pipe.invariant_check()
        assert pipe.lookup_direct(0) is None
        commit_all(env, pipe)
        assert [k for k, _ in pipe.items_direct()] == [1, 3, 9]


class TestEngines:
    """A mixed point/range-scan stream on one B+ tree pipeline: every
    request must complete at the time and with the result code pinned
    here.

    The first eight requests form one wave; inserts split leaves and
    grow the tree from three levels to four; a key and an INSERT
    ``(key, fields)`` pair are read from block cells.
    """

    #: txn_id -> (completion time in ns, result code)
    PINNED = {
        0: (5488.0, "OK"), 1: (6528.0, "OK"),
        2: (7088.0, "OK"), 3: (7648.0, "OK"),
        4: (12968.0, "OK"), 5: (14512.0, "OK"),
        6: (15552.0, "OK"), 7: (16112.0, "OK"),
        8: (17208.0, "CC_REJECT"), 9: (18304.0, "OK"),
        10: (21960.0, "OK"), 11: (23536.0, "OK"),
        12: (24632.0, "OK"), 13: (25728.0, "CC_REJECT"),
        14: (27808.0, "OK"), 15: (29384.0, "OK"),
        16: (30480.0, "OK"), 17: (31576.0, "OK"),
        18: (36384.0, "OK"), 19: (40040.0, "OK"),
        20: (41616.0, "OK"), 21: (42712.0, "OK"),
        22: (43808.0, "OK"), 23: (45888.0, "OK"),
        24: (47464.0, "OK"), 25: (48560.0, "OK"),
        26: (49656.0, "OK"), 27: (50752.0, "OK"),
        28: (54728.0, "OK"), 29: (56304.0, "OK"),
        30: (57400.0, "OK"), 31: (58496.0, "OK"),
        32: (64296.0, "OK"), 33: (66376.0, "OK"),
        34: (67952.0, "OK"), 35: (69048.0, "OK"),
        36: (70144.0, "CC_REJECT"), 37: (71240.0, "OK"),
        38: (72816.0, "OK"),
    }
    #: firings this stream needs: a ceiling, not a pin
    EVENTS_CEILING = 755

    class Pipeline(SmallNodeBPTree):
        #: the 6-cycle scanner (visibility check and buffer write) the
        #: stream was pinned with
        scan_emit_cycles = 6.0

    @classmethod
    def stream(cls, env):
        pipe = make_pipeline(env, cls.Pipeline, max_in_flight=8)
        for k in range(0, 60, 2):
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
            add(req(Opcode.INSERT, key=61 + 2 * k, ts=6, insert_payload=[k]))
            add(req(Opcode.INSERT, key=4 * k + 1, ts=6, insert_payload=[k]))
            add(req(Opcode.SEARCH, key=4 * k, ts=5))
            add(req(Opcode.UPDATE, key=4 * k + 2, ts=7))
            if k % 3 == 0:
                s = add(req(Opcode.RANGE_SCAN, key=10 * k, ts=8))
                s.scan_hi = 10 * k + 12
                s.scan_count = 5
                s.scan_limit = 8
                s.scan_out_addr = out + 8 * (k // 3)
            if k % 4 == 1:
                add(req(Opcode.REMOVE, key=50 + k + 1, ts=9))
        add(DbRequest(op=Opcode.SEARCH, table_id=0, ts=11, txn_id=0,
                      key_addr=cells))
        add(DbRequest(op=Opcode.INSERT, table_id=0, ts=12, txn_id=0,
                      key_addr=cells + 1))
        return pipe, reqs

    def test_requests_complete_at_the_pinned_times(self, env):
        pipe, reqs = self.stream(env)
        assert pipe.depth_of(0) == 3
        done = {}

        def on_complete(r, result):
            done[r.txn_id] = (env.engine.now, result.code.name)

        for r in reqs:
            r.on_complete = on_complete
            pipe.submit(r)
        env.run()
        assert done == self.PINNED
        assert env.engine.events_fired <= self.EVENTS_CEILING
        assert pipe.waves_formed.value == 32      # one of them 8 probes
        assert pipe.node_fetches.value == 111
        assert pipe.depth_of(0) == 4
        assert pipe.lookup_direct(41).fields == ["from-cell"]
        pipe.invariant_check()


class TestGoldenParity:
    def test_randomized_ops_match_software_bptree(self, env):
        """Seeded insert/delete/scan interleavings against the golden
        software B+ tree (the baseline's Masstree stand-in)."""
        pipe = make_pipeline(env, SmallNodeBPTree, wave_size=4)
        golden = BPlusTree(fanout=4)
        rng = random.Random(1234)
        alive = set()
        ts = 1
        for round_no in range(30):
            batch = []
            touched = set()   # one op per key per round (no dirty reuse)
            for _ in range(rng.randrange(1, 8)):
                roll = rng.random()
                removable = sorted(alive - touched)
                if roll < 0.6 or not removable:
                    k = rng.randrange(1000)
                    if k in alive or k in touched:
                        continue
                    alive.add(k)
                    touched.add(k)
                    golden.insert(k, [k])
                    batch.append(req(Opcode.INSERT, key=k,
                                     insert_payload=[k], ts=ts, txn_id=ts))
                else:
                    k = rng.choice(removable)
                    alive.discard(k)
                    touched.add(k)
                    golden.remove(k)
                    batch.append(req(Opcode.REMOVE, key=k, ts=ts, txn_id=ts))
                ts += 1
            results = collect_results(batch)
            for r in batch:
                pipe.submit(r)
            env.run()
            assert all(res.code is ResultCode.OK for _r, res in results)
            commit_all(env, pipe)
            # cross-check a random range scan every round
            lo = rng.randrange(1000)
            hi = lo + rng.randrange(1, 120)
            got = [(k, f) for k, f in pipe.items_direct() if lo <= k <= hi]
            want = golden.scan_range(lo, hi)
            assert got == want, f"round {round_no}: [{lo}, {hi}]"
        pipe.invariant_check()
        assert [k for k, _ in pipe.items_direct()] == sorted(alive)


class TestIsaRangeScan:
    def test_validate_requires_operands(self):
        with pytest.raises(IsaError):
            Instruction(Opcode.RANGE_SCAN, cp=0, table=0,
                        key=BlockRef(0), b=BlockRef(1),
                        a=None, addr=BlockRef(4)).validate()
        with pytest.raises(IsaError):
            Instruction(Opcode.RANGE_SCAN, cp=0, table=0,
                        key=BlockRef(0), b=None,
                        a=Imm(5), addr=BlockRef(4)).validate()

    def test_assemble_disassemble_round_trip(self):
        y = YcsbWorkload(YcsbConfig(index_kind=IndexKind.BPTREE))
        program = y.range_procedure(16, y.range_layout())
        program.finalize()
        text = disassemble(program)
        assert "RANGE_SCAN" in text
        programs = assemble(text)
        program2 = next(iter(programs.values()))
        ops = [i.opcode for i in program2.logic]
        assert Opcode.RANGE_SCAN in ops

    def test_hash_index_rejects_range_scan(self, env):
        from repro.index.hash.pipeline import HashIndexPipeline
        from repro.index.common import IndexError_
        pipe = HashIndexPipeline(env.engine, env.clock, env.dram, "h0",
                                 n_buckets=64, stats=env.stats)
        s = req(Opcode.RANGE_SCAN, key=0)
        s.scan_hi = 10
        s.scan_count = 10
        pipe.submit(s)
        with pytest.raises(IndexError_):
            env.run()


class TestSystemIntegration:
    def _db(self, n_partitions=2, records=400, scan_length=16):
        cfg = YcsbConfig(records_per_partition=records,
                         n_partitions=n_partitions,
                         scan_length=scan_length,
                         index_kind=IndexKind.BPTREE, payload="p")
        wl = YcsbWorkload(cfg)
        db = BionicDB(BionicConfig(n_workers=n_partitions))
        wl.install(db, procedures=(4,))
        return db, wl

    def test_range_scan_transactions_commit(self):
        db, wl = self._db()
        golden = BPlusTree()
        for k in range(wl.config.total_records):
            golden.insert(k, "p")
        specs = wl.make_range_txns(6)
        report, blocks = wl.submit_all(db, specs)
        assert report.committed == 6 and report.aborted == 0
        for spec, blk in zip(specs, blocks):
            lo, hi = spec.inputs
            want = len(golden.scan_range(lo, hi,
                                         limit=wl.config.scan_length))
            assert blk.outputs()[0] == want

    def test_point_reads_on_bptree_table(self):
        db, wl = self._db()
        specs = wl.make_read_txns(8, reads_per_txn=4)
        report, _blocks = wl.submit_all(db, specs)
        assert report.committed == 8

    def test_checkpoint_restore_round_trip(self):
        from repro.host.recovery import RecoveryManager, take_checkpoint
        db, wl = self._db(records=100)
        ckpt = take_checkpoint(db)
        assert sum(len(v) for v in ckpt.rows.values()) == \
            wl.config.total_records
        db2, _wl2 = self._db(records=100)
        # wipe and restore into a fresh instance
        cfg2 = YcsbConfig(records_per_partition=100, n_partitions=2,
                          scan_length=16, index_kind=IndexKind.BPTREE,
                          payload="p")
        wl2 = YcsbWorkload(cfg2)
        db3 = BionicDB(BionicConfig(n_workers=2))
        wl2.install(db3, load_data=False)
        restored = RecoveryManager(db3).restore_checkpoint(ckpt)
        assert restored == wl.config.total_records
        assert db3.lookup(0, 5).fields == ["p"]

    def test_resource_ledger_includes_bptree_when_used(self):
        db, _wl = self._db()
        rows = {r["module"] for r in db.resource_ledger().table()}
        assert "BPTree" in rows

    def test_ledger_omits_bptree_when_unused(self):
        db = BionicDB(BionicConfig(n_workers=2))
        db.define_table(TableSchema(0, "kv", index_kind=IndexKind.HASH))
        rows = {r["module"] for r in db.resource_ledger().table()}
        assert "BPTree" not in rows
