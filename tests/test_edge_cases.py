"""Edge-case coverage: memory-port corners, key encoding, worker plumbing."""

import pytest

from repro.core import BionicConfig, BionicDB
from repro.index.common import _key_bytes, sdbm_hash
from repro.isa import Gp, ProcedureBuilder
from repro.mem import IndexKind, TableSchema, TxnStatus
from repro.sim import ClockDomain, DramModel, Engine, Heap


class TestMemoryPortCorners:
    def test_apply_event_fires_after_mutation(self):
        eng = Engine()
        clock = ClockDomain(eng, 125.0)
        heap = Heap()
        dram = DramModel(eng, clock, heap, latency_cycles=5)
        addr = heap.alloc()
        heap.store(addr, {"n": 0})
        port = dram.new_port("p")
        seen = []

        def proc():
            yield port.apply(addr, lambda cell: cell.update(n=cell["n"] + 1))
            seen.append(heap.load(addr)["n"])

        eng.start(proc())
        eng.run()
        assert seen == [1]

    def test_post_apply_fire_and_forget(self):
        eng = Engine()
        clock = ClockDomain(eng, 125.0)
        heap = Heap()
        dram = DramModel(eng, clock, heap, latency_cycles=5)
        addr = heap.alloc()
        heap.store(addr, [0])
        port = dram.new_port("p")
        port.post_apply(addr, lambda cell: cell.__setitem__(0, 9))
        eng.run()
        assert heap.load(addr) == [9]


class TestKeyBytes:
    def test_int_widths(self):
        assert len(_key_bytes(0)) == 8
        assert len(_key_bytes(-1)) == 8
        assert len(_key_bytes(2**80)) > 8

    def test_bool_and_bytes(self):
        assert _key_bytes(True) == b"\x01"
        assert _key_bytes(b"abc") == b"abc"

    def test_nested_tuples(self):
        assert isinstance(sdbm_hash(((1, 2), "x")), int)

    def test_distinct_tuples_distinct_bytes(self):
        assert _key_bytes((1, 2)) != _key_bytes((2, 1))

    def test_negative_keys_hash_and_index(self):
        from conftest import SimEnv, collect_results
        from repro.index.hash.pipeline import HashIndexPipeline
        env = SimEnv()
        pipe = HashIndexPipeline(env.engine, env.clock, env.dram, "h",
                                 n_buckets=64)
        pipe.bulk_load(-42, ["neg"])
        assert pipe.lookup_direct(-42).fields == ["neg"]


class TestWorkerPlumbing:
    def test_pipeline_for_selects_by_index_kind(self):
        db = BionicDB(BionicConfig(n_workers=1))
        db.define_table(TableSchema(0, "h", index_kind=IndexKind.HASH,
                                    hash_buckets=64,
                                    partition_fn=lambda k, n: 0))
        db.define_table(TableSchema(1, "s", index_kind=IndexKind.SKIPLIST,
                                    partition_fn=lambda k, n: 0))
        worker = db.workers[0]
        assert worker.pipeline_for(0) is worker.hash_pipe
        assert worker.pipeline_for(1) is worker.skiplist_pipe

    def test_replicated_table_loaded_everywhere(self):
        db = BionicDB(BionicConfig(n_workers=3))
        db.define_table(TableSchema(0, "items", replicated=True,
                                    hash_buckets=64))
        db.load(0, 5, ["everywhere"])
        for w in range(3):
            rec = db.workers[w].hash_pipe.lookup_direct(5)
            assert rec is not None and rec.fields == ["everywhere"]

    def test_abort_handler_section_runs_custom_code(self):
        """A user-defined abort handler can publish diagnostics before
        the native rollback."""
        db = BionicDB(BionicConfig(n_workers=1))
        db.define_table(TableSchema(0, "kv", hash_buckets=64,
                                    partition_fn=lambda k, n: 0))
        b = ProcedureBuilder("diag")
        b.search(cp=0, table=0, key=b.at(0))
        b.ret(0, 0)
        b.abort_handler()
        b.mov(1, 777)
        b.store(Gp(1), b.at(1))   # diagnostic marker
        b.abort()
        db.register_procedure(1, b.build())
        block = db.new_block(1, [999, None], worker=0)
        db.submit(block, 0)
        db.run()
        assert block.header.status is TxnStatus.ABORTED
        assert block.input_cell(1) == 777

    def test_lookup_replicated_table(self):
        db = BionicDB(BionicConfig(n_workers=2))
        db.define_table(TableSchema(0, "items", replicated=True,
                                    hash_buckets=64))
        db.load(0, 9, ["x"])
        assert db.lookup(0, 9).fields == ["x"]
