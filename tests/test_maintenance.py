"""Tests for tombstone garbage collection."""

import pytest

from repro.core import BionicConfig, BionicDB
from repro.host import compact
from repro.isa import ProcedureBuilder
from repro.mem import IndexKind, TableSchema, TxnStatus


def remove_proc(table=0):
    b = ProcedureBuilder("rm")
    b.remove(cp=0, table=table, key=b.at(0))
    b.commit_handler()
    b.ret(0, 0)
    b.commit()
    return b.build()


def build(index_kind=IndexKind.HASH):
    db = BionicDB(BionicConfig(n_workers=2))
    db.define_table(TableSchema(0, "kv", index_kind=index_kind,
                                hash_buckets=8,  # force conflict chains
                                partition_fn=lambda k, n: k % n))
    db.register_procedure(1, remove_proc())
    for k in range(40):
        db.load(0, k, [k])
    return db


def delete_keys(db, keys):
    blocks = [db.new_block(1, [k], worker=k % 2) for k in keys]
    report = db.run_all(blocks, workers=[k % 2 for k in keys])
    assert report.committed == len(keys)


class TestHashCompaction:
    @staticmethod
    def _total_chain_cells(db):
        total = 0
        for w in (0, 1):
            pipe = db.workers[w].hash_pipe
            base, n_buckets = pipe._tables[0]
            for b in range(n_buckets):
                addr = db.heap.load(base + b)
                while addr:
                    total += 1
                    addr = db.heap.load(addr).next_addr
        return total

    def test_removes_committed_tombstones(self):
        db = build()
        delete_keys(db, [0, 5, 10, 15])
        before = self._total_chain_cells(db)
        stats = compact(db)
        assert stats.hash_tombstones_removed == 4
        assert self._total_chain_cells(db) == before - 4

    def test_live_rows_survive(self):
        db = build()
        delete_keys(db, [2, 4, 6])
        compact(db)
        for k in range(40):
            rec = db.lookup(0, k)
            if k in (2, 4, 6):
                assert rec is None
            else:
                assert rec is not None and rec.fields == [k]

    def test_dirty_tombstones_kept(self):
        db = build()
        delete_keys(db, [8])
        # an in-flight REMOVE (dirty) must not be collected
        rec = db.workers[1].hash_pipe.lookup_direct(9)
        rec.dirty = True
        rec.tombstone = True
        stats = compact(db)
        assert stats.hash_tombstones_removed == 1  # only key 8
        rec.dirty = False  # restore for hygiene

    def test_idempotent(self):
        db = build()
        delete_keys(db, [1, 3])
        assert compact(db).total == 2
        assert compact(db).total == 0


class TestSkiplistCompaction:
    def test_removes_and_keeps_structure(self):
        db = build(IndexKind.SKIPLIST)
        delete_keys(db, [4, 8, 12, 16, 20])
        stats = compact(db)
        assert stats.skiplist_tombstones_removed == 5
        for w in (0, 1):
            db.workers[w].skiplist_pipe.invariant_check()
        for k in range(40):
            rec = db.lookup(0, k)
            if k in (4, 8, 12, 16, 20):
                assert rec is None
            else:
                assert rec is not None

    def test_index_still_usable_after_compaction(self):
        db = build(IndexKind.SKIPLIST)
        delete_keys(db, [6, 7])
        compact(db)
        from repro.isa import Gp
        b = ProcedureBuilder("get")
        b.search(cp=0, table=0, key=b.at(0))
        b.commit_handler()
        b.ret(0, 0)
        b.store(Gp(0), b.at(1))
        b.commit()
        db.register_procedure(2, b.build())
        block = db.new_block(2, [8, None], worker=0)
        db.submit(block, 0)
        db.run()
        assert block.header.status is TxnStatus.COMMITTED


class TestMultiNodeMachine:
    """Checkpoint, compact and restore walk each worker's own pipeline,
    so they work where workers sit on different heaps."""

    @pytest.mark.parametrize("index_kind", [
        IndexKind.HASH, IndexKind.SKIPLIST, IndexKind.BPTREE])
    def test_checkpoint_compact_restore_two_by_two(self, index_kind):
        from repro.host import RecoveryManager, take_checkpoint
        from repro.host.recovery import partition_hashes

        def build_2x2():
            db = BionicDB(BionicConfig(n_workers=2), n_nodes=2)
            db.define_table(TableSchema(0, "kv", index_kind=index_kind,
                                        hash_buckets=8,
                                        partition_fn=lambda k, n: k % n))
            return db

        db = build_2x2()
        db.register_procedure(1, remove_proc())
        for k in range(40):
            db.load(0, k, [k])
        doomed = [1, 2, 3, 4, 9, 14]            # every partition, both nodes
        blocks = [db.new_block(1, [k], worker=k % 4) for k in doomed]
        report = db.run_all(blocks, workers=[k % 4 for k in doomed])
        assert report.committed == len(doomed)

        before = partition_hashes(db)
        assert sorted(before) == [f"t0.p{p}" for p in range(4)]
        ckpt = take_checkpoint(db)
        stats = compact(db)
        assert getattr(stats, f"{index_kind}_tombstones_removed") == len(doomed)
        assert stats.total == len(doomed)
        assert partition_hashes(db) == before
        for k in range(40):
            assert (db.lookup(0, k) is None) == (k in doomed)

        fresh = build_2x2()
        assert RecoveryManager(fresh).restore_checkpoint(ckpt) == 34
        assert partition_hashes(fresh) == before
        assert partition_hashes(fresh, {1, 2}) == {
            name: before[name] for name in ("t0.p1", "t0.p2")}
