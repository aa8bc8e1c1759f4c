"""Tests for the host layer: durable clients, command logging, recovery."""

import pytest

from repro.core import BionicConfig, BionicDB
from repro.host import (
    Checkpoint, CommandLog, DurableClient, RecoveryManager, take_checkpoint,
)
from repro.isa import Gp, ProcedureBuilder
from repro.mem import IndexKind, TableSchema, TxnStatus


def range_partition(n):
    return lambda key, parts: min(key // n, parts - 1)


def build_db(n_workers=2, index_kind=IndexKind.HASH):
    db = BionicDB(BionicConfig(n_workers=n_workers))
    db.define_table(TableSchema(0, "kv", index_kind=index_kind,
                                partition_fn=range_partition(1000)))
    b = ProcedureBuilder("upsert")
    b.update(cp=0, table=0, key=b.at(0))
    b.commit_handler()
    b.ret(0, 0)
    b.load(1, b.at(1))
    b.wrfield(0, 0, Gp(1))
    b.commit()
    db.register_procedure(1, b.build())

    i = ProcedureBuilder("ins")
    i.insert(cp=0, table=0, key=i.at(0))
    i.commit_handler()
    i.ret(0, 0)
    i.commit()
    db.register_procedure(2, i.build())
    return db


class TestCommandLog:
    def test_append_and_finalize(self):
        db = build_db()
        log = CommandLog()
        block = db.new_block(2, [(5, ["v"])], worker=0)
        log.append_pending(block)
        assert log.records()[0].status == "pending"
        db.submit(block, 0)
        db.run()
        log.finalize(block)
        rec = log.records()[0]
        assert rec.status == "committed"
        assert rec.commit_ts == block.header.commit_ts

    def test_double_append_rejected(self):
        db = build_db()
        log = CommandLog()
        block = db.new_block(2, [(5, ["v"])], worker=0)
        log.append_pending(block)
        with pytest.raises(ValueError):
            log.append_pending(block)

    def test_finalize_unknown_rejected(self):
        db = build_db()
        log = CommandLog()
        block = db.new_block(2, [(5, ["v"])], worker=0)
        with pytest.raises(ValueError):
            log.finalize(block)

    def test_commit_order_sorted_by_ts(self):
        db = build_db()
        client = DurableClient(db)
        for k in (10, 20, 30):
            client.execute(2, [(k, [f"v{k}"])], worker=0)
        order = [r.commit_ts for r in client.log.committed_in_order()]
        assert order == sorted(order)
        assert client.committed == 3

    def test_save_load_roundtrip(self, tmp_path):
        db = build_db()
        client = DurableClient(db)
        client.execute(2, [(7, ["seven"])], worker=0)
        path = tmp_path / "cmd.log"
        client.log.save(path)
        loaded = CommandLog.load(path)
        assert len(loaded) == 1
        assert loaded.records()[0].inputs[0] == (7, ["seven"])
        assert loaded.max_commit_ts == client.log.max_commit_ts


class TestCheckpointRecovery:
    def test_checkpoint_snapshots_committed_rows(self):
        db = build_db()
        for k in (1, 2, 1500):
            db.load(0, k, [f"v{k}"])
        ckpt = take_checkpoint(db)
        all_rows = [row for items in ckpt.rows.values() for row in items]
        assert sorted(r[0] for r in all_rows) == [1, 2, 1500]

    def test_checkpoint_skips_dirty_rows(self):
        db = build_db()
        db.load(0, 1, ["clean"])
        db.load(0, 2, ["dirty"])
        db.lookup(0, 2).dirty = True
        ckpt = take_checkpoint(db)
        keys = [r[0] for items in ckpt.rows.values() for r in items]
        assert keys == [1]

    def test_checkpoint_save_load(self, tmp_path):
        db = build_db()
        db.load(0, 1, ["x"])
        ckpt = take_checkpoint(db)
        path = tmp_path / "ckpt.bin"
        ckpt.save(path)
        loaded = Checkpoint.load(path)
        assert loaded.rows == ckpt.rows

    def test_full_recovery_cycle(self):
        """Load -> run updates+inserts through a durable client ->
        'crash' -> restore checkpoint + replay -> identical state."""
        db = build_db()
        for k in range(10):
            db.load(0, k, [f"init{k}"])
        db.load(0, 1500, ["remote-orig"])  # partition 1
        ckpt = take_checkpoint(db)
        client = DurableClient(db)
        client.execute(1, [3, "updated3"], worker=0)
        client.execute(2, [(100, ["brand-new"])], worker=0)
        client.execute(1, [1500, "remote-upd"], worker=0)  # cross-partition
        assert client.committed == 3

        # ---- crash: rebuild from scratch ----
        db2 = build_db()
        mgr = RecoveryManager(db2)
        restored = mgr.restore_checkpoint(ckpt)
        assert restored == 11
        replayed = mgr.replay(client.log)
        assert replayed == 3
        assert db2.lookup(0, 3).fields == ["updated3"]
        assert db2.lookup(0, 100).fields == ["brand-new"]
        assert db2.lookup(0, 1500).fields == ["remote-upd"]
        assert db2.lookup(0, 5).fields == ["init5"]
        # hardware clock advanced past the last commit timestamp
        assert db2.hw_clock.current >= client.log.max_commit_ts

    def test_replay_ignores_uncommitted(self):
        db = build_db()
        db.load(0, 1, ["v"])
        client = DurableClient(db)
        # aborts: update of a missing key
        block = client.execute(1, [999, "nope"], worker=0)
        assert block.header.status is TxnStatus.ABORTED
        client.execute(1, [1, "yes"], worker=0)

        db2 = build_db()
        db2.load(0, 1, ["v"])
        replayed = RecoveryManager(db2).replay(client.log)
        assert replayed == 1
        assert db2.lookup(0, 1).fields == ["yes"]

    def test_recovery_is_idempotent_state(self):
        """Replaying the same log onto the same checkpoint twice gives
        byte-identical table contents."""
        db = build_db()
        for k in range(5):
            db.load(0, k, [k])
        ckpt = take_checkpoint(db)
        client = DurableClient(db)
        for k in range(5):
            client.execute(1, [k, k * 100], worker=0)

        def rebuild():
            fresh = build_db()
            mgr = RecoveryManager(fresh)
            mgr.restore_checkpoint(ckpt)
            mgr.replay(client.log)
            return sorted((k, tuple(f), ts) for k, f, ts in
                          fresh.workers[0].hash_pipe.checkpoint_rows(0))

        assert rebuild() == rebuild()
