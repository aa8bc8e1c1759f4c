"""End-to-end tests: stored procedures through the whole machine."""

import pytest

from repro.core import BionicConfig, BionicDB
from repro.isa import Gp, ProcedureBuilder
from repro.mem import IndexKind, TableSchema, TxnStatus


def range_partition(n_keys_per_part):
    def fn(key, n_partitions):
        return min(key // n_keys_per_part, n_partitions - 1)
    return fn


def make_db(n_workers=2, **cfg_kw) -> BionicDB:
    db = BionicDB(BionicConfig(n_workers=n_workers, **cfg_kw))
    db.define_table(TableSchema(0, "kv", index_kind=IndexKind.HASH,
                                partition_fn=range_partition(1000)))
    return db


def read_proc(n_reads=1):
    """SEARCH key at @i -> store the tuple address to the output buffer."""
    b = ProcedureBuilder(f"read{n_reads}")
    for i in range(n_reads):
        b.search(cp=i, table=0, key=b.at(i))
    b.commit_handler()
    for i in range(n_reads):
        b.ret(i, i)
        b.store(Gp(i), b.at(8 + i))
    b.commit()
    return b.build()


def update_proc():
    """UPDATE the tuple at @0, write field 0 := @1, UNDO-logged."""
    b = ProcedureBuilder("upd")
    b.update(cp=0, table=0, key=b.at(0))
    b.commit_handler()
    b.ret(0, 0)
    b.load(1, b.at(1))
    b.wrfield(0, 0, Gp(1))
    b.commit()
    return b.build()


def insert_proc():
    b = ProcedureBuilder("ins")
    b.insert(cp=0, table=0, key=b.at(0))  # cell holds (key, fields)
    b.commit_handler()
    b.ret(0, 0)
    b.commit()
    return b.build()


class TestSingleTxn:
    def test_read_commits_and_outputs_address(self):
        db = make_db()
        db.register_procedure(0, read_proc(1))
        db.load(0, 7, ["seven"])
        block = db.new_block(0, [7], worker=0)
        db.submit(block)
        db.run()
        assert block.header.status is TxnStatus.COMMITTED
        addr = block.outputs()[0]
        assert db.dram.direct_read(addr).fields == ["seven"]

    def test_read_missing_key_aborts(self):
        db = make_db()
        db.register_procedure(0, read_proc(1))
        block = db.new_block(0, [999], worker=0)
        db.submit(block)
        db.run()
        assert block.header.status is TxnStatus.ABORTED
        assert "NOT_FOUND" in block.header.abort_reason

    def test_update_applies_in_place(self):
        db = make_db()
        db.register_procedure(1, update_proc())
        db.load(0, 5, ["old"])
        block = db.new_block(1, [5, "new"], worker=0)
        db.submit(block)
        db.run()
        assert block.header.status is TxnStatus.COMMITTED
        rec = db.lookup(0, 5)
        assert rec.fields == ["new"]
        assert not rec.dirty
        assert rec.write_ts == block.header.commit_ts

    def test_insert_becomes_visible_after_commit(self):
        db = make_db()
        db.register_procedure(2, insert_proc())
        block = db.new_block(2, [(123, ["fresh"])], worker=0)
        db.submit(block)
        db.run()
        assert block.header.status is TxnStatus.COMMITTED
        rec = db.lookup(0, 123)
        assert rec is not None and rec.fields == ["fresh"] and not rec.dirty

    def test_multi_read_txn(self):
        db = make_db()
        db.register_procedure(0, read_proc(4))
        for k in range(4):
            db.load(0, k, [f"v{k}"])
        block = db.new_block(0, [0, 1, 2, 3], worker=0)
        db.submit(block)
        db.run()
        assert block.header.status is TxnStatus.COMMITTED
        for i, addr in enumerate(block.outputs()[:4]):
            assert db.dram.direct_read(addr).fields == [f"v{i}"]


class TestBatches:
    def test_many_transactions_all_commit(self):
        db = make_db()
        db.register_procedure(0, read_proc(2))
        for k in range(100):
            db.load(0, k, [k])
        blocks = [db.new_block(0, [k % 100, (k + 1) % 100], worker=0)
                  for k in range(50)]
        report = db.run_all(blocks)
        assert report.committed == 50
        assert report.aborted == 0
        assert report.throughput_tps > 0

    def test_interleaving_faster_than_serial(self):
        def run(interleaving):
            from repro.softcore import SoftcoreConfig
            db = make_db(n_workers=1,
                         softcore=SoftcoreConfig(interleaving=interleaving))
            db.register_procedure(0, read_proc(1))
            for k in range(64):
                db.load(0, k, [k])
            blocks = [db.new_block(0, [k % 64], worker=0) for k in range(64)]
            return db.run_all(blocks)

        serial = run(False)
        inter = run(True)
        assert inter.throughput_tps > serial.throughput_tps * 1.5

    def test_two_workers_scale(self):
        db = make_db(n_workers=2)
        db.register_procedure(0, read_proc(1))
        for k in range(2000):
            db.load(0, k, [k])
        # local transactions on each partition
        blocks, homes = [], []
        for k in range(60):
            key = (k % 2) * 1000 + k % 500
            blocks.append(db.new_block(0, [key]))
            homes.append(k % 2)
        report = db.run_all(blocks, workers=homes)
        assert report.committed == 60


class TestMultisite:
    def test_remote_read_commits(self):
        db = make_db(n_workers=2)
        db.register_procedure(0, read_proc(1))
        db.load(0, 1500, ["remote-row"])  # lives in partition 1
        block = db.new_block(0, [1500], worker=0)  # submitted to worker 0
        db.submit(block)
        db.run()
        assert block.header.status is TxnStatus.COMMITTED
        addr = block.outputs()[0]
        assert db.dram.direct_read(addr).fields == ["remote-row"]
        assert db.stats.counter("worker0.remote_db_instructions").value == 1
        assert db.stats.counter("worker1.background_requests").value == 1

    def test_remote_update_commits_and_applies(self):
        db = make_db(n_workers=2)
        db.register_procedure(1, update_proc())
        db.load(0, 1800, ["before"])
        block = db.new_block(1, [1800, "after"], worker=0)
        db.submit(block)
        db.run()
        assert block.header.status is TxnStatus.COMMITTED
        assert db.lookup(0, 1800).fields == ["after"]

    def test_mixed_local_and_remote(self):
        db = make_db(n_workers=2)
        db.register_procedure(0, read_proc(2))
        db.load(0, 10, ["local"])
        db.load(0, 1010, ["remote"])
        block = db.new_block(0, [10, 1010], worker=0)
        db.submit(block)
        db.run()
        assert block.header.status is TxnStatus.COMMITTED


class TestBackgroundUnits:
    """A remote DB instruction is handed to the destination worker's
    handler; the softcores are the only processes a machine spawns."""

    @staticmethod
    def remote_stream(n_workers, n_txns=20):
        from repro.workloads import YcsbConfig, YcsbWorkload
        workload = YcsbWorkload(YcsbConfig(
            records_per_partition=500, n_partitions=n_workers,
            remote_fraction=1.0, seed=3))
        return workload, workload.make_read_txns(n_txns)

    def test_a_failure_serving_a_remote_request_leaves_run(self, monkeypatch):
        workload, specs = self.remote_stream(2)
        db = BionicDB(BionicConfig(n_workers=2))
        workload.install(db)

        def broken(_table_id):
            raise RuntimeError("coprocessor fault on worker 1")

        monkeypatch.setattr(db.workers[1], "pipeline_for", broken)
        with pytest.raises(RuntimeError, match="coprocessor fault"):
            workload.submit_all(db, specs)

    @pytest.mark.parametrize("n_workers", [2, 4])
    def test_only_the_softcores_are_processes(self, monkeypatch, n_workers):
        from repro.sim.engine import Engine
        spawned = []
        spawn = Engine.process

        def counting(engine, gen, name=""):
            spawned.append(name)
            return spawn(engine, gen, name)

        monkeypatch.setattr(Engine, "process", counting)
        workload, specs = self.remote_stream(n_workers)
        db = BionicDB(BionicConfig(n_workers=n_workers))
        workload.install(db)
        report, _blocks = workload.submit_all(db, specs)
        assert report.committed == len(specs)
        remote = sum(db.stats.counter(f"worker{w}.background_requests").value
                     for w in range(n_workers))
        assert remote > 0
        assert spawned == [f"w{w}.softcore" for w in range(n_workers)]


class TestAbortPaths:
    def test_update_conflict_aborts_and_rolls_back(self):
        """Two workers update one tuple at once — a pair no batch former
        sees: the later arrival hits the dirty bit (blind rejection)
        and must roll back without damage."""
        db = make_db(n_workers=2)
        db.register_procedure(1, update_proc())
        db.load(0, 5, ["orig"])
        local = db.new_block(1, [5, "local"], worker=0)
        remote = db.new_block(1, [5, "remote"], worker=1)
        db.submit(local)
        db.submit(remote)
        db.run()
        assert local.header.status is TxnStatus.COMMITTED
        assert remote.header.status is TxnStatus.ABORTED
        assert remote.header.abort_reason == "UPDATE: CC_REJECT"
        assert db.stats.counter("worker1.aborted.UPDATE.CC_REJECT").value == 1
        rec = db.lookup(0, 5)
        assert rec.fields == ["local"] and not rec.dirty

    def test_same_worker_update_conflict_is_ordered_not_aborted(self):
        db = make_db(n_workers=1)
        db.register_procedure(1, update_proc())
        db.load(0, 5, ["orig"])
        blocks = [db.new_block(1, [5, value], worker=0)
                  for value in ("first", "second")]
        report = db.run_all(blocks)
        assert (report.committed, report.aborted) == (2, 0)
        assert db.lookup(0, 5).fields == ["second"]

    def test_retried_latency_counts_from_the_first_submission(self):
        """run_to_commit resubmits the loser of a cross-worker conflict;
        its latency is the whole wait, not its last attempt."""
        db = make_db(n_workers=2)
        db.register_procedure(1, update_proc())
        db.load(0, 5, ["orig"])
        blocks = [db.new_block(1, [5, "local"], worker=0),
                  db.new_block(1, [5, "remote"], worker=1)]
        start = db.engine.now
        report = db.run_to_commit(blocks)
        assert (report.committed, report.aborted) == (2, 1)   # two rounds
        assert report.latencies_ns == [b.done_at_ns - start for b in blocks]
        retried = blocks[1]
        assert retried.submitted_at_ns > blocks[0].done_at_ns   # round two
        assert report.latencies_ns[1] > \
            retried.done_at_ns - retried.submitted_at_ns
        assert db.lookup(0, 5).fields == ["remote"]

    def test_aborted_insert_is_invisible(self):
        from repro.isa import Opcode, Instruction
        db = make_db(n_workers=1)
        b = ProcedureBuilder("ins-abort")
        b.insert(cp=0, table=0, key=b.at(0))
        b.ret(0, 0)
        b.abort()  # voluntary abort after a successful insert
        db.register_procedure(3, b.build())
        block = db.new_block(3, [(321, ["ghost"])], worker=0)
        db.submit(block)
        db.run()
        assert block.header.status is TxnStatus.ABORTED
        assert db.lookup(0, 321) is None

    def test_undo_restores_field_on_conflict(self):
        """An update that later fails must restore the original value."""
        db = make_db(n_workers=1)
        b = ProcedureBuilder("upd-then-fail")
        b.update(cp=0, table=0, key=b.at(0))
        b.search(cp=1, table=0, key=b.at(2))  # missing key -> abort
        b.commit_handler()
        b.ret(0, 0)
        b.load(1, b.at(1))
        b.wrfield(0, 0, Gp(1))
        b.ret(2, 1)
        b.commit()
        db.register_procedure(4, b.build())
        db.load(0, 7, ["keep-me"])
        block = db.new_block(4, [7, "clobbered", 999], worker=0)
        db.submit(block)
        db.run()
        assert block.header.status is TxnStatus.ABORTED
        rec = db.lookup(0, 7)
        assert rec.fields == ["keep-me"]
        assert not rec.dirty


class TestReports:
    def test_power_report_near_paper(self):
        db = make_db(n_workers=4)
        report = db.power_report()
        assert 10.0 < report.total_w < 13.0  # paper: ~11.5 W

    def test_resource_ledger_fits_device(self):
        db = make_db(n_workers=4)
        ledger = db.resource_ledger()
        assert ledger.fits()
        util = ledger.utilization()
        assert 0.6 < util["lut"] < 0.8  # paper: ~70%

    def test_in_flight_budget_distribution(self):
        db = make_db(n_workers=4)
        db.set_total_in_flight(6)
        caps = [w.hash_pipe.tokens.capacity for w in db.workers]
        assert sum(caps) == 6
        with pytest.raises(ValueError):
            db.set_total_in_flight(0)
