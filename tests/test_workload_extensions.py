"""Tests for workload extensions: YCSB mixes, StockLevel, RETN, latency."""

import pytest

from repro.core import BionicConfig, BionicDB
from repro.isa import Gp, Opcode, ProcedureBuilder, assemble_one, disassemble
from repro.mem import IndexKind, TableSchema, TxnStatus
from repro.softcore import SoftcoreConfig
from repro.workloads import TpccConfig, TpccWorkload, YcsbConfig, YcsbWorkload
from repro.workloads.tpcc import schema as S


class TestRetn:
    def _db(self):
        db = BionicDB(BionicConfig(n_workers=1))
        db.define_table(TableSchema(0, "kv", hash_buckets=256,
                                    partition_fn=lambda k, n: 0))
        return db

    def test_retn_tolerates_not_found(self):
        db = self._db()
        b = ProcedureBuilder("maybe")
        b.search(cp=0, table=0, key=b.at(0))
        b.retn(0, 0)
        b.store(Gp(0), b.at(1))
        db.register_procedure(1, b.build())
        block = db.new_block(1, [999, None], worker=0)
        db.submit(block, 0)
        db.run()
        assert block.header.status is TxnStatus.COMMITTED
        assert block.input_cell(1) == 0

    def test_retn_returns_address_when_found(self):
        db = self._db()
        db.load(0, 5, ["v"])
        b = ProcedureBuilder("maybe")
        b.search(cp=0, table=0, key=b.at(0))
        b.retn(0, 0)
        b.store(Gp(0), b.at(1))
        db.register_procedure(1, b.build())
        block = db.new_block(1, [5, None], worker=0)
        db.submit(block, 0)
        db.run()
        assert block.header.status is TxnStatus.COMMITTED
        addr = block.input_cell(1)
        assert db.dram.direct_read(addr).fields == ["v"]

    def test_plain_ret_still_aborts_on_not_found(self):
        db = self._db()
        b = ProcedureBuilder("strict")
        b.search(cp=0, table=0, key=b.at(0))
        b.ret(0, 0)
        db.register_procedure(1, b.build())
        block = db.new_block(1, [999], worker=0)
        db.submit(block, 0)
        db.run()
        assert block.header.status is TxnStatus.ABORTED

    def test_retn_assembles_and_disassembles(self):
        prog = assemble_one(
            ".proc p\n.logic\n SEARCH c0, t0, @0\n RETN r1, c0\n")
        assert prog.logic[1].opcode is Opcode.RETN
        assert "RETN r1, c0" in disassemble(prog)


class TestYcsbMixes:
    @pytest.fixture(scope="class")
    def setup(self):
        db = BionicDB(BionicConfig(n_workers=2))
        workload = YcsbWorkload(YcsbConfig(records_per_partition=1000,
                                           n_partitions=2, reads_per_txn=8))
        workload.install(db)
        return db, workload

    def test_mix_composition(self, setup):
        _db, workload = setup
        specs = workload.make_mixed_txns(10, 0.5)
        spec = specs[0]
        assert len(spec.keys) == 8
        assert len(spec.inputs) - len(spec.keys) == 4  # 4 updates

    def test_updates_applied_and_committed(self, setup):
        db, workload = setup
        specs = workload.make_mixed_txns(12, 0.25, install_into=db)
        report, blocks = workload.submit_all(db, specs)
        assert report.committed >= 10  # a few CC aborts are legitimate
        assert report.committed == sum(
            1 for b in blocks if b.header.status is TxnStatus.COMMITTED)

    def test_b_is_faster_than_a(self, setup):
        db, workload = setup
        a = workload.make_mixed_txns(40, 0.5, install_into=db)
        b = workload.make_mixed_txns(40, 0.05, install_into=db)
        rep_a, _ = workload.submit_all(db, a)
        rep_b, _ = workload.submit_all(db, b)
        assert rep_b.throughput_tps > rep_a.throughput_tps

    def test_updated_rows_clean_after_commit(self, setup):
        db, workload = setup
        specs = workload.make_mixed_txns(6, 0.5, install_into=db)
        report, blocks = workload.submit_all(db, specs)
        for spec, block in zip(specs, blocks):
            if block.header.status is not TxnStatus.COMMITTED:
                continue
            n_upd = len(spec.inputs) - len(spec.keys)
            for j, key in enumerate(spec.keys[len(spec.keys) - n_upd:]):
                rec = db.lookup(0, key)
                assert not rec.dirty
                assert rec.fields == [spec.inputs[len(spec.keys) + j]]


class TestStockLevel:
    @pytest.fixture(scope="class")
    def loaded(self):
        db = BionicDB(BionicConfig(
            n_workers=2, softcore=SoftcoreConfig(interleaving=False)))
        workload = TpccWorkload(TpccConfig(n_partitions=2, items=200,
                                           customers_per_district=20))
        workload.install(db)
        rep, _ = workload.submit_all(
            db, [workload.make_neworder() for _ in range(16)])
        assert rep.committed == 16
        return db, workload

    def test_commits_and_counts(self, loaded):
        db, workload = loaded
        spec = workload.make_stocklevel(lookback=5)
        rep, blocks = workload.submit_all(db, [spec])
        block = blocks[0]
        assert block.header.status is TxnStatus.COMMITTED
        assert isinstance(block.outputs()[0], int)
        assert block.outputs()[0] >= 0

    def test_high_threshold_counts_every_line(self, loaded):
        """threshold 1000 > any quantity: the count must equal the
        number of existing order lines in the lookback window."""
        db, workload = loaded
        w, d = 1, 1
        lookback = 200  # covers every order ever placed in (w, d)
        inputs = (S.warehouse_key(w), S.district_key(w, d), 1000,
                  S.orders_base(w, d), lookback, w * 1_000_000)
        from repro.workloads.ycsb import TxnSpec
        from repro.workloads.tpcc import PROC_STOCKLEVEL
        spec = TxnSpec(proc_id=PROC_STOCKLEVEL, inputs=inputs, home=0,
                       kind="stocklevel", keys=(w, d, 1000, lookback))
        _rep, blocks = workload.submit_all(db, [spec])
        counted = blocks[0].outputs()[0]
        # host-side recount of lines in the window
        district = db.lookup(S.DISTRICT, S.district_key(w, d))
        next_o = district.fields[2]
        expect = 0
        for o in range(max(1, next_o - lookback), next_o):
            okey = S.orders_key(w, d, o)
            for line in range(1, 11):
                if db.lookup(S.ORDER_LINE, S.order_line_key(okey, line)):
                    expect += 1
        assert counted == expect
        assert blocks[0].header.status is TxnStatus.COMMITTED


class TestLatencyReporting:
    def test_percentiles_monotone(self):
        db = BionicDB(BionicConfig(n_workers=2))
        workload = YcsbWorkload(YcsbConfig(records_per_partition=1000,
                                           n_partitions=2))
        workload.install(db)
        report, _ = workload.submit_all(db, workload.make_read_txns(40))
        p50 = report.latency_percentile_ns(50)
        p99 = report.latency_percentile_ns(99)
        assert 0 < p50 <= p99
        with pytest.raises(ValueError):
            report.latency_percentile_ns(0)
