"""Unit tests for clocks, stats, records, blocks, schemas, power."""

import pytest

from repro.mem import (
    BlockLayout, Catalog, IndexKind, SchemaError, TableSchema,
    TransactionBlock, TxnStatus,
)
from repro.mem.records import (
    NULL_ADDR, BPTreeNode, Tower, TupleRecord, head_tower,
)
from repro.sim import (
    ClockDomain, CpuPowerModel, DramModel, Engine, FpgaPowerModel, Heap,
    ResourceLedger, ResourceVector, StatsRegistry, VIRTEX5_LX330,
    per_worker_costs,
)
from repro.sim.resources import ULTRASCALE_PLUS


class TestClockDomain:
    def test_conversions(self):
        eng = Engine()
        clock = ClockDomain(eng, 125.0)
        assert clock.ns_per_cycle == pytest.approx(8.0)
        assert clock.ns(10) == pytest.approx(80.0)
        assert clock.cycles(80.0) == pytest.approx(10.0)

    def test_delay_advances(self):
        eng = Engine()
        clock = ClockDomain(eng, 250.0)
        seen = []

        def proc():
            yield clock.delay(5)
            seen.append(clock.now_cycles)

        eng.start(proc())
        eng.run()
        assert seen == [pytest.approx(5.0)]

    def test_bad_frequency(self):
        with pytest.raises(ValueError):
            ClockDomain(Engine(), 0)


class TestStats:
    def test_counters(self):
        stats = StatsRegistry()
        stats.counter("a").add(3)
        stats.counter("a").add()
        assert stats.snapshot() == {"a": 4}

    def test_by_prefix(self):
        stats = StatsRegistry()
        stats.counter("worker0.committed").add(2)
        stats.counter("dram.reads").add(9)
        assert stats.by_prefix("worker0") == {"worker0.committed": 2}


class TestRecords:
    def test_tuple_visibility(self):
        rec = TupleRecord(key=1, fields=["v"], write_ts=5)
        assert rec.visible_at(5)
        assert not rec.visible_at(4)
        rec.dirty = True
        assert not rec.visible_at(10)

    def test_tower_validation(self):
        with pytest.raises(ValueError):
            Tower(key=1, fields=[], height=0)
        with pytest.raises(ValueError):
            Tower(key=1, fields=[], height=3, nexts=[NULL_ADDR])
        t = Tower(key=1, fields=[], height=3)
        assert t.nexts == [NULL_ADDR] * 3

    @pytest.mark.parametrize("record", [
        TupleRecord(key=1, fields=["v"]),
        Tower(key=1, fields=[], height=2),
        BPTreeNode(is_leaf=True),
    ], ids=lambda record: type(record).__name__)
    def test_records_are_slotted(self, record):
        # one heap cell per row at paper scale: no per-instance __dict__
        assert not hasattr(record, "__dict__")
        with pytest.raises(AttributeError):
            record.scratch = 1

    def test_min_key_sorts_below_everything(self):
        head = head_tower(4)
        assert head.key < 0
        assert head.key < "a"
        assert head.key < (0, 0)
        assert not (head.key > 5)
        assert head.key == head_tower(2).key


class TestBlockLayout:
    def test_offsets_partition_the_block(self):
        layout = BlockLayout(n_inputs=4, n_outputs=3, n_scratch=2,
                             n_undo=5, n_scan=6)
        assert layout.out == 4
        assert layout.scratch == 7
        assert layout.undo == 9
        assert layout.scan == 14
        assert layout.data_cells == 20
        assert layout.total_cells == 21

    def test_block_input_output_roundtrip(self):
        eng = Engine()
        clock = ClockDomain(eng, 125.0)
        dram = DramModel(eng, clock, Heap())
        block = TransactionBlock(dram, txn_id=1, proc_id=2,
                                 layout=BlockLayout(n_inputs=3))
        block.set_inputs(["a", "b"])
        assert block.input_cell(0) == "a"
        assert block.input_cell(2) is None
        assert block.txn_id == 1 and block.proc_id == 2

    def test_too_many_inputs_rejected(self):
        eng = Engine()
        clock = ClockDomain(eng, 125.0)
        dram = DramModel(eng, clock, Heap())
        block = TransactionBlock(dram, 1, 1, layout=BlockLayout(n_inputs=2))
        with pytest.raises(ValueError):
            block.set_inputs([1, 2, 3])

    def test_undo_slot_overflow(self):
        eng = Engine()
        clock = ClockDomain(eng, 125.0)
        dram = DramModel(eng, clock, Heap())
        block = TransactionBlock(dram, 1, 1, layout=BlockLayout(n_undo=2))
        block.undo_slot(1)
        with pytest.raises(IndexError):
            block.undo_slot(2)

    def test_reset_for_replay(self):
        eng = Engine()
        clock = ClockDomain(eng, 125.0)
        dram = DramModel(eng, clock, Heap())
        block = TransactionBlock(dram, 1, 1)
        block.header.status = TxnStatus.ABORTED
        block.header.undo_count = 3
        block.header.abort_reason = "x"
        block.reset_for_replay()
        assert block.header.status is TxnStatus.PENDING
        assert block.header.undo_count == 0
        assert block.header.abort_reason is None


class TestSchema:
    def test_routing(self):
        schema = TableSchema(0, "t", partition_fn=lambda k, n: k % n)
        assert schema.route(7, 4) == 3

    def test_replicated_routes_local(self):
        schema = TableSchema(0, "t", replicated=True)
        assert schema.route(123, 4) is None

    def test_catalog_duplicate_and_missing(self):
        cat = Catalog([TableSchema(0, "a")])
        with pytest.raises(SchemaError):
            cat.add(TableSchema(0, "b"))
        with pytest.raises(SchemaError):
            cat.table(9)

    def test_bad_index_kind(self):
        with pytest.raises(SchemaError):
            TableSchema(0, "t", index_kind="btree")


class TestResources:
    def test_vector_arithmetic(self):
        a = ResourceVector(1, 2, 3)
        b = ResourceVector(10, 20, 30)
        assert a + b == ResourceVector(11, 22, 33)
        assert a * 3 == ResourceVector(3, 6, 9)
        assert 2 * a == ResourceVector(2, 4, 6)
        assert a.fits_in(b)
        assert not b.fits_in(a)

    def test_ledger_module_totals(self):
        ledger = ResourceLedger()
        costs = per_worker_costs()
        ledger.add("Hash", costs["hash.base"], "w0")
        ledger.add("Hash", costs["hash.base"], "w1")
        assert ledger.module_total("Hash").ff == 2 * costs["hash.base"].ff
        assert ledger.modules() == ["Hash"]

    def test_device_sizes_sane(self):
        assert VIRTEX5_LX330.fits_in(ULTRASCALE_PLUS)


class TestPower:
    def test_fpga_estimate_scales_with_activity(self):
        ledger = ResourceLedger()
        ledger.add("x", ResourceVector(50_000, 50_000, 100))
        model = FpgaPowerModel()
        low = model.estimate(ledger, activity=0.05).total_w
        high = model.estimate(ledger, activity=0.25).total_w
        assert high > low
        # static + I/O do not scale
        assert high - low < model.estimate(ledger).total_w

    def test_cpu_ledger(self):
        cpu = CpuPowerModel()
        assert cpu.chips_for(1) == 1
        assert cpu.chips_for(6) == 1
        assert cpu.chips_for(7) == 2
        assert cpu.chips_for(24) == 4
        assert cpu.estimate_w(24) == 380.0
        with pytest.raises(ValueError):
            cpu.chips_for(0)
