"""Fine-grained softcore tests: instruction semantics, registers,
batching, catalogue, and failure paths."""

import pytest

from repro.core import BionicConfig, BionicDB
from repro.isa import (
    BlockRef, FieldRef, Gp, Instruction, Opcode, ProcedureBuilder, Program,
)
from repro.mem import Catalog, IndexKind, TableSchema, TxnStatus
from repro.softcore import (
    Catalogue, CpRegisterFile, ExecutionError, RegisterError, RegisterFile,
    SoftcoreConfig,
)
from repro.sim import Engine
from repro.txn import DbResult, ResultCode


def make_db(**sc_kwargs):
    db = BionicDB(BionicConfig(n_workers=1,
                               softcore=SoftcoreConfig(**sc_kwargs)))
    db.define_table(TableSchema(0, "kv", index_kind=IndexKind.HASH,
                                hash_buckets=1024,
                                partition_fn=lambda k, n: 0))
    return db


def run_proc(db, builder_fn, inputs, proc_id=9):
    b = ProcedureBuilder("t")
    builder_fn(b)
    db.register_procedure(proc_id, b.build())
    block = db.new_block(proc_id, inputs, worker=0)
    db.submit(block, 0)
    db.run()
    return block


class TestArithmetic:
    def test_add_sub_mul_div(self):
        db = make_db()

        def build(b):
            b.load(0, b.at(0))
            b.load(1, b.at(1))
            b.add(2, Gp(0), Gp(1))
            b.store(Gp(2), b.at(2))
            b.sub(2, Gp(0), Gp(1))
            b.store(Gp(2), b.at(3))
            b.mul(2, Gp(0), Gp(1))
            b.store(Gp(2), b.at(4))
            b.div(2, Gp(0), Gp(1))
            b.store(Gp(2), b.at(5))

        block = run_proc(db, build, [17, 5])
        cells = [block.input_cell(i) for i in range(2, 6)]
        assert cells == [22, 12, 85, 3]

    def test_immediates(self):
        db = make_db()

        def build(b):
            b.mov(0, 40)
            b.add(0, Gp(0), 2)
            b.store(Gp(0), b.at(0))

        block = run_proc(db, build, [])
        assert block.input_cell(0) == 42


class TestBranches:
    @pytest.mark.parametrize("op,a,b,taken", [
        ("be", 3, 3, True), ("be", 3, 4, False),
        ("bne", 3, 4, True), ("bne", 3, 3, False),
        ("blt", 2, 3, True), ("blt", 3, 3, False),
        ("ble", 3, 3, True), ("ble", 4, 3, False),
        ("bgt", 4, 3, True), ("bgt", 3, 3, False),
        ("bge", 3, 3, True), ("bge", 2, 3, False),
    ])
    def test_conditions(self, op, a, b, taken):
        db = make_db()

        def build(builder):
            builder.cmp(a, b)
            getattr(builder, op)("skip")
            builder.mov(0, 0)      # executed only if NOT taken
            builder.jmp("end")
            builder.label("skip")
            builder.mov(0, 1)      # executed only if taken
            builder.label("end")
            builder.store(Gp(0), builder.at(0))

        block = run_proc(db, build, [None])
        assert block.input_cell(0) == (1 if taken else 0)

    def test_loop(self):
        db = make_db()

        def build(b):
            b.mov(0, 0)
            b.mov(1, 0)
            b.label("loop")
            b.add(1, Gp(1), Gp(0))   # sum += i
            b.add(0, Gp(0), 1)
            b.cmp(Gp(0), 5)
            b.blt("loop")
            b.store(Gp(1), b.at(0))

        block = run_proc(db, build, [None])
        assert block.input_cell(0) == 0 + 1 + 2 + 3 + 4


class TestMemoryAccess:
    def test_block_ref_with_register_offset(self):
        db = make_db()

        def build(b):
            b.mov(0, 1)
            b.load(1, b.at(Gp(0)))       # inputs[1]
            b.store(Gp(1), b.at(Gp(0), extra=2))  # inputs[3]

        block = run_proc(db, build, ["a", "b", "c", None])
        assert block.input_cell(3) == "b"

    def test_field_load_store(self):
        db = make_db()
        db.load(0, 5, ["x", "y"])

        def build(b):
            b.search(cp=0, table=0, key=b.at(0))
            b.commit_handler()
            b.ret(0, 0)
            b.load(1, b.fld(0, 1))    # field 1 == "y"
            b.store(Gp(1), b.at(1))
            b.commit()

        block = run_proc(db, build, [5, None])
        assert block.header.status is TxnStatus.COMMITTED
        assert block.input_cell(1) == "y"

    def test_working_set_store_visible_to_later_load(self):
        db = make_db()

        def build(b):
            b.mov(0, 99)
            b.store(Gp(0), b.at(0))   # into the input region
            b.load(1, b.at(0))        # working-set hit sees the store
            b.store(Gp(1), b.at(1))

        block = run_proc(db, build, [0, None])
        assert block.input_cell(1) == 99


class TestSectionShapes:
    """Section shapes at the edge of what a compile unit can hold.
    Expected (status, abort reason, block cells 0-1, instructions
    counted, end time in ns) were captured on the instruction
    interpreter before it was deleted; they hold with and without
    dynamic scheduling except where a second row says otherwise."""

    def _empty(b):
        pass

    def _lone_abort(b):
        b.abort()                 # a unit with no cycle charge at all

    def _lone_nop(b):
        b.nop()

    def _jump_to_section_end(b):
        b.mov(0, 1)
        b.store(Gp(0), b.at(0))
        b.jmp("end")
        b.mov(0, 2)
        b.store(Gp(0), b.at(0))
        b.label("end")

    def _taken_branch_to_section_end(b):
        b.cmp(1, 1)
        b.be("end")
        b.mov(0, 2)
        b.store(Gp(0), b.at(0))
        b.label("end")

    def _commit_is_not_last(b):
        b.commit_handler()
        b.commit()                # runs the protocol, then falls through
        b.mov(0, 7)
        b.store(Gp(0), b.at(0))

    def _abort_is_not_last(b):
        b.abort()
        b.abort_handler()
        b.abort()
        b.mov(0, 7)
        b.store(Gp(0), b.at(0))

    def _retn_miss_in_commit(b):
        b.search(cp=0, table=0, key=b.at(0))
        b.mov(0, 9)
        b.commit_handler()
        b.retn(0, 0)              # absence is data: r0 = 0
        b.store(Gp(0), b.at(1))
        b.commit()

    def _retn_miss_in_logic(b):
        b.search(cp=0, table=0, key=b.at(0))
        b.retn(3, 0)
        b.store(Gp(3), b.at(1))

    def _ret_miss_in_logic(b):
        b.search(cp=0, table=0, key=b.at(0))
        b.ret(3, 0)               # fails the transaction, logic stops
        b.mov(0, 5)
        b.store(Gp(0), b.at(1))

    COMMITTED, ABORTED = TxnStatus.COMMITTED, TxnStatus.ABORTED
    MISS = "SEARCH: NOT_FOUND"

    @pytest.mark.parametrize("build,dynamic,status,reason,cells,insts,now", [
        (_empty, False, COMMITTED, None, [404, 5], 1, 1592.0),
        (_lone_abort, False, ABORTED, "voluntary abort", [404, 5], 2, 1592.0),
        (_lone_abort, True, ABORTED, "voluntary abort", [404, 5], 2, 1592.0),
        (_lone_nop, False, COMMITTED, None, [404, 5], 2, 1632.0),
        (_jump_to_section_end, False, COMMITTED, None, [1, 5], 4, 1712.0),
        (_taken_branch_to_section_end, False, COMMITTED, None, [404, 5], 3,
         1672.0),
        (_commit_is_not_last, False, COMMITTED, None, [7, 5], 3, 1672.0),
        (_abort_is_not_last, False, ABORTED, "voluntary abort", [7, 5], 4,
         1672.0),
        (_retn_miss_in_commit, False, COMMITTED, None, [404, 0], 5, 3024.0),
        (_retn_miss_in_logic, False, COMMITTED, None, [404, 0], 4, 3136.0),
        # dynamic scheduling: the blocked RETN/RET is counted twice
        (_retn_miss_in_logic, True, COMMITTED, None, [404, 0], 5, 3256.0),
        (_ret_miss_in_logic, False, ABORTED, MISS, [404, 5], 3, 3096.0),
        (_ret_miss_in_logic, True, ABORTED, MISS, [404, 5], 4, 3216.0),
    ])
    def test_shapes(self, build, dynamic, status, reason, cells, insts, now):
        db = make_db(dynamic_scheduling=dynamic)
        db.load(0, 5, ["x", "y"])
        b = ProcedureBuilder(build.__name__)
        build(b)
        db.register_procedure(9, b.build(), verify=False)
        block = db.new_block(9, [404, 5], worker=0)   # key 404 is absent
        db.submit(block, 0)
        db.run()
        assert block.header.status is status
        assert block.header.abort_reason == reason
        assert [block.input_cell(0), block.input_cell(1)] == cells
        assert db.stats.counter("worker0.instructions").value == insts
        assert db.engine.now == now


class TestErrors:
    def test_commit_in_logic_is_rejected(self):
        from repro.errors import VerificationError

        db = make_db()
        b = ProcedureBuilder("bad")
        b.commit()  # COMMIT in the logic section
        program = b.build()
        # caught statically at registration...
        with pytest.raises(VerificationError):
            db.register_procedure(3, program)
        # ...and, if verification is bypassed, still trapped at run time
        db.register_procedure(3, program, verify=False)
        blk = db.new_block(3, [], worker=0)
        db.submit(blk, 0)
        with pytest.raises(ExecutionError):
            db.run()

    def test_division_is_integer_for_ints(self):
        db = make_db()

        def build(b):
            b.mov(0, 7)
            b.div(1, Gp(0), 2)
            b.store(Gp(1), b.at(0))

        block = run_proc(db, build, [None])
        assert block.input_cell(0) == 3

    def test_wrfield_on_empty_cell_raises(self):
        db = make_db()

        def build(b):
            b.mov(0, 12345678)  # not a valid tuple address
            b.wrfield(0, 0, 1)

        b = ProcedureBuilder("bad2")
        build(b)
        db.register_procedure(4, b.build())
        blk = db.new_block(4, [], worker=0)
        db.submit(blk, 0)
        with pytest.raises(ExecutionError):
            db.run()


class TestRegisterFiles:
    def test_gp_bounds(self):
        gp = RegisterFile()
        gp.write(255, "x")
        assert gp.read(255) == "x"
        with pytest.raises(RegisterError):
            gp.read(256)
        with pytest.raises(RegisterError):
            gp.write(-1, 0)

    def test_gp_clear_range(self):
        gp = RegisterFile()
        for i in range(10):
            gp.write(i, i + 1)
        gp.clear_range(2, 5)
        assert gp.read(1) == 2
        assert all(gp.read(i) == 0 for i in range(2, 7))
        assert gp.read(7) == 8

    def test_cp_writeback_then_wait(self):
        eng = Engine()
        cp = CpRegisterFile(eng)
        cp.mark_pending(3, Opcode.SEARCH)
        assert not cp.is_valid(3)
        result = DbResult(ResultCode.OK, tuple_addr=7)
        cp.write_back(3, result)
        got = []

        def proc():
            op, res = yield cp.wait_valid(3)
            got.append((op, res))

        eng.start(proc())
        eng.run()
        assert got == [(Opcode.SEARCH, result)]

    def test_cp_wait_before_writeback(self):
        eng = Engine()
        cp = CpRegisterFile(eng)
        cp.mark_pending(0, Opcode.UPDATE)
        got = []

        def proc():
            op, res = yield cp.wait_valid(0)
            got.append(res.tuple_addr)

        eng.start(proc())
        eng.call_fn_at(eng.now + 5, lambda _arg: cp.write_back(
            0, DbResult(ResultCode.OK, tuple_addr=9)))
        eng.run()
        assert got == [9]

    def test_two_concurrent_waiters_rejected(self):
        eng = Engine()
        cp = CpRegisterFile(eng)
        cp.mark_pending(0, Opcode.SEARCH)
        cp.wait_valid(0)
        with pytest.raises(RegisterError):
            cp.wait_valid(0)

    def test_clear_range_resets_slots(self):
        eng = Engine()
        cp = CpRegisterFile(eng)
        cp.mark_pending(1, Opcode.SEARCH)
        cp.write_back(1, DbResult(ResultCode.OK))
        cp.clear_range(0, 4)
        assert not cp.is_valid(1)


class TestCatalogue:
    def _prog(self):
        b = ProcedureBuilder("p")
        b.search(cp=2, table=0, key=b.at(0))
        b.ret(5, 2)
        return b.build()

    def test_register_and_lookup(self):
        cat = Catalogue(Catalog())
        entry = cat.register(7, self._prog())
        assert entry.gp_needed == 6 and entry.cp_needed == 3
        assert cat.lookup(7) is entry
        assert 7 in cat and len(cat) == 1

    def test_replacement_allowed(self):
        cat = Catalogue(Catalog())
        cat.register(7, self._prog())
        b = ProcedureBuilder("v2")
        b.nop()
        entry2 = cat.register(7, b.build())
        assert cat.lookup(7) is entry2

    def test_missing_procedure(self):
        cat = Catalogue(Catalog())
        with pytest.raises(KeyError):
            cat.lookup(99)


class TestBatching:
    def test_registers_recycle_across_batches(self):
        """A program needing 100 CP registers fits 2 per batch; many
        transactions must still all run, in multiple batches."""
        db = make_db()
        b = ProcedureBuilder("wide")
        for i in range(100):
            b.search(cp=i, table=0, key=b.at(0))
        b.commit_handler()
        for i in range(100):
            b.ret(0, i)
        b.commit()
        db.register_procedure(5, b.build())
        db.load(0, 1, ["v"])
        blocks = [db.new_block(5, [1], worker=0) for _ in range(7)]
        report = db.run_all(blocks, workers=[0] * 7)
        assert report.committed == 7
        assert db.stats.counter("worker0.batches").value >= 3
        # every hand-over was for registers: nothing here writes
        assert db.stats.counter(
            "worker0.batches_closed.capacity").value >= 2
        assert db.stats.counter("worker0.batches_closed.conflict").value == 0
