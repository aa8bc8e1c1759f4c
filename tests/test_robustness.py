"""Robustness: the error taxonomy, static program verification, host
API admission guards, durable-artifact integrity, and watchdogs.

These tests exercise the failure paths a production deployment hits —
defective procedures, bad submissions, torn/corrupted recovery files,
runaway simulations — and check that every one surfaces as a typed
:class:`repro.errors.BionicError` instead of a hang or a stack trace
from the guts of the simulator.
"""

import pytest

from repro.core import BionicConfig, BionicDB
from repro.errors import (
    BionicError, ConfigError, CorruptionError, ProcedureNotFoundError,
    StuckTransactionError, SubmissionError, ValidationError,
    VerificationError, WorkloadError,
)
from repro.host.client import DurableClient
from repro.host.command_log import CommandLog, LOG_MAGIC
from repro.host.durable import atomic_write_bytes, read_frames, write_frames
from repro.host.recovery import (
    Checkpoint, CKPT_MAGIC, RecoveryError, RecoveryManager, take_checkpoint,
)
from repro.isa import (
    AssemblyError, Gp, Instruction, IsaError, Opcode, ProcedureBuilder,
    Program, assemble_one, verify_program,
)
from repro.mem import IndexKind, SchemaError, TableSchema, TxnStatus
from repro.sim.engine import Engine, SimulationError
from repro.softcore import ExecutionError
from repro.workloads.tpcc.schema import TpccConfig
from repro.workloads.tpcc.workload import TpccWorkload
from repro.workloads.ycsb import YcsbConfig
from repro.workloads.zipf import ZipfianGenerator


def make_db(n_workers=1, **cfg_kwargs):
    db = BionicDB(BionicConfig(n_workers=n_workers, **cfg_kwargs))
    db.define_table(TableSchema(0, "kv", index_kind=IndexKind.HASH,
                                hash_buckets=1024,
                                partition_fn=lambda k, n: 0))
    return db


def good_program(name="ok"):
    b = ProcedureBuilder(name)
    b.search(cp=0, table=0, key=b.at(0))
    b.commit_handler()
    b.ret(0, 0)
    b.store(Gp(0), b.at(1))
    b.commit()
    return b.build()


# ---------------------------------------------------------------------------
# error taxonomy
# ---------------------------------------------------------------------------

class TestTaxonomy:
    def test_every_domain_error_is_a_bionic_error(self):
        from repro.cluster.interconnect import ClusterError
        for exc_type in (ConfigError, ValidationError, SubmissionError,
                         ProcedureNotFoundError, VerificationError,
                         WorkloadError, CorruptionError,
                         StuckTransactionError, IsaError, SchemaError,
                         SimulationError, ExecutionError, RecoveryError,
                         ClusterError):
            assert issubclass(exc_type, BionicError), exc_type

    def test_stdlib_bases_are_preserved(self):
        assert issubclass(ConfigError, ValueError)
        assert issubclass(SchemaError, ValueError)
        assert issubclass(IsaError, ValueError)
        assert issubclass(SimulationError, RuntimeError)
        assert issubclass(ProcedureNotFoundError, KeyError)
        assert issubclass(CorruptionError, RuntimeError)

    def test_details_are_structured_and_rendered(self):
        err = SubmissionError("worker out of range", worker=9, n_workers=4)
        assert err.details == {"worker": 9, "n_workers": 4}
        assert "worker=9" in str(err) and "n_workers=4" in str(err)


# ---------------------------------------------------------------------------
# configuration validation
# ---------------------------------------------------------------------------

class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"n_workers": 0},
        {"comm_topology": "mesh"},
        {"device": "stratix"},
    ])
    def test_bad_knobs_raise_config_error(self, kwargs):
        with pytest.raises(ConfigError):
            BionicConfig(**kwargs)

    def test_config_error_is_a_value_error(self):
        with pytest.raises(ValueError):
            BionicConfig(n_workers=-1)


# ---------------------------------------------------------------------------
# static program verification
# ---------------------------------------------------------------------------

class TestVerifier:
    def test_good_program_is_clean(self):
        report = verify_program(good_program())
        assert report.ok and not report.findings

    def test_commit_in_logic(self):
        b = ProcedureBuilder("bad")
        b.commit()
        report = verify_program(b.build())
        assert any(f.code == "commit-in-logic" for f in report.errors)

    def test_ret_of_unwritten_cp_is_fatal(self):
        b = ProcedureBuilder("deadlock")
        b.commit_handler()
        b.ret(0, 5)  # c5 is never dispatched: would hang the softcore
        b.commit()
        report = verify_program(b.build())
        assert any(f.code == "ret-unwritten-cp" for f in report.errors)

    def test_register_pressure(self):
        b = ProcedureBuilder("fat")
        b.mov(200, 1)
        report = verify_program(b.build(), n_registers=64)
        assert any(f.code == "register-pressure" for f in report.errors)

    def test_branch_out_of_range(self):
        program = Program("jumpy")
        program.logic.append(Instruction(Opcode.JMP, target=99))
        report = verify_program(program)
        assert any(f.code == "branch-out-of-range" for f in report.errors)

    def test_commit_handler_without_commit(self):
        b = ProcedureBuilder("nocommit")
        b.commit_handler()
        b.nop()
        report = verify_program(b.build())
        assert any(f.code == "missing-commit" for f in report.errors)

    def test_db_in_commit_handler_is_a_warning(self):
        b = ProcedureBuilder("late-write")
        b.search(cp=0, table=0, key=b.at(0))
        b.commit_handler()
        b.ret(0, 0)
        b.insert(cp=1, table=0, key=b.at(1))
        b.commit()
        report = verify_program(b.build())
        assert report.ok
        assert any(f.code == "db-outside-logic" for f in report.warnings)

    def test_unknown_table_with_catalog(self):
        db = make_db()
        b = ProcedureBuilder("ghost")
        b.search(cp=0, table=7, key=b.at(0))
        b.commit_handler()
        b.ret(0, 0)
        b.commit()
        report = verify_program(b.build(), schemas=db.schemas)
        assert any(f.code == "unknown-table" for f in report.errors)

    def test_registration_rejects_defective_program(self):
        db = make_db()
        b = ProcedureBuilder("deadlock")
        b.commit_handler()
        b.ret(0, 5)
        b.commit()
        with pytest.raises(VerificationError) as ei:
            db.register_procedure(1, b.build())
        assert "ret-unwritten-cp" in str(ei.value)

    def test_verify_false_bypasses(self):
        db = make_db()
        b = ProcedureBuilder("deadlock")
        b.commit_handler()
        b.ret(0, 5)
        b.commit()
        db.register_procedure(1, b.build(), verify=False)  # no raise


# ---------------------------------------------------------------------------
# host API admission guards
# ---------------------------------------------------------------------------

class TestAdmissionGuards:
    def test_submit_worker_out_of_range(self):
        db = make_db()
        db.register_procedure(1, good_program())
        block = db.new_block(1, [7], worker=0)
        with pytest.raises(SubmissionError):
            db.submit(block, 5)

    def test_new_block_worker_out_of_range(self):
        db = make_db()
        db.register_procedure(1, good_program())
        with pytest.raises(SubmissionError):
            db.new_block(1, [7], worker=3)

    def test_submit_unknown_procedure(self):
        db = make_db()
        db.register_procedure(1, good_program())
        block = db.new_block(1, [7], worker=0)
        block.header.proc_id = 42
        with pytest.raises(ProcedureNotFoundError):
            db.submit(block, 0)

    def test_submit_procedure_with_undefined_table(self):
        db = BionicDB(BionicConfig(n_workers=1))  # no tables defined
        db.register_procedure(1, good_program())
        block = db.new_block(1, [7], worker=0)
        with pytest.raises(SubmissionError) as ei:
            db.submit(block, 0)
        assert ei.value.details["missing_tables"] == [0]

    def test_defining_the_table_unblocks_submission(self):
        db = BionicDB(BionicConfig(n_workers=1))
        db.register_procedure(1, good_program())
        block = db.new_block(1, [7], worker=0)
        with pytest.raises(SubmissionError):
            db.submit(block, 0)
        db.define_table(TableSchema(0, "kv", hash_buckets=1024,
                                    partition_fn=lambda k, n: 0))
        db.load(0, 7, ["v"])
        db.submit(block, 0)
        db.run()
        assert block.header.status is TxnStatus.COMMITTED

    def test_admission_follows_definitions_and_reregistration(self):
        def reads(*tables):
            b = ProcedureBuilder("reads")
            for cp, table in enumerate(tables):
                b.search(cp=cp, table=table, key=b.at(0))
            b.commit_handler()
            for cp in range(len(tables)):
                b.ret(cp, cp)
            b.commit()
            return b.build()

        def define(db, table_id):
            db.define_table(TableSchema(table_id, f"t{table_id}",
                                        hash_buckets=64,
                                        partition_fn=lambda k, n: 0))
            db.load(table_id, 7, ["v"])

        db = BionicDB(BionicConfig(n_workers=1))
        db.register_procedure(1, reads(0, 1))
        define(db, 0)
        with pytest.raises(SubmissionError) as ei:
            db.submit(db.new_block(1, [7], worker=0), 0)
        assert ei.value.details["missing_tables"] == [1]
        define(db, 1)
        block = db.new_block(1, [7], worker=0)
        db.submit(block, 0)
        db.run()
        assert block.header.status is TxnStatus.COMMITTED
        db.register_procedure(1, reads(0, 2))
        with pytest.raises(SubmissionError) as ei:
            db.submit(db.new_block(1, [7], worker=0), 0)
        assert ei.value.details["missing_tables"] == [2]

    def test_load_partition_out_of_range(self):
        db = make_db()
        with pytest.raises(SubmissionError):
            db.load(0, 1, ["v"], partition=9)

    def test_lookup_partition_out_of_range(self):
        db = make_db()
        with pytest.raises(SubmissionError):
            db.lookup(0, 1, partition=9)

    def test_run_all_workers_length_mismatch(self):
        db = make_db()
        db.register_procedure(1, good_program())
        db.load(0, 7, ["v"])
        blocks = [db.new_block(1, [7], worker=0)]
        with pytest.raises(SubmissionError):
            db.run_all(blocks, workers=[0, 0])

    def test_cluster_submit_guards(self):
        cluster = BionicDB(BionicConfig(n_workers=1), n_nodes=2)
        cluster.define_table(TableSchema(0, "kv", hash_buckets=256,
                                         partition_fn=lambda k, n: 0))
        cluster.register_procedure(1, good_program())
        block = cluster.new_block(1, [7], worker=0)
        with pytest.raises(SubmissionError):
            cluster.submit(block, 9)


# ---------------------------------------------------------------------------
# hang detection
# ---------------------------------------------------------------------------

class TestHangDetection:
    def test_stuck_transaction_is_reported_not_silent(self):
        """A RET on a never-written CP parks the softcore forever; with
        verification bypassed, the drained-heap check must flag it."""
        db = make_db()
        b = ProcedureBuilder("deadlock")
        b.ret(0, 5)  # c5 never dispatched
        db.register_procedure(1, b.build(), verify=False)
        block = db.new_block(1, [7], worker=0)
        db.submit(block, 0)
        with pytest.raises(StuckTransactionError) as ei:
            db.run()
        assert block.txn_id in ei.value.details["stuck"]

    def test_engine_watchdog_max_events(self):
        engine = Engine()

        def spinner():
            while True:
                yield 1.0

        engine.start(spinner())
        with pytest.raises(SimulationError):
            engine.run(max_events=500)

    def test_a_dying_softcore_leaves_run_before_the_rest_drains(self):
        """Worker 0's only procedure loads from an empty cell; worker 1
        has 200 reads queued.  The error must surface at the instant
        the softcore raises it, not once worker 1 has drained."""
        db = make_db(n_workers=2)
        db.load(0, 7, ["v"])
        db.register_procedure(1, good_program())
        b = ProcedureBuilder("boom")
        b.load(0, b.fld(1))   # r1 = 0: LOAD from empty cell kills the core
        b.commit_handler()
        b.commit()
        db.register_procedure(2, b.build())
        for _ in range(200):
            db.submit(db.new_block(1, [7], worker=1), 1)
        db.submit(db.new_block(2, [7], worker=0), 0)
        with pytest.raises(ExecutionError, match="empty cell"):
            db.run()
        assert db.stats.counter("worker1.committed").value < 200
        assert db.engine.now < 10_000

    def test_db_run_passes_watchdog_through(self):
        db = make_db()
        db.register_procedure(1, good_program())
        db.load(0, 7, ["v"])
        block = db.new_block(1, [7], worker=0)
        db.submit(block, 0)
        with pytest.raises(SimulationError):
            db.run(max_events=3)

    def test_run_to_commit_exhaustion_reports_reasons(self):
        db = make_db()
        b = ProcedureBuilder("always-abort")
        b.abort()
        db.register_procedure(1, b.build())
        block = db.new_block(1, [], worker=0)
        with pytest.raises(StuckTransactionError) as ei:
            db.run_to_commit([block], max_rounds=3)
        assert "voluntary abort" in ei.value.details["abort_reasons"]


# ---------------------------------------------------------------------------
# durable artifacts: framing, checksums, atomicity, salvage
# ---------------------------------------------------------------------------

class TestDurableFraming:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "a.bin"
        write_frames(path, b"TEST", [1, "two", {"three": 3}])
        objects, intact = read_frames(path, b"TEST")
        assert objects == [1, "two", {"three": 3}] and intact

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "a.bin"
        path.write_bytes(b"NOPE" + b"\x01" + b"junk")
        with pytest.raises(CorruptionError):
            read_frames(path, b"TEST")

    def test_truncation_strict_raises(self, tmp_path):
        path = tmp_path / "a.bin"
        write_frames(path, b"TEST", list(range(10)))
        blob = path.read_bytes()
        path.write_bytes(blob[:-3])
        with pytest.raises(CorruptionError):
            read_frames(path, b"TEST")

    def test_truncation_salvages_prefix(self, tmp_path):
        path = tmp_path / "a.bin"
        write_frames(path, b"TEST", list(range(10)))
        blob = path.read_bytes()
        path.write_bytes(blob[:-3])
        objects, intact = read_frames(path, b"TEST", strict=False)
        assert objects == list(range(9)) and not intact

    def test_bit_flip_detected(self, tmp_path):
        path = tmp_path / "a.bin"
        write_frames(path, b"TEST", ["payload-one", "payload-two"])
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptionError):
            read_frames(path, b"TEST")

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        path = tmp_path / "a.bin"
        atomic_write_bytes(path, b"hello")
        atomic_write_bytes(path, b"world")  # overwrite
        assert path.read_bytes() == b"world"
        assert [p.name for p in tmp_path.iterdir()] == ["a.bin"]


class TestCommandLogDurability:
    def _populated_log(self, db):
        client = DurableClient(db)
        db.register_procedure(1, good_program())
        for key in range(4):
            db.load(0, key, [f"v{key}"])
            client.execute(1, [key], worker=0)
        return client.log

    def test_save_load_roundtrip(self, tmp_path):
        log = self._populated_log(make_db())
        path = tmp_path / "cmd.log"
        log.save(path)
        loaded = CommandLog.load(path)
        assert len(loaded) == 4 and not loaded.truncated
        assert [r.txn_id for r in loaded.records()] == \
               [r.txn_id for r in log.records()]

    def test_corrupt_log_detected(self, tmp_path):
        log = self._populated_log(make_db())
        path = tmp_path / "cmd.log"
        log.save(path)
        blob = bytearray(path.read_bytes())
        blob[-10] ^= 0x40
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptionError):
            CommandLog.load(path)

    def test_truncated_log_salvaged_non_strict(self, tmp_path):
        log = self._populated_log(make_db())
        path = tmp_path / "cmd.log"
        log.save(path)
        path.write_bytes(path.read_bytes()[:-5])  # lose the tail
        salvaged = CommandLog.load(path, strict=False)
        assert salvaged.truncated
        assert len(salvaged) == len(log) - 1

    def test_garbage_record_rejected(self, tmp_path):
        path = tmp_path / "cmd.log"
        write_frames(path, LOG_MAGIC, [{"not": "a record"}])
        with pytest.raises(CorruptionError):
            CommandLog.load(path)


class TestCheckpointDurability:
    def test_roundtrip_and_recovery(self, tmp_path):
        db = make_db()
        db.register_procedure(1, good_program())
        for key in range(5):
            db.load(0, key, [f"v{key}"])
        ckpt = take_checkpoint(db)
        path = tmp_path / "ckpt.bin"
        ckpt.save(path)
        restored = Checkpoint.load(path)
        db2 = make_db()
        n = RecoveryManager(db2).restore_checkpoint(restored)
        assert n == 5
        assert db2.lookup(0, 3).fields == ["v3"]

    def test_corrupt_checkpoint_detected(self, tmp_path):
        db = make_db()
        db.load(0, 1, ["v"])
        path = tmp_path / "ckpt.bin"
        take_checkpoint(db).save(path)
        blob = bytearray(path.read_bytes())
        blob[len(blob) - 8] ^= 0x01
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptionError):
            Checkpoint.load(path)

    def test_replay_with_missing_procedure_is_a_recovery_error(self):
        db = make_db()
        db.register_procedure(1, good_program())
        db.load(0, 7, ["v"])
        client = DurableClient(db)
        client.execute(1, [7], worker=0)
        fresh = make_db()   # no procedures registered
        fresh.load(0, 7, ["v"])
        with pytest.raises(RecoveryError):
            RecoveryManager(fresh).replay(client.log)


# ---------------------------------------------------------------------------
# durable client crash consistency
# ---------------------------------------------------------------------------

class TestDurableClient:
    def test_failed_run_still_finalises_the_log(self):
        db = make_db()
        b = ProcedureBuilder("boom")
        b.load(0, b.fld(1))   # r1 = 0: LOAD from empty cell kills the core
        b.commit_handler()
        b.commit()
        db.register_procedure(1, b.build())
        client = DurableClient(db)
        with pytest.raises(ExecutionError):
            client.execute(1, [7], worker=0)
        records = client.log.records()
        assert len(records) == 1
        assert records[0].status != TxnStatus.COMMITTED.value
        assert client.log.committed_in_order() == []


# ---------------------------------------------------------------------------
# workload parameter validation
# ---------------------------------------------------------------------------

class TestWorkloadValidation:
    def test_ycsb_bad_params(self):
        with pytest.raises(WorkloadError):
            YcsbConfig(records_per_partition=0)
        with pytest.raises(WorkloadError):
            YcsbConfig(remote_fraction=1.5)
        with pytest.raises(WorkloadError):
            YcsbConfig(index_kind="btree")

    def test_tpcc_bad_params(self):
        with pytest.raises(WorkloadError):
            TpccConfig(n_partitions=0)
        with pytest.raises(WorkloadError):
            TpccConfig(remote_payment_fraction=-0.1)

    def test_tpcc_bad_mix_fraction(self):
        workload = TpccWorkload(TpccConfig(n_partitions=1,
                                           customers_per_district=10,
                                           items=100))
        with pytest.raises(WorkloadError):
            workload.make_mix(10, neworder_fraction=1.5)

    def test_zipf_theta_range(self):
        with pytest.raises(WorkloadError):
            ZipfianGenerator(100, theta=1.0)
        with pytest.raises(WorkloadError):
            ZipfianGenerator(0)

    def test_workload_error_is_a_value_error(self):
        with pytest.raises(ValueError):
            YcsbConfig(n_partitions=0)


# ---------------------------------------------------------------------------
# assembler diagnostics
# ---------------------------------------------------------------------------

class TestAssemblerDiagnostics:
    def test_register_out_of_range_carries_line_number(self):
        src = """
.proc bad
.logic
    MOV r999, #1
.commit
    COMMIT
"""
        with pytest.raises(AssemblyError) as ei:
            assemble_one(src)
        assert ei.value.line_no == 4
        assert "out of range" in str(ei.value)

    def test_duplicate_procedure_name(self):
        src = """
.proc twice
.commit
    COMMIT
.proc twice
.commit
    COMMIT
"""
        with pytest.raises(AssemblyError) as ei:
            assemble_one(src)
        assert "duplicate procedure" in str(ei.value)

    def test_invalid_procedure_name(self):
        with pytest.raises(AssemblyError):
            assemble_one(".proc 9lives\n.commit\n    COMMIT\n")
