"""Tests for deterministic fault injection and crash-recovery drills.

Covers the FaultPlan trigger machinery, every injection site (durable
appends, atomic renames, NIC, cluster interconnect, machine and worker
crashes), the zero-overhead-when-disabled guarantee, and drill smoke
runs (the full sweep lives in CI's drill job).
"""

import pickle

import pytest

from repro.core import BionicConfig, BionicDB
from repro.errors import (
    CorruptionError, FaultError, SimulatedCrash, StuckTransactionError,
)
from repro.faults import (
    APPEND_BIT_FLIP, CRASH_AFTER_RENAME, CRASH_BEFORE_RENAME, Drill,
    DrillConfig, FaultPlan, LINK_DROP, LINK_STALL, NIC_CORRUPT, NIC_DROP,
    NIC_DUPLICATE, SUITES, TORN_APPEND, Trigger,
)
from repro.frontend import FrontEnd, FrontendConfig, SessionConfig
from repro.host import CommandLog, DurableClient, take_checkpoint
from repro.host.command_log import LOG_MAGIC, LogRecord
from repro.host.durable import FrameAppender, atomic_write_bytes, read_frames
from repro.host.recovery import (
    CKPT_MAGIC, Checkpoint, RecoveryError, RecoveryManager,
)
from repro.isa import Gp, ProcedureBuilder
from repro.mem import IndexKind, TableSchema, TxnStatus

from test_host_recovery import build_db
from test_frontend import make_db, make_factory


# ---------------------------------------------------------------------------
# FaultPlan mechanics
# ---------------------------------------------------------------------------

class TestFaultPlan:
    def test_nth_trigger_fires_exactly_once(self):
        plan = FaultPlan(seed=1).arm(TORN_APPEND, nth=3)
        hits = [plan.fires(TORN_APPEND) for _ in range(6)]
        assert hits == [False, False, True, False, False, False]
        assert plan.opportunities(TORN_APPEND) == 6
        assert plan.fired_log == [(TORN_APPEND, 3, 0.0)]

    def test_prob_trigger_is_deterministic_per_seed(self):
        def run(seed):
            plan = FaultPlan(seed).arm(NIC_DROP, prob=0.3, times=None)
            return [plan.fires(NIC_DROP) for _ in range(50)]

        assert run(7) == run(7)
        assert run(7) != run(8)      # overwhelmingly likely
        assert any(run(7))

    def test_rng_not_consumed_by_nth_triggers(self):
        """nth triggers must not drift the RNG: the drawn fault
        parameters depend only on the seed and the draw sequence."""
        plan = FaultPlan(seed=5).arm(TORN_APPEND, nth=2)
        for _ in range(4):
            plan.fires(TORN_APPEND)
        assert plan.draw() == FaultPlan(seed=5).draw()

    def test_times_budget_bounds_prob_trigger(self):
        plan = FaultPlan(seed=0).arm(LINK_DROP, prob=1.0, times=2)
        hits = [plan.fires(LINK_DROP) for _ in range(5)]
        assert hits == [True, True, False, False, False]

    def test_after_ns_gates_by_sim_time(self):
        plan = FaultPlan(seed=0).arm(LINK_STALL, prob=1.0, after_ns=100.0,
                                     times=None)
        assert not plan.fires(LINK_STALL, 50.0)
        assert plan.fires(LINK_STALL, 150.0)

    def test_unknown_site_rejected(self):
        with pytest.raises(FaultError):
            FaultPlan().arm("durable.nonsense", nth=1)

    def test_trigger_validation(self):
        with pytest.raises(FaultError):
            Trigger()                       # neither nth nor prob
        with pytest.raises(FaultError):
            Trigger(nth=1, prob=0.5)        # both
        with pytest.raises(FaultError):
            Trigger(nth=0)                  # 1-based
        with pytest.raises(FaultError):
            Trigger(prob=1.5)
        with pytest.raises(FaultError):
            Trigger(prob=0.5, times=0)

    def test_crash_latch_blocks_later_durable_writes(self, tmp_path):
        plan = FaultPlan(seed=0)
        exc = plan.crash("machine.crash")
        assert isinstance(exc, SimulatedCrash)
        assert plan.crashed and plan.crash_site == "machine.crash"
        with pytest.raises(SimulatedCrash):
            plan.check_alive()
        # a crashed machine's disk accepts nothing, even full rewrites
        with pytest.raises(SimulatedCrash):
            atomic_write_bytes(tmp_path / "f", b"x", faults=plan)

    def test_describe_names_fired_faults(self):
        plan = FaultPlan(seed=3).arm(TORN_APPEND, nth=1)
        assert "no faults fired" in plan.describe()
        plan.fires(TORN_APPEND, 42.0)
        assert TORN_APPEND in plan.describe()


# ---------------------------------------------------------------------------
# Durable layer: torn appends, bit flips, rename crashes
# ---------------------------------------------------------------------------

MAGIC = b"TST0"


class TestFrameAppenderFaults:
    def _appender_with(self, tmp_path, plan):
        return FrameAppender(tmp_path / "log.bin", MAGIC, faults=plan)

    def test_clean_appends_roundtrip(self, tmp_path):
        path = tmp_path / "log.bin"
        with FrameAppender(path, MAGIC) as app:
            for i in range(4):
                app.append({"i": i})
        objs, intact = read_frames(path, MAGIC)
        assert intact and [o["i"] for o in objs] == [0, 1, 2, 3]

    @pytest.mark.parametrize("seed", range(8))
    def test_torn_append_salvages_prefix(self, tmp_path, seed):
        """Whatever byte the tear lands on, salvage keeps exactly the
        frames appended before the torn one."""
        plan = FaultPlan(seed).arm(TORN_APPEND, nth=3)
        app = self._appender_with(tmp_path, plan)
        app.append("a")
        app.append("b")
        with pytest.raises(SimulatedCrash):
            app.append("c")
        objs, intact = read_frames(tmp_path / "log.bin", MAGIC, strict=False)
        assert objs == ["a", "b"]
        # a cut at byte 0 of the frame leaves the file intact (the
        # record simply never made it); any other cut is a visible tear
        intact_size = 5 + sum(
            8 + len(pickle.dumps(o, protocol=pickle.HIGHEST_PROTOCOL))
            for o in ("a", "b"))
        assert intact == ((tmp_path / "log.bin").stat().st_size
                          == intact_size)

    def test_torn_at_frame_boundary_is_invisible(self, tmp_path):
        """A cut at byte 0 of the frame loses the record but leaves a
        well-formed file — the lost-tail case recovery must survive."""
        plan = FaultPlan(seed=0).arm(TORN_APPEND, nth=1)
        plan.draw_int = lambda lo, hi: 0        # force the boundary cut
        app = self._appender_with(tmp_path, plan)
        with pytest.raises(SimulatedCrash):
            app.append("gone")
        objs, intact = read_frames(tmp_path / "log.bin", MAGIC, strict=False)
        assert objs == [] and intact

    @pytest.mark.parametrize("seed", range(8))
    def test_bit_flip_detected_and_salvaged(self, tmp_path, seed):
        """Any single flipped bit — header or payload — is caught by
        the CRC/parse and the prefix salvaged."""
        plan = FaultPlan(seed).arm(APPEND_BIT_FLIP, nth=2)
        app = self._appender_with(tmp_path, plan)
        app.append("keep")
        with pytest.raises(SimulatedCrash):
            app.append("damaged")
        path = tmp_path / "log.bin"
        with pytest.raises(CorruptionError):
            read_frames(path, MAGIC, strict=True)
        objs, intact = read_frames(path, MAGIC, strict=False)
        assert objs == ["keep"] and not intact

    def test_refuses_existing_file_without_overwrite(self, tmp_path):
        path = tmp_path / "log.bin"
        with FrameAppender(path, MAGIC) as app:
            app.append("x")
        with pytest.raises(FaultError):
            FrameAppender(path, MAGIC, overwrite=False)

    def test_crashed_plan_rejects_appends(self, tmp_path):
        plan = FaultPlan(seed=0)
        app = self._appender_with(tmp_path, plan)
        app.append("before")
        plan.crash("machine.crash")
        with pytest.raises(SimulatedCrash):
            app.append("after")     # e.g. a finally-block flush
        objs, intact = read_frames(tmp_path / "log.bin", MAGIC, strict=False)
        assert objs == ["before"] and intact


class TestRenameCrashes:
    def test_crash_before_rename_keeps_old_artifact(self, tmp_path):
        path = tmp_path / "art.bin"
        atomic_write_bytes(path, b"old")
        plan = FaultPlan(seed=0).arm(CRASH_BEFORE_RENAME, nth=1)
        with pytest.raises(SimulatedCrash):
            atomic_write_bytes(path, b"new", faults=plan)
        assert path.read_bytes() == b"old"
        # a real crash leaves the tmp debris behind too
        assert list(tmp_path.glob("art.bin.*.tmp"))

    def test_crash_after_rename_lands_new_artifact(self, tmp_path):
        path = tmp_path / "art.bin"
        atomic_write_bytes(path, b"old")
        plan = FaultPlan(seed=0).arm(CRASH_AFTER_RENAME, nth=1)
        with pytest.raises(SimulatedCrash):
            atomic_write_bytes(path, b"new", faults=plan)
        assert path.read_bytes() == b"new"

    def test_checkpoint_save_crash_falls_back_cleanly(self, tmp_path):
        db = build_db()
        db.load(0, 1, ["v1"])
        path = tmp_path / "ckpt.bin"
        take_checkpoint(db).save(path)
        db.load(0, 2, ["v2"])
        plan = FaultPlan(seed=0).arm(CRASH_BEFORE_RENAME, nth=1)
        with pytest.raises(SimulatedCrash):
            take_checkpoint(db).save(path, faults=plan)
        loaded = Checkpoint.load(path)      # the old image, undamaged
        keys = sorted(k for items in loaded.rows.values()
                      for k, _f, _t in items)
        assert keys == [1]


# ---------------------------------------------------------------------------
# Incremental command log under crashes
# ---------------------------------------------------------------------------

class TestCommandLogCrashConsistency:
    def _run_one(self, db, log, key):
        block = db.new_block(2, [(key, [f"v{key}"])], worker=0)
        log.append_pending(block)
        db.submit(block, 0)
        db.run()
        log.finalize(block)
        return block

    def test_incremental_log_matches_in_memory(self, tmp_path):
        db = build_db()
        path = tmp_path / "cmd.log"
        log = CommandLog(path=path)
        for k in (5, 6, 7):
            self._run_one(db, log, k)
        log.close()
        loaded = CommandLog.load(path)
        assert not loaded.truncated
        assert [r.txn_id for r in loaded.records()] == \
            [r.txn_id for r in log.records()]
        assert all(r.status == "committed" for r in loaded.records())
        assert loaded.max_commit_ts == log.max_commit_ts

    def test_torn_finalize_leaves_pending_record(self, tmp_path):
        """Tear during the *finalize* append: the pending record (frame
        1) survives, so recovery knows the txn entered but must treat
        it as unacknowledged."""
        db = build_db()
        path = tmp_path / "cmd.log"
        plan = FaultPlan(seed=2).arm(TORN_APPEND, nth=2)
        log = CommandLog(path=path, faults=plan)
        block = db.new_block(2, [(5, ["v"])], worker=0)
        log.append_pending(block)
        db.submit(block, 0)
        db.run()
        with pytest.raises(SimulatedCrash):
            log.finalize(block)
        log.close()
        loaded = CommandLog.load(path, strict=False)
        assert len(loaded) == 1
        assert loaded.records()[0].status == "pending"
        assert loaded.committed_in_order() == []

    def test_torn_pending_loses_only_that_txn(self, tmp_path):
        db = build_db()
        path = tmp_path / "cmd.log"
        plan = FaultPlan(seed=2).arm(TORN_APPEND, nth=3)
        log = CommandLog(path=path, faults=plan)
        self._run_one(db, log, 5)
        block = db.new_block(2, [(6, ["v6"])], worker=0)
        with pytest.raises(SimulatedCrash):
            log.append_pending(block)
        log.close()
        loaded = CommandLog.load(path, strict=False)
        assert [r.status for r in loaded.records()] == ["committed"]
        assert loaded.records()[0].inputs[0] == (5, ["v5"])

    def test_load_keeps_last_record_per_txn(self, tmp_path):
        db = build_db()
        path = tmp_path / "cmd.log"
        log = CommandLog(path=path)
        self._run_one(db, log, 9)
        log.close()
        # on disk: a pending frame then a committed frame for txn 1
        raw, intact = read_frames(path, b"BDBL")
        assert intact and len(raw) == 2
        assert [r.status for r in raw] == ["pending", "committed"]
        loaded = CommandLog.load(path)
        assert len(loaded) == 1
        assert loaded.records()[0].status == "committed"


# ---------------------------------------------------------------------------
# Machine crashes and the replay watchdog
# ---------------------------------------------------------------------------

class TestMachineCrash:
    def test_crash_after_events_strands_inflight(self):
        db = build_db()
        db.load(0, 1, ["v"])
        block = db.new_block(1, [1, "upd"], worker=0)
        db.submit(block, 0)
        db.crash_after_events(5)
        with pytest.raises(SimulatedCrash):
            db.run()
        assert block.header.status is not TxnStatus.COMMITTED
        # the machine crashes once; a fresh run would proceed
        assert db.engine.crash_at_fired is None

    def test_crash_after_events_validates(self):
        db = build_db()
        with pytest.raises(Exception):
            db.crash_after_events(0)

    def test_replay_watchdog_raises_recovery_error(self):
        db = build_db()
        db.load(0, 1, ["v"])
        client = DurableClient(db)
        client.execute(1, [1, "upd"], worker=0)
        db2 = build_db()
        db2.load(0, 1, ["v"])
        with pytest.raises(RecoveryError) as err:
            RecoveryManager(db2).replay(client.log, max_events_per_txn=3)
        assert "budget" in str(err.value)

    def test_replay_after_ts_skips_checkpointed_records(self):
        db = build_db()
        client = DurableClient(db)
        client.execute(2, [(1, ["one"])], worker=0)
        ckpt = take_checkpoint(db)      # captures txn 1's insert
        client.execute(2, [(2, ["two"])], worker=0)
        db2 = build_db()
        mgr = RecoveryManager(db2)
        mgr.restore_checkpoint(ckpt)
        # without the filter, replaying txn 1 re-inserts key 1 -> abort
        replayed = mgr.replay(client.log, after_ts=ckpt.last_commit_ts)
        assert replayed == 1
        assert db2.lookup(0, 1).fields == ["one"]
        assert db2.lookup(0, 2).fields == ["two"]


# ---------------------------------------------------------------------------
# Unframed files: a file without the artifact's magic is never unpickled
# ---------------------------------------------------------------------------

def _assert_bad_magic(err, magic):
    assert "bad magic" in str(err.value)
    assert err.value.details["expected"] == magic


class TestLegacyCheckpointErrors:
    def test_garbage_pickle_names_original_failure(self, tmp_path):
        path = tmp_path / "ckpt.bin"
        path.write_bytes(b"\x80\x04completely-bogus")
        with pytest.raises(CorruptionError) as err:
            Checkpoint.load(path)
        _assert_bad_magic(err, CKPT_MAGIC)

    def test_legacy_wrong_shape_rejected(self, tmp_path):
        path = tmp_path / "ckpt.bin"
        path.write_bytes(pickle.dumps({"not": "a pair"}))
        with pytest.raises(CorruptionError) as err:
            Checkpoint.load(path)
        _assert_bad_magic(err, CKPT_MAGIC)

    def test_legacy_wrong_types_rejected(self, tmp_path):
        path = tmp_path / "ckpt.bin"
        path.write_bytes(pickle.dumps(([1, 2], "not-an-int")))
        with pytest.raises(CorruptionError) as err:
            Checkpoint.load(path)
        _assert_bad_magic(err, CKPT_MAGIC)

    def test_well_formed_unframed_pickles_are_rejected(self, tmp_path):
        """The pre-framing formats — a pickled ``(rows, ts)`` pair and a
        pickled record list — carry no CRC and are not loaded."""
        ckpt_path = tmp_path / "ckpt.bin"
        ckpt_path.write_bytes(pickle.dumps(({(0, 0): [(1, ["v"], 10)]}, 42)))
        with pytest.raises(CorruptionError) as err:
            Checkpoint.load(ckpt_path)
        _assert_bad_magic(err, CKPT_MAGIC)

        record = LogRecord(txn_id=1, proc_id=2, inputs=(7,), home_worker=0,
                           layout_inputs=1, layout_outputs=0,
                           layout_scratch=0, layout_undo=0, layout_scan=0,
                           status=TxnStatus.COMMITTED.value, commit_ts=3)
        log_path = tmp_path / "cmd.log"
        log_path.write_bytes(pickle.dumps([record]))
        for strict in (True, False):
            with pytest.raises(CorruptionError) as err:
                CommandLog.load(log_path, strict=strict)
            _assert_bad_magic(err, LOG_MAGIC)


# ---------------------------------------------------------------------------
# NIC faults through the front-end serving path
# ---------------------------------------------------------------------------

class TestNicFaults:
    def _serve(self, plan, n=40, **session_kw):
        db = make_db()
        fe = FrontEnd(db, FrontendConfig.passthrough(), faults=plan)
        fe.session(make_factory(db), SessionConfig(
            name="t", arrival="open", rate_tps=1_000_000.0, n_requests=n,
            seed=4, **session_kw))
        rep = fe.run()
        fe.detach()
        return db, rep

    def test_wire_drop_is_terminal_and_conserved(self):
        plan = FaultPlan(seed=1).arm(NIC_DROP, prob=0.3, times=None)
        db, rep = self._serve(plan)
        lost = db.stats.counter("frontend.nic.fault_lost").value
        assert lost > 0
        assert rep.conserved
        assert rep.rejected == lost      # no retries: each loss is terminal

    def test_wire_drop_survived_by_retries(self):
        plan = FaultPlan(seed=1).arm(NIC_DROP, prob=0.3, times=None)
        db, rep = self._serve(plan, max_retries=8, retry_backoff_ns=100.0)
        assert rep.conserved
        assert rep.committed == rep.offered     # every loss retried through

    def test_corruption_discarded_like_loss(self):
        plan = FaultPlan(seed=2).arm(NIC_CORRUPT, nth=3)
        db, rep = self._serve(plan)
        assert db.stats.counter("frontend.nic.fault_corrupted").value == 1
        assert rep.conserved and rep.rejected == 1

    def test_duplicates_deduped_once_in_system(self):
        plan = FaultPlan(seed=3).arm(NIC_DUPLICATE, prob=0.5, times=None)
        db, rep = self._serve(plan)
        dups = db.stats.counter("frontend.nic.fault_duplicated").value
        assert dups > 0
        assert db.stats.counter("frontend.dup_discarded").value == dups
        assert rep.conserved
        assert rep.committed == rep.offered     # dups never double-execute


# ---------------------------------------------------------------------------
# Cluster interconnect faults
# ---------------------------------------------------------------------------

def _range_partition(per_part):
    return lambda key, parts: min(key // per_part, parts - 1)


def _make_cluster(plan):
    cluster = BionicDB(BionicConfig(n_workers=1), n_nodes=2, faults=plan)
    cluster.define_table(TableSchema(0, "kv", index_kind=IndexKind.HASH,
                                     partition_fn=_range_partition(1000)))
    b = ProcedureBuilder("read")
    b.search(cp=0, table=0, key=b.at(0))
    b.commit_handler()
    b.ret(0, 0)
    b.store(Gp(0), b.at(1))
    b.commit()
    cluster.register_procedure(0, b.build())
    cluster.load(0, 1500, ["far"])
    return cluster


class TestInterconnectFaults:
    def test_link_drop_strands_without_hanging(self):
        plan = FaultPlan(seed=0).arm(LINK_DROP, nth=1)
        cluster = _make_cluster(plan)
        block = cluster.new_block(0, [1500, None], worker=0)
        cluster.submit(block)
        # drains: the lost message never arrives, and the stranded
        # transaction surfaces instead of passing for a quiet run
        with pytest.raises(StuckTransactionError) as exc_info:
            cluster.run()
        assert block.txn_id in exc_info.value.details["stuck"]
        assert cluster.stats.counter("comm.fault_lost").value == 1
        assert block.header.status is not TxnStatus.COMMITTED

    def test_link_stall_delays_but_commits(self):
        baseline = _make_cluster(None)
        block = baseline.new_block(0, [1500, None], worker=0)
        baseline.submit(block)
        clean_ns = baseline.run()
        assert block.header.status is TxnStatus.COMMITTED

        plan = FaultPlan(seed=0).arm(LINK_STALL, nth=1)
        stalled = _make_cluster(plan)
        block2 = stalled.new_block(0, [1500, None], worker=0)
        stalled.submit(block2)
        stalled_ns = stalled.run()
        assert block2.header.status is TxnStatus.COMMITTED
        assert stalled.stats.counter("comm.fault_stalled").value == 1
        assert stalled_ns > clean_ns


# ---------------------------------------------------------------------------
# Zero overhead when disabled
# ---------------------------------------------------------------------------

class TestZeroOverheadWhenDisabled:
    def _run(self, faults):
        db = build_db()
        for k in range(8):
            db.load(0, k, [f"v{k}"])
        log = CommandLog()
        for k in range(8):
            block = db.new_block(1, [k, f"u{k}"], worker=0)
            log.append_pending(block)
            db.submit(block, 0)
            db.run()
            log.finalize(block)
        return db.engine.now, [r.commit_ts for r in log.records()]

    def test_unarmed_plan_identical_to_no_plan(self):
        """An armed-nothing plan threads through every hook without
        changing behaviour or timing — and a disabled run never touches
        the plan's RNG."""
        assert self._run(None) == self._run(None)   # determinism baseline
        plan = FaultPlan(seed=99)
        before = plan.rng.getstate()
        db = build_db()
        for k in range(8):
            db.load(0, k, [f"v{k}"])
        assert plan.rng.getstate() == before
        assert not plan.fired_log

    def test_frontend_timing_unchanged_by_unarmed_plan(self):
        def serve(plan):
            db = make_db()
            fe = FrontEnd(db, FrontendConfig.passthrough(), faults=plan)
            fe.session(make_factory(db), SessionConfig(
                name="t", arrival="open", rate_tps=500_000.0,
                n_requests=30, seed=9))
            rep = fe.run()
            fe.detach()
            return rep.committed, db.engine.now

        assert serve(None) == serve(FaultPlan(seed=123))


# ---------------------------------------------------------------------------
# Recovery drills (smoke here; the sweep runs as CI's drill job)
# ---------------------------------------------------------------------------

class TestRecoveryDrill:
    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError):
            Drill(DrillConfig("single", workload="nope"))

    @pytest.mark.parametrize("workload", ["ycsb", "tpcc"])
    def test_end_to_end_round_trip(self, workload):
        """One full drill per workload: crash, salvage, replay,
        re-execute the tail, match the golden run exactly."""
        result = Drill(DrillConfig(
            "single", workload=workload, seed=1, n_txns=10)).run()
        assert result.ok, result.failure
        assert result.counts["crashed"]    # seed 1 picks a crashing flavour
        assert result.counts["salvaged"] >= result.counts["acked"]

    def test_drill_is_deterministic(self):
        for suite in SUITES:
            cfg = DrillConfig(suite, seed=5, n_txns=8)
            a = Drill(cfg).run()
            b = Drill(cfg).run()
            assert a.ok, a.summary()
            assert (a.flavor, a.counts, a.fault_log) == \
                (b.flavor, b.counts, b.fault_log)

    @pytest.mark.drill
    def test_drill_sweep_smoke(self):
        from repro.faults import run_sweep
        results = run_sweep("single", range(12), workload="mixed", n_txns=12)
        assert all(r.ok for r in results), \
            [r.summary() for r in results if not r.ok]
        assert any(r.counts["crashed"] for r in results)


@pytest.mark.drill
class TestDrillHarness:
    def test_config_is_checked_against_the_suite(self):
        with pytest.raises(ValueError, match="suite"):
            Drill(DrillConfig("nope"))
        with pytest.raises(ValueError, match="only runs YCSB"):
            Drill(DrillConfig("cluster", workload="tpcc"))
        with pytest.raises(ValueError, match="no flavour"):
            Drill(DrillConfig("cluster", flavor="flash_crowd"))
        with pytest.raises(ValueError, match="two transactions"):
            Drill(DrillConfig("overload", n_txns=1))

    def test_cli_says_what_it_does(self, capsys):
        from repro.faults.drill import main
        for argv in (["--suite", "cluster", "--workload", "tpcc"],
                     ["--workload", "ycsb"], ["--txns", "1"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
        # --txns reaches every suite, not only the single one
        assert main(["--suite", "overload", "--seeds", "2", "--txns", "12",
                     "-v"]) == 0
        out = capsys.readouterr().out
        assert "offered=12" in out
        assert "overload: 2 drills, 2 ok, 0 failed" in out

    @pytest.mark.parametrize("suite,flavor", [
        (suite, flavor) for suite, rows in SUITES.items()
        for flavor, _weight in rows])
    def test_every_flavor_smoke(self, suite, flavor):
        result = Drill(DrillConfig(suite, seed=2, flavor=flavor)).run()
        assert result.ok, result.summary()
        assert result.flavor == flavor

    def test_seeds_draw_what_they_always_drew(self):
        """Seeds 0-24 of each suite: the flavour histogram and the
        headline tally, pinned — the plan's RNG is consumed in a fixed
        order, so a seed names one incident forever."""
        from collections import Counter
        from repro.faults import run_sweep
        drawn = {suite: run_sweep(suite, range(25)) for suite in SUITES}
        assert all(r.ok for rs in drawn.values() for r in rs)
        hist = {suite: dict(Counter(r.flavor for r in rs))
                for suite, rs in drawn.items()}
        assert hist == {
            "single": dict(bit_flip=5, ckpt_after_rename=2,
                           ckpt_before_rename=2, clean_stop=3, machine=7,
                           none=3, torn_append=3),
            "cluster": dict(clean=3, false_positive=5, hb_loss_storm=2,
                            link_partition=3, migration_dst_death=2,
                            migration_live=2, migration_src_death=2,
                            node_death=3, stale_epoch=3),
            "overload": dict(flash_crowd=6, migration_under_load=6,
                             retry_storm_failover=8, slow_client_storm=5),
        }
        assert sum(r.counts["crashed"] for r in drawn["single"]) == 22
        assert sum(r.counts["failovers"] for r in drawn["cluster"]) == 18


@pytest.mark.drill
class TestDrillHasTeeth:
    """Break what a suite guards and the suite must say so."""

    def test_lost_finalize_is_a_durability_violation(self, monkeypatch):
        monkeypatch.setattr(CommandLog, "finalize", lambda self, block: None)
        for seed in range(4):
            result = Drill(DrillConfig("single", seed=seed, n_txns=8)).run()
            assert not result.ok
            assert "durability violated" in result.failure

    @staticmethod
    def _cluster_failures():
        from repro.faults import run_sweep
        return [r.failure for r in run_sweep("cluster", range(25))
                if not r.ok]

    def test_reexecuting_without_reconcile_is_a_double_execution(
            self, monkeypatch):
        from repro.cluster.ha import HACluster
        monkeypatch.setattr(HACluster, "reconcile", lambda self, tag: None)
        assert any("double execution" in f for f in self._cluster_failures())

    def test_forgetting_a_stalled_txn_is_a_double_execution(
            self, monkeypatch):
        from repro.cluster import ClusterRetryRouter

        class Forgetful(set):
            def add(self, tag):
                pass

        init = ClusterRetryRouter.__init__

        def forgetful_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            self.stalled = Forgetful()

        monkeypatch.setattr(ClusterRetryRouter, "__init__", forgetful_init)
        assert any("double execution" in f for f in self._cluster_failures())

    @pytest.mark.parametrize("flavor", ["flash_crowd", "slow_client_storm"])
    def test_unbudgeted_retries_break_class_amplification(
            self, monkeypatch, flavor):
        from repro.frontend import RetryBudget
        monkeypatch.setattr(RetryBudget, "try_spend",
                            lambda self, *args, **kwargs: True)
        result = Drill(DrillConfig("overload", seed=2, flavor=flavor)).run()
        assert not result.ok
        assert "retry amplification broke its budget" in result.failure
