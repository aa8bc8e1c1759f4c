"""Tests for the network front-end: NIC, admission, dispatch, SLOs.

The central invariant is the conservation law: every request a session
generates ends in exactly one terminal outcome, so

    committed + aborted + rejected + timed_out == offered

for every combination of rate limit, queue bound and deadline.
"""

import pytest

from repro.core import BionicConfig, BionicDB
from repro.errors import ConfigError, FrontendError, StuckTransactionError
from repro.frontend import (
    AdmissionConfig, FrontEnd, FrontendConfig, NicConfig, SchedulerConfig,
    SessionConfig, TokenBucket,
    REASON_BACKLOG, REASON_DEADLINE, REASON_RATE, REASON_RX_OVERFLOW,
)
from repro.frontend.scheduler import DispatchScheduler
from repro.isa import Gp, ProcedureBuilder
from repro.mem import TableSchema
from repro.mem.txnblock import TxnStatus
from repro.sim import Engine, nearest_rank

N_KEYS = 200


def _install_kv(db, n_keys=N_KEYS):
    db.define_table(TableSchema(0, "kv", hash_buckets=512))
    b = ProcedureBuilder("get")
    b.search(cp=0, table=0, key=b.at(0))
    b.commit_handler()
    b.ret(0, 0)
    b.store(Gp(0), b.at(1))
    b.commit()
    db.register_procedure(1, b.build())
    for k in range(n_keys):
        db.load(0, k, [f"v{k}"])


def make_db(n_workers=2):
    db = BionicDB(BionicConfig(n_workers=n_workers))
    _install_kv(db)
    return db


def make_factory(db, n_workers=None):
    total = n_workers or db.config.n_workers

    def factory(i):
        key = i % N_KEYS
        home = db.schemas.table(0).route(key, total)
        block = db.new_block(1, [key, None], worker=home)
        return block, home

    return factory


class TestConservation:
    """committed + aborted + rejected + timed_out == offered, always."""

    @pytest.mark.parametrize("rate_tps", [None, 400_000.0])
    @pytest.mark.parametrize("max_backlog", [None, 8])
    @pytest.mark.parametrize("deadline_ns", [None, 40_000.0])
    def test_every_request_reaches_one_terminal_state(
            self, rate_tps, max_backlog, deadline_ns):
        db = make_db()
        cfg = FrontendConfig(
            admission=AdmissionConfig(rate_tps=rate_tps, burst=8,
                                      max_backlog=max_backlog),
            scheduler=SchedulerConfig(max_inflight_per_worker=4))
        fe = FrontEnd(db, cfg)
        n = 150
        fe.session(make_factory(db), SessionConfig(
            name="t", arrival="open", rate_tps=3_000_000.0, n_requests=n,
            deadline_ns=deadline_ns, seed=3))
        rep = fe.run()
        fe.detach()
        assert rep.offered == n
        assert rep.conserved
        assert (rep.committed + rep.aborted + rep.rejected
                + rep.timed_out == n)
        if rate_tps is not None or max_backlog is not None:
            assert rep.rejected > 0      # 3M offered into a throttled door
        if deadline_ns is None:
            assert rep.timed_out == 0

    def test_shed_blocks_carry_terminal_status_and_reason(self):
        db = make_db()
        fe = FrontEnd(db, FrontendConfig(
            admission=AdmissionConfig(rate_tps=100_000.0, burst=1)))
        sess = fe.session(make_factory(db), SessionConfig(
            name="t", arrival="open", rate_tps=2_000_000.0, n_requests=60))
        rep = fe.run()
        fe.detach()
        assert rep.rejected > 0
        shed = [r for r in sess.requests if r.outcome == "rejected"]
        assert shed
        for req in shed:
            assert req.block.header.status is TxnStatus.REJECTED
            assert req.reason in (REASON_RATE, REASON_BACKLOG,
                                  REASON_RX_OVERFLOW)
            assert req.block.header.abort_reason == req.reason
            assert req.block.header.status.terminal

    def test_unresolved_request_raises_stuck_transaction_error(self):
        db = make_db()
        fe = FrontEnd(db, FrontendConfig.passthrough())
        fe.session(make_factory(db), SessionConfig(
            name="t", arrival="open", rate_tps=1_000_000.0, n_requests=3))
        # sever the completion path: the chip finishes the txns but the
        # front-end never hears about it
        fe._note_done = lambda block: None
        with pytest.raises(StuckTransactionError):
            fe.run()
        fe.detach()


class TestConfigErrors:
    def test_zero_capacity_bucket_is_config_error(self):
        with pytest.raises(ConfigError):
            AdmissionConfig(rate_tps=0.0)
        with pytest.raises(ConfigError):
            TokenBucket(Engine(), 0.0, 4)

    def test_zero_deadline_is_config_error(self):
        with pytest.raises(ConfigError):
            SessionConfig(name="t", arrival="open", rate_tps=1.0,
                          deadline_ns=0.0)

    def test_zero_window(self):
        with pytest.raises(ConfigError):
            SchedulerConfig(max_inflight_per_worker=0)

    def test_nic_bounds(self):
        with pytest.raises(ConfigError):
            NicConfig(bandwidth_gbps=0.0)
        with pytest.raises(ConfigError):
            NicConfig(rx_queue_depth=0)

    def test_open_loop_needs_rate(self):
        with pytest.raises(ConfigError):
            SessionConfig(name="t", arrival="open", rate_tps=None)

    def test_config_errors_are_value_errors(self):
        # the taxonomy promise: ConfigError is catchable as ValueError
        with pytest.raises(ValueError):
            AdmissionConfig(rate_tps=-1.0)


class TestNic:
    def test_bounded_rx_queue_drops_bursts(self):
        db = make_db()
        fe = FrontEnd(db, FrontendConfig(
            nic=NicConfig(bandwidth_gbps=None, propagation_ns=0.0,
                          rx_queue_depth=2, rx_process_ns=50_000.0),
            admission=AdmissionConfig()))
        sess = fe.session(make_factory(db), SessionConfig(
            name="burst", arrival="open", rate_tps=10_000_000.0,
            n_requests=40))
        rep = fe.run()
        fe.detach()
        assert fe.nic.dropped > 0
        assert rep.rejected == fe.nic.dropped
        assert rep.conserved
        dropped = [r for r in sess.requests if r.outcome == "rejected"]
        assert all(r.reason == REASON_RX_OVERFLOW for r in dropped)

    def test_wire_serialisation_charges_time(self):
        db = make_db()
        # 1 Gbps and 576-byte request packets: 4.6 us per packet on the
        # wire, so 20 back-to-back arrivals serialise to ~92 us
        fe = FrontEnd(db, FrontendConfig(
            nic=NicConfig(bandwidth_gbps=1.0, propagation_ns=0.0),
            admission=AdmissionConfig()))
        fe.session(make_factory(db), SessionConfig(
            name="wire", arrival="open", rate_tps=1e9, n_requests=20))
        rep = fe.run()
        fe.detach()
        wire_ns = fe.nic.wire_ns(fe.nic.packet_bytes(fe.sessions[0].requests[0]))
        assert rep.elapsed_ns >= 19 * wire_ns

    def test_retry_with_backoff_recovers_sheds(self):
        db = make_db()
        fe = FrontEnd(db, FrontendConfig(
            nic=NicConfig(bandwidth_gbps=None, propagation_ns=0.0,
                          rx_queue_depth=1, rx_process_ns=20_000.0),
            admission=AdmissionConfig()))
        sess = fe.session(make_factory(db), SessionConfig(
            name="retry", arrival="open", rate_tps=5_000_000.0,
            n_requests=30, max_retries=8, retry_backoff_ns=30_000.0))
        rep = fe.run()
        fe.detach()
        assert sess.stats.retries > 0
        # retried requests eventually land: far fewer terminal rejects
        # than raw NIC drops
        assert fe.nic.dropped > rep.rejected
        assert rep.conserved


class TestTokenBucket:
    def test_burst_then_refill(self):
        engine = Engine()
        bucket = TokenBucket(engine, rate_tps=1_000_000.0, burst=2)
        assert bucket.try_take() and bucket.try_take()
        assert not bucket.try_take()
        engine.run(until=2_000.0)     # 2 us at 1 token/us
        assert bucket.try_take() and bucket.try_take()
        assert not bucket.try_take()

    def test_tokens_cap_at_burst(self):
        engine = Engine()
        bucket = TokenBucket(engine, rate_tps=1_000_000.0, burst=3)
        engine.run(until=1e9)
        for _ in range(3):
            assert bucket.try_take()
        assert not bucket.try_take()


class _StubSession:
    def __init__(self, sid):
        self.id = sid


class _StubRequest:
    def __init__(self, sid, tag, home=0, deadline=None):
        self.session = _StubSession(sid)
        self.tag = tag
        self.home = home
        self.deadline_at_ns = deadline
        self.seq = 0

    def expired(self, now_ns):
        return self.deadline_at_ns is not None and now_ns > self.deadline_at_ns


class TestDispatchScheduler:
    def _scheduler(self, engine):
        order = []
        sched = DispatchScheduler(
            engine, 1, SchedulerConfig(max_inflight_per_worker=None),
            submit=lambda r: order.append(r.tag),
            on_timeout=lambda r: order.append(("timeout", r.tag)))
        return sched, order

    def test_weighted_fair_gives_2x_share(self):
        engine = Engine()
        sched, order = self._scheduler(engine)
        sched.register_session(0, 2.0)
        sched.register_session(1, 1.0)
        for i in range(6):
            sched.enqueue(_StubRequest(0, "A"))
        for i in range(6):
            sched.enqueue(_StubRequest(1, "B"))
        engine.run()
        head = order[:9]
        assert head.count("A") == 6 and head.count("B") == 3
        assert sorted(order) == ["A"] * 6 + ["B"] * 6

    def test_expired_request_is_timed_out_not_submitted(self):
        engine = Engine()
        engine.run(until=50_000.0)        # now = 50 us
        sched, order = self._scheduler(engine)
        sched.register_session(0, 1.0)
        sched.enqueue(_StubRequest(0, "dead", deadline=10_000.0))
        engine.run()
        assert order == [("timeout", "dead")]


class TestSessions:
    def test_closed_loop_window_bounds_inflight(self):
        db = make_db()
        fe = FrontEnd(db, FrontendConfig.passthrough())
        sess = fe.session(make_factory(db), SessionConfig(
            name="closed", arrival="closed", concurrency=4, n_requests=64,
            think_ns=1_000.0))
        rep = fe.run()
        fe.detach()
        assert rep.committed == 64
        assert rep.conserved
        assert sess.stats.deadline_met == 64      # no deadline: all met

    def test_multi_tenant_stats_are_separate(self):
        db = make_db()
        fe = FrontEnd(db, FrontendConfig.passthrough())
        a = fe.session(make_factory(db), SessionConfig(
            name="a", arrival="open", rate_tps=500_000.0, n_requests=20))
        b = fe.session(make_factory(db), SessionConfig(
            name="b", arrival="open", rate_tps=500_000.0, n_requests=10))
        rep = fe.run()
        fe.detach()
        assert a.stats.offered == 20 and b.stats.offered == 10
        assert rep.offered == 30 and rep.conserved

    def test_deadline_scheduling_sheds_instead_of_serving_late(self):
        db = make_db()
        fe = FrontEnd(db, FrontendConfig(
            scheduler=SchedulerConfig(max_inflight_per_worker=2)))
        fe.session(make_factory(db), SessionConfig(
            name="slo", arrival="open", rate_tps=4_000_000.0,
            n_requests=120, deadline_ns=25_000.0))
        rep = fe.run()
        fe.detach()
        assert rep.timed_out > 0
        assert rep.conserved
        # every commit that counts toward goodput met its deadline
        assert rep.deadline_met <= rep.committed


class TestAttachment:
    def test_second_frontend_is_rejected(self):
        db = make_db()
        fe = FrontEnd(db, FrontendConfig.passthrough())
        with pytest.raises(FrontendError):
            FrontEnd(db, FrontendConfig.passthrough())
        fe.detach()
        fe2 = FrontEnd(db, FrontendConfig.passthrough())   # now allowed
        fe2.detach()

    def test_only_the_attached_frontend_hears_completions(self, monkeypatch):
        heard = []
        monkeypatch.setattr(FrontEnd, "_note_done",
                            lambda fe, block: heard.append((fe, block)))
        db = make_db()
        fe = FrontEnd(db, FrontendConfig.passthrough())
        fe.detach()
        fe2 = FrontEnd(db, FrontendConfig.passthrough())
        block, home = make_factory(db)(0)
        db.submit(block, home)
        db.run()
        assert heard == [(fe2, block)]
        fe2.detach()

    def test_detached_frontend_refuses_sessions(self):
        db = make_db()
        fe = FrontEnd(db, FrontendConfig.passthrough())
        fe.detach()
        with pytest.raises(FrontendError):
            fe.session(make_factory(db), SessionConfig(
                name="x", arrival="open", rate_tps=1.0, n_requests=1))
        with pytest.raises(FrontendError):
            fe.run()

    def test_direct_submit_coexists_with_frontend(self):
        db = make_db()
        fe = FrontEnd(db, FrontendConfig.passthrough())
        fe.session(make_factory(db), SessionConfig(
            name="net", arrival="open", rate_tps=1_000_000.0, n_requests=5))
        block = db.new_block(1, [3, None], worker=0)
        db.submit(block, 0)               # old path, bypassing the NIC
        rep = fe.run()
        fe.detach()
        assert rep.offered == 5 and rep.conserved
        assert block.header.status is TxnStatus.COMMITTED

    def test_cluster_frontend(self):
        cluster = BionicDB(BionicConfig(n_workers=1), n_nodes=2)
        _install_kv(cluster)
        fe = FrontEnd(cluster, FrontendConfig.passthrough())
        fe.session(make_factory(cluster, n_workers=cluster.total_workers),
                   SessionConfig(name="clu", arrival="open",
                                 rate_tps=500_000.0, n_requests=30))
        rep = fe.run()
        fe.detach()
        assert rep.committed == 30 and rep.conserved

    def test_watchdog_reaches_a_multi_node_machine(self):
        from repro.sim.engine import SimulationError
        cluster = BionicDB(BionicConfig(n_workers=1), n_nodes=2)
        _install_kv(cluster)
        fe = FrontEnd(cluster, FrontendConfig.passthrough())
        fe.session(make_factory(cluster, n_workers=cluster.total_workers),
                   SessionConfig(name="clu", arrival="open",
                                 rate_tps=500_000.0, n_requests=30))
        with pytest.raises(SimulationError):
            fe.run(max_events=50)

    def test_type_error_from_the_drain_is_not_retried(self):
        db = make_db()
        fe = FrontEnd(db, FrontendConfig.passthrough())
        calls = []

        def run(**kwargs):
            calls.append(kwargs)
            raise TypeError("raised by a callback mid-drain")

        db.run = run
        with pytest.raises(TypeError, match="mid-drain"):
            fe.run()
        assert calls == [{"until": None, "max_events": None}]


class TestHandlers:
    """The serving path is handlers the engine calls, not processes."""

    def test_factory_failure_leaves_db_run(self):
        db = make_db()
        fe = FrontEnd(db, FrontendConfig.passthrough())
        factory = make_factory(db)

        def failing(i):
            if i == 3:
                raise RuntimeError("factory failed at request 3")
            return factory(i)

        sess = fe.session(failing, SessionConfig(
            name="t", arrival="open", rate_tps=1_000_000.0, n_requests=10))
        with pytest.raises(RuntimeError, match="request 3"):
            db.run()
        assert sess.stats.offered == 3

    def test_frontend_spawns_no_process(self, monkeypatch):
        from repro.faults import FaultPlan, NIC_DROP, NIC_DUPLICATE
        db = make_db()
        spawned = []
        real_start = Engine.start

        def start(engine, gen):
            spawned.append(gen.__qualname__)
            return real_start(engine, gen)

        monkeypatch.setattr(Engine, "start", start)
        plan = FaultPlan(seed=1)
        plan.arm(NIC_DROP, prob=0.2, times=None)
        plan.arm(NIC_DUPLICATE, prob=0.2, times=None)
        fe = FrontEnd(db, FrontendConfig(
            nic=NicConfig(rx_queue_depth=2, rx_process_ns=2_000.0)),
            faults=plan)
        sess = fe.session(make_factory(db), SessionConfig(
            name="t", arrival="open", rate_tps=2_000_000.0, n_requests=30,
            max_retries=3, retry_backoff_ns=5_000.0, retry_jitter=0.5))
        rep = fe.run()
        fe.detach()
        assert rep.conserved
        assert sess.stats.retries > 0 and fe.nic.dropped > 0
        assert spawned == []


class TestLatencySummary:
    def test_nearest_rank_contract(self):
        assert nearest_rank([1.0, 2.0, 3.0, 4.0], 50) == 2.0
        assert nearest_rank([1.0, 2.0, 3.0, 4.0], 100) == 4.0
        assert nearest_rank([], 99) == 0.0
        with pytest.raises(ValueError):
            nearest_rank([1.0], 0)

    def test_report_reads_the_exact_samples(self):
        db = make_db()
        fe = FrontEnd(db, FrontendConfig.passthrough())
        a = fe.session(make_factory(db), SessionConfig(
            name="a", arrival="open", rate_tps=800_000.0, n_requests=25))
        b = fe.session(make_factory(db), SessionConfig(
            name="b", arrival="open", rate_tps=800_000.0, n_requests=15))
        rep = fe.run()
        fe.detach()
        samples = a.stats.latencies_ns + b.stats.latencies_ns
        assert len(samples) == rep.committed == 40
        assert rep.percentile_ns(99) == nearest_rank(sorted(samples), 99)
