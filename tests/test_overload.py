"""Tests for overload resilience: the front end's retry budget and
brownout admission, the cluster planner's breakers and retries, and the
metastable-failure drills.

The contract has four parts, each tested here:

* **Bounded amplification** — retries can never exceed
  ``burst + ratio × first_attempts`` per priority class
  (:class:`repro.frontend.RetryBudget`).
* **Priority under overload** — :class:`repro.frontend.AdmissionController`
  browns out low-priority classes first and never class 0.
* **Fail fast, then heal** — :mod:`repro.cluster.router`'s breakers trip
  on repeated partition failures, fail further work fast, and re-close
  after probe success.
* **Exactly-once through retries** — the cluster router reconciles
  against the authoritative log before any re-submit, so a failover
  retry never double-executes a committed transaction.
"""

import random

import pytest

from repro.cluster.membership import HEARTBEAT_TIMEOUT_NS
from repro.cluster.router import (
    BREAKER_CLOSED, BREAKER_HALF_OPEN, BREAKER_MIN_SAMPLES, BREAKER_OPEN,
    BREAKER_OPEN_NS, BREAKER_WINDOW, BreakerBank, CircuitBreaker,
    ClusterRetryRouter,
)
from repro.core import BionicConfig, BionicDB
from repro.errors import (
    ConfigError, CrossNodeTransactionError, FrontendError,
)
from repro.frontend import (
    REASON_BROWNOUT, AdmissionConfig, AdmissionController, FrontEnd,
    FrontendConfig, RetryBudget, RetryBudgetConfig, SchedulerConfig,
    SessionConfig,
)
from repro.isa import Gp, ProcedureBuilder
from repro.mem import TableSchema
from repro.sim.engine import Engine

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
        return db.new_block(1, [key, None], worker=home), home

    return factory


# -- retry budget ------------------------------------------------------------

class TestRetryBudget:
    def test_burst_then_exhaustion(self):
        budget = RetryBudget(RetryBudgetConfig(ratio=0.0, burst=3))
        assert [budget.try_spend() for _ in range(5)] == \
            [True, True, True, False, False]
        assert budget.totals() == {"granted": 3, "denied": 2}

    def test_first_attempts_fund_retries(self):
        budget = RetryBudget(RetryBudgetConfig(ratio=0.5, burst=2))
        for _ in range(2):
            assert budget.try_spend()
        assert not budget.try_spend()        # burst gone
        budget.note_first_attempt()
        budget.note_first_attempt()          # 2 × 0.5 = 1 token
        assert budget.try_spend()
        assert not budget.try_spend()

    def test_amplification_bound_holds_under_any_interleaving(self):
        cfg = RetryBudgetConfig(ratio=0.3, burst=5)
        budget = RetryBudget(cfg)
        rng = random.Random(11)
        first = granted = 0
        for _ in range(400):
            if rng.random() < 0.5:
                budget.note_first_attempt()
                first += 1
            elif budget.try_spend():
                granted += 1
        assert granted <= cfg.burst + cfg.ratio * first

    def test_deposit_caps_at_burst(self):
        budget = RetryBudget(RetryBudgetConfig(ratio=0.5, burst=4))
        budget.deposit(100.0)
        assert budget.tokens() == 4.0

    def test_classes_are_isolated(self):
        budget = RetryBudget(RetryBudgetConfig(ratio=0.0, burst=1))
        assert budget.try_spend(cls=2)
        assert not budget.try_spend(cls=2)   # class 2 drained...
        assert budget.try_spend(cls=0)       # ...class 0 untouched

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            RetryBudgetConfig(ratio=-0.1)
        with pytest.raises(ConfigError):
            RetryBudgetConfig(burst=-1)


# -- circuit breakers --------------------------------------------------------

def _trip(brk, now_ns=0.0):
    for _ in range(BREAKER_MIN_SAMPLES):
        brk.record_failure(now_ns)


class TestCircuitBreaker:
    def test_stays_closed_under_min_samples(self):
        brk = CircuitBreaker()
        for _ in range(BREAKER_MIN_SAMPLES - 1):
            brk.record_failure(0.0)
        assert brk.state == BREAKER_CLOSED

    def test_trips_at_failure_threshold(self):
        brk = CircuitBreaker()
        _trip(brk)
        assert brk.state == BREAKER_OPEN
        assert not brk.allow(BREAKER_OPEN_NS / 2)    # still cooling down
        assert brk.opened == 1

    def test_successes_dilute_the_window(self):
        brk = CircuitBreaker()
        for _ in range(BREAKER_WINDOW - 2):
            brk.record_success(0.0)
        brk.record_failure(0.0)              # 1/7 < 0.5
        assert brk.state == BREAKER_CLOSED

    def test_half_open_probes_then_reclose(self):
        brk = CircuitBreaker()               # two half-open probes
        _trip(brk)
        assert brk.allow(BREAKER_OPEN_NS)    # cooldown over: probe 1
        assert brk.state == BREAKER_HALF_OPEN
        assert brk.allow(BREAKER_OPEN_NS)    # probe 2
        assert not brk.allow(BREAKER_OPEN_NS)    # probes exhausted
        brk.record_success(BREAKER_OPEN_NS + 500.0)
        assert brk.state == BREAKER_CLOSED
        assert brk.reclosed == 1

    def test_failed_probe_reopens_immediately(self):
        brk = CircuitBreaker()
        _trip(brk)
        assert brk.allow(BREAKER_OPEN_NS)    # half-open probe
        reopened = BREAKER_OPEN_NS + 200.0
        brk.record_failure(reopened)
        assert brk.state == BREAKER_OPEN
        assert not brk.allow(BREAKER_OPEN_NS + 500.0)    # new cooldown
        assert brk.allow(reopened + BREAKER_OPEN_NS)

    def test_bank_is_per_partition_and_aggregates(self):
        bank = BreakerBank()
        for _ in range(BREAKER_MIN_SAMPLES):
            bank.record_failure(3, 0.0)
        assert not bank.allow(3, 0.0)
        assert bank.allow(1, 0.0)            # other partitions unaffected
        assert not bank.all_closed()
        assert bank.states()[3] == BREAKER_OPEN
        assert bank.allow(3, BREAKER_OPEN_NS)
        bank.record_success(3, BREAKER_OPEN_NS + 100.0)
        assert bank.all_closed()
        assert bank.transitions() == {"opened": 1, "half_opened": 1,
                                      "reclosed": 1}


# -- brownout ----------------------------------------------------------------

def _door(max_backlog):
    return AdmissionController(Engine(),
                               AdmissionConfig(max_backlog=max_backlog))


class TestBrownout:
    def test_sheds_low_priority_first(self):
        door = _door(100)
        assert door.check(70, 0) is None     # class 0 is never shed
        assert door.check(70, 1) is None     # 0.70 < 0.85
        assert door.check(70, 2) == REASON_BROWNOUT   # 0.70 >= 0.60
        assert door.brownout_shed == {2: 1}

    def test_hysteresis_releases_below_threshold(self):
        door = _door(100)
        assert door.check(60, 2) == REASON_BROWNOUT   # engage at 0.60
        assert door.check(46, 2) == REASON_BROWNOUT   # >= 0.60 × 0.75: hold
        assert door.check(44, 2) is None     # 0.44 < 0.45: release
        assert door.check(50, 2) is None     # re-engages only at 0.60

    def test_priority_beyond_table_uses_last_entry(self):
        door = _door(10)
        assert door.check(5, 7) is None
        assert door.check(6, 7) == REASON_BROWNOUT    # class 2's 0.60

    def test_uncapped_never_sheds(self):
        door = _door(None)
        assert door.check(10, 5) is None
        assert door.brownout_shed == {}


# -- FrontEnd integration ----------------------------------------------------

class TestFrontendResilience:
    def test_disabled_resilience_builds_no_router(self):
        db = make_db()
        fe = FrontEnd(db, FrontendConfig())
        assert fe.budget is None
        fe.session(make_factory(db), SessionConfig(
            name="t", arrival="open", rate_tps=500_000.0, n_requests=20))
        rep = fe.run()
        fe.detach()
        assert rep.committed == 20
        # report keeps the pre-resilience shape when the layer is off
        assert rep.retry_budget == {} and rep.brownout_shed == {}
        assert "retry-budget" not in rep.render()

    def test_brownout_sheds_by_priority_class(self):
        db = make_db()
        fe = FrontEnd(db, FrontendConfig(
            admission=AdmissionConfig(max_backlog=32),
            scheduler=SchedulerConfig(max_inflight_per_worker=8)))
        base = fe.session(make_factory(db), SessionConfig(
            name="base", arrival="open", rate_tps=300_000.0,
            n_requests=80, priority=0, weight=4.0))
        crowd = fe.session(make_factory(db), SessionConfig(
            name="crowd", arrival="open", rate_tps=5_000_000.0,
            n_requests=150, priority=2, weight=1.0))
        rep = fe.run()
        fe.detach()
        assert rep.conserved
        assert crowd.stats.rejected_brownout > 0
        assert base.stats.rejected_brownout == 0
        by_class = rep.by_class()
        assert by_class[2]["rejected_brownout"] == \
            crowd.stats.rejected_brownout
        assert rep.brownout_shed.get(2, 0) >= crowd.stats.rejected_brownout
        assert "class 2:" in rep.render()
        for row in by_class.values():
            assert (row["committed"] + row["aborted"] + row["rejected"]
                    + row["timed_out"] == row["offered"])

    def test_retry_budget_bounds_session_retries(self):
        db = make_db()
        budget = RetryBudgetConfig(ratio=0.0, burst=3)
        fe = FrontEnd(db, FrontendConfig(
            admission=AdmissionConfig(rate_tps=150_000.0, burst=1),
            retry_budget=budget))
        sess = fe.session(make_factory(db), SessionConfig(
            name="t", arrival="open", rate_tps=2_000_000.0, n_requests=40,
            max_retries=10, retry_backoff_ns=2_000.0))
        rep = fe.run()
        fe.detach()
        assert rep.conserved
        assert sess.stats.retries <= budget.burst     # ratio=0: hard cap
        assert sess.stats.retries_denied > 0
        assert rep.retry_budget["denied"] == sess.stats.retries_denied

    @pytest.mark.parametrize("retry_budget", [None, RetryBudgetConfig()],
                             ids=["plain", "resilient"])
    def test_cross_node_submit_raises_out_of_run(self, retry_budget):
        # a mis-wired factory is a program error, not a transient: the
        # submit's exception leaves run() whether or not retries are
        # budgeted
        cluster = BionicDB(BionicConfig(n_workers=1), n_nodes=2)
        _install_kv(cluster)
        fe = FrontEnd(cluster, FrontendConfig(retry_budget=retry_budget))

        def misrouted_factory(i):
            block = cluster.new_block(1, [0, None], worker=0)
            return block, 1                          # other node's worker

        fe.session(misrouted_factory, SessionConfig(
            name="clu", arrival="open", rate_tps=400_000.0, n_requests=2))
        with pytest.raises(CrossNodeTransactionError):
            fe.run()
        fe.detach()

    def test_retry_jitter_reproduces_from_a_shared_rng(self):
        def run_once(seed):
            db = make_db()
            fe = FrontEnd(db, FrontendConfig(
                admission=AdmissionConfig(rate_tps=150_000.0, burst=1),
                retry_budget=RetryBudgetConfig()))
            sess = fe.session(make_factory(db), SessionConfig(
                name="t", arrival="open", rate_tps=2_000_000.0,
                n_requests=30, max_retries=4, retry_backoff_ns=3_000.0,
                retry_jitter=0.5), rng=random.Random(seed))
            rep = fe.run()
            fe.detach()
            return (rep.committed, rep.rejected, sess.stats.retries,
                    [r.attempts for r in sess.requests],
                    fe.engine.now)

        assert run_once(5) == run_once(5)            # bit-identical replay
        sess_cfg = SessionConfig(name="t", arrival="open", rate_tps=1.0,
                                 retry_jitter=0.25)
        assert sess_cfg.retry_jitter == 0.25
        with pytest.raises(ConfigError):
            SessionConfig(name="t", arrival="open", rate_tps=1.0,
                          retry_jitter=1.5)


# -- the cluster-aware retry router ------------------------------------------

def _mini_ha_cluster(seed=0, n_txns=8):
    from repro.cluster.ha import HACluster
    from repro.workloads.ycsb import YcsbConfig, YcsbWorkload
    wl = YcsbWorkload(YcsbConfig(records_per_partition=12, n_partitions=2,
                                 reads_per_txn=2, payload="x" * 4,
                                 seed=seed))
    specs = wl.make_rmw_txns(n_txns)
    cluster = HACluster(
        2, 2,
        build_node=lambda: BionicDB(BionicConfig(n_workers=2)),
        install_node=lambda db: wl.install(db, load_data=True),
        step_ns=1_000.0)
    layouts = [wl.layout_for(s) for s in specs]
    return cluster, specs, layouts


def _mini_router(cluster):
    return ClusterRetryRouter(
        cluster, budget=RetryBudgetConfig(ratio=0.5, burst=8))


class TestClusterRetryRouter:
    def test_plain_stream_converges_without_retries(self):
        cluster, specs, layouts = _mini_ha_cluster()
        router = _mini_router(cluster)
        for i, spec in enumerate(specs):
            router.route(i, spec, layouts[i])
        rounds = router.settle(10, HEARTBEAT_TIMEOUT_NS / 2)
        assert router.done and rounds == 0
        assert router.amplification == 1.0
        assert sorted(router.acked) == list(range(len(specs)))

    def test_duplicate_tag_is_rejected(self):
        cluster, specs, layouts = _mini_ha_cluster()
        router = _mini_router(cluster)
        router.route(0, specs[0], layouts[0])
        with pytest.raises(FrontendError):
            router.route(0, specs[1], layouts[1])

    def test_failover_retries_never_double_execute(self):
        cluster, specs, layouts = _mini_ha_cluster(seed=3, n_txns=10)
        router = _mini_router(cluster)
        kill_at = 4
        for i, spec in enumerate(specs):
            if i == kill_at:
                cluster.kill_node(cluster.owner_of(specs[i].home))
            router.route(i, spec, layouts[i])
        router.settle(60, HEARTBEAT_TIMEOUT_NS / 2)
        assert cluster.failovers
        assert sorted(router.acked) == list(range(len(specs)))
        # the satellite invariant: reconcile() must agree with every
        # ack — an acked txn has exactly one durable terminal record,
        # so no retry re-executed a committed transaction
        for tag, (_txn_id, outcome) in sorted(router.acked.items()):
            assert cluster.reconcile(tag) == ("acked", outcome)
        assert router.amplification <= 3.0
        assert router.breakers.all_closed()

    def test_migration_queues_and_replays(self):
        cluster, specs, layouts = _mini_ha_cluster(seed=1, n_txns=8)
        router = _mini_router(cluster)
        move_at = 3
        target = specs[move_at].home
        migration = None
        for i, spec in enumerate(specs):
            if i == move_at:
                src = cluster.owner_of(target)
                dst = (src + 1) % 2
                migration = cluster.begin_migration(target, dst)
            router.route(i, spec, layouts[i])
        assert router.queued_total > 0       # landed in the drain window
        router.settle(60, HEARTBEAT_TIMEOUT_NS / 2)
        from repro.cluster.migration import MigrationState
        for _ in range(8):
            if migration.state is MigrationState.DONE:
                break
            cluster.advance(HEARTBEAT_TIMEOUT_NS)
            router.pump()
        assert migration.state is MigrationState.DONE
        assert sorted(router.acked) == list(range(len(specs)))
        assert cluster.owner_of(target) == migration.dst
        for tag, (_txn_id, outcome) in sorted(router.acked.items()):
            assert cluster.reconcile(tag) == ("acked", outcome)


# -- drill smoke -------------------------------------------------------------

@pytest.mark.drill
@pytest.mark.parametrize("flavor", [
    "retry_storm_failover", "migration_under_load",
    "flash_crowd", "slow_client_storm",
])
def test_overload_drill_flavor_smoke(flavor):
    from repro.faults import Drill, DrillConfig
    result = Drill(DrillConfig("overload", seed=2, flavor=flavor)).run()
    assert result.ok, result.summary()
    assert result.flavor == flavor


@pytest.mark.drill
def test_overload_sweep_small():
    from repro.faults import run_sweep
    results = run_sweep("overload", range(6))
    assert all(r.ok for r in results), [r.summary() for r in results
                                        if not r.ok]
    # the weighted flavour draw must exercise more than one shape
    assert len({r.flavor for r in results}) >= 2
