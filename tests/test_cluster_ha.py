"""Cluster HA: membership, failover, epoch fencing, live migration."""

from dataclasses import replace

import pytest

from repro.cluster import MembershipService, MembershipView, MigrationState
from repro.cluster.membership import HEARTBEAT_TIMEOUT_NS
from repro.cluster.ha import (
    MIGRATION_BUDGET_NS, HACluster, ReplicationStream,
)
from repro.cluster.interconnect import NodeLinks
from repro.core import BionicConfig
from repro.core.system import BionicDB
from repro.errors import (
    MigrationError, PartitionUnavailableError, StaleEpochError,
)
from repro.faults import FaultPlan, HEARTBEAT_LOSS, STALE_EPOCH_SUBMIT
from repro.host.command_log import LogRecord
from repro.workloads.ycsb import YcsbConfig, YcsbWorkload

N_PARTS = 4


def make_workload(n_txns=8, seed=0):
    wl = YcsbWorkload(YcsbConfig(records_per_partition=16,
                                 n_partitions=N_PARTS, reads_per_txn=2,
                                 payload="x" * 8, seed=seed))
    return wl, wl.make_rmw_txns(n_txns)


def make_cluster(wl, n_nodes=3, faults=None, step_ns=None):
    return HACluster(
        n_nodes, N_PARTS,
        build_node=lambda: BionicDB(BionicConfig(n_workers=N_PARTS)),
        install_node=lambda db: wl.install(db, load_data=True),
        faults=faults, step_ns=step_ns)


class TestMembership:
    def links(self, n=3, faults=None):
        return NodeLinks(n, faults=faults)

    def test_all_alive_initially(self):
        m = MembershipService(3, self.links())
        view = m.view()
        assert isinstance(view, MembershipView)
        assert view.alive == frozenset({0, 1, 2})
        assert view.epoch == 1

    def test_silent_node_declared_dead(self):
        m = MembershipService(3, self.links())
        m.kill(1)
        m.advance_to(2 * HEARTBEAT_TIMEOUT_NS)
        view = m.view()
        assert 1 in view.dead
        assert view.epoch > 1

    def test_death_callback_fires_once(self):
        m = MembershipService(3, self.links())
        deaths = []
        m.on_death(lambda node, epoch, t: deaths.append((node, epoch)))
        m.kill(2)
        m.advance_to(3 * HEARTBEAT_TIMEOUT_NS)
        m.advance_to(6 * HEARTBEAT_TIMEOUT_NS)
        assert len(deaths) == 1 and deaths[0][0] == 2

    def test_pair_cut_does_not_kill_with_three_nodes(self):
        # node 1 is silent *to node 0 only*; node 2 still hears it, so
        # no death is declared — suspicion must be unanimous
        links = self.links()
        m = MembershipService(3, links)
        links.isolate(0, 1, 10 * HEARTBEAT_TIMEOUT_NS)
        m.advance_to(5 * HEARTBEAT_TIMEOUT_NS)
        assert m.view().dead == frozenset()
        assert m.suspects(0, 1)
        assert not m.suspects(2, 1)

    def test_heartbeats_keep_nodes_alive(self):
        m = MembershipService(3, self.links())
        m.advance_to(20 * HEARTBEAT_TIMEOUT_NS)
        assert m.view().alive == frozenset({0, 1, 2})
        assert m.view().dead == frozenset()

    def test_schedule_is_pinned(self):
        # a scripted 4-node run through every detector input — a pair
        # cut, a wedged heartbeat egress, a kill between two steps and
        # seeded beat loss — over many small steps, some landing on a
        # beat instant: every view and the final arrival ledger are
        # literals, so a change to the heartbeat schedule shows here
        plan = FaultPlan(seed=11).arm(HEARTBEAT_LOSS, prob=0.35, times=None)
        links = NodeLinks(4, faults=plan)
        m = MembershipService(4, links)
        links.isolate(0, 1, 12_000_000.0)
        links.mute_heartbeats(3, 9_000_000.0)
        for step in range(1, 44):
            m.advance_to(step * 700_000.0)
            if step == 20:
                m.kill(2)
        assert [(v.epoch, tuple(sorted(v.alive)), v.at_ns, v.declared)
                for v in m.views] == [
            (1, (0, 1, 2, 3), 0.0, None),
            (2, (0, 1, 2), 5_001_500.0, 3),
            (3, (0, 1), 19_600_000.0, 2)]
        assert m.last_heard == {
            0: {1: 30_001_500.0, 2: 14_001_500.0, 3: 0.0},
            1: {0: 30_001_500.0, 2: 13_001_500.0, 3: 0.0},
            2: {0: 17_001_500.0, 1: 18_001_500.0, 3: 0.0},
            3: {0: 4_001_500.0, 1: 3_001_500.0, 2: 4_001_500.0}}
        assert plan.opportunities(HEARTBEAT_LOSS) == 119
        assert m.now_ns == 30_100_000.0

    def test_epoch_authority_is_monotonic(self):
        m = MembershipService(2, self.links(2))
        assert m.next_epoch() == 2
        assert m.next_epoch() == 3


class TestHAClusterBasics:
    def test_requires_two_nodes(self):
        wl, _ = make_workload()
        with pytest.raises(ValueError):
            make_cluster(wl, n_nodes=1)

    def test_acked_submissions_commit(self):
        wl, specs = make_workload()
        c = make_cluster(wl)
        for i, spec in enumerate(specs):
            res = c.submit_spec(spec, wl.layout_for(spec), tag=i)
            assert res.status == "acked"
            assert res.outcome == "committed"
        assert len(c.results) == len(specs)

    def test_ack_implies_follower_delivery(self):
        wl, specs = make_workload(n_txns=2)
        c = make_cluster(wl)
        res = c.submit_spec(specs[0], wl.layout_for(specs[0]), tag=0)
        st = c.parts[specs[0].home]
        assert st.stream.has_final(res.txn_id)

    def test_has_final_waits_for_the_finalize_frame(self):
        links = NodeLinks(2)
        stream = ReplicationStream(0, 0, 1, links, MembershipService(2, links))
        pending = LogRecord(txn_id=7, proc_id=1, inputs=(3,), home_worker=0,
                            layout_inputs=1, layout_outputs=0,
                            layout_scratch=0, layout_undo=0, layout_scan=0)
        assert stream.ship(pending) is not None
        assert not stream.has_final(7)
        assert stream.ship(replace(pending, status="committed", commit_ts=5)
                           ) is not None
        assert stream.has_final(7)

    def test_ownership_map_shape(self):
        wl, _ = make_workload()
        c = make_cluster(wl)
        m = c.ownership_map()
        assert set(m) == set(range(N_PARTS))
        for p, (owner, epoch) in m.items():
            assert owner == p % 3 and epoch == 1


class TestFailover:
    def run_stream(self, c, wl, specs, start=0, epochs=None):
        acked = {}
        epochs = epochs if epochs is not None else {}
        for i in range(start, len(specs)):
            spec = specs[i]
            for _ in range(4):
                try:
                    res = c.submit_spec(spec, wl.layout_for(spec),
                                        client_epoch=epochs.get(spec.home),
                                        tag=i)
                    acked[i] = res
                    break
                except StaleEpochError:
                    epochs[spec.home] = c.current_epoch(spec.home)
                except PartitionUnavailableError:
                    c.advance(HEARTBEAT_TIMEOUT_NS)
        return acked

    def test_node_death_fails_partitions_over(self):
        wl, specs = make_workload(n_txns=10)
        c = make_cluster(wl)
        acked = self.run_stream(c, wl, specs[:4])
        c.kill_node(1)
        c.advance(3 * HEARTBEAT_TIMEOUT_NS)
        assert c.failovers, "node death must trigger failover"
        for p, st in c.parts.items():
            assert st.owner != 1
        acked.update(self.run_stream(c, wl, specs, start=4))
        assert len(acked) == len(specs)

    def test_acked_work_survives_owner_death(self):
        wl, specs = make_workload(n_txns=8)
        c = make_cluster(wl)
        acked = self.run_stream(c, wl, specs)
        c.kill_node(0)
        c.advance(3 * HEARTBEAT_TIMEOUT_NS)
        for i, res in acked.items():
            durable = c.durable_status(res.partition, res.txn_id)
            assert durable == res.outcome, (
                f"acked txn #{i} lost by failover: {durable!r}")

    def test_stale_epoch_fenced_after_failover(self):
        wl, specs = make_workload(n_txns=8)
        c = make_cluster(wl)
        victim_part = next(p for p in range(N_PARTS) if c.owner_of(p) == 1)
        old_epoch = c.current_epoch(victim_part)
        c.kill_node(1)
        c.advance(3 * HEARTBEAT_TIMEOUT_NS)
        spec = next(s for s in specs if s.home == victim_part)
        with pytest.raises(StaleEpochError):
            c.submit_spec(spec, wl.layout_for(spec), client_epoch=old_epoch,
                          tag="stale")
        assert any(e[0] == "reject_stale" for e in c.audit)
        # refresh and retry succeeds on the new owner
        res = c.submit_spec(spec, wl.layout_for(spec),
                            client_epoch=c.current_epoch(victim_part),
                            tag="fresh")
        assert res.status == "acked"

    def test_dead_owner_fails_fast_before_declaration(self):
        wl, specs = make_workload()
        c = make_cluster(wl)
        victim_part = next(p for p in range(N_PARTS) if c.owner_of(p) == 2)
        c.membership.kill(2)    # dead but not yet declared
        spec = next(s for s in specs if s.home == victim_part)
        with pytest.raises(PartitionUnavailableError):
            c.submit_spec(spec, wl.layout_for(spec), tag="t")

    def test_no_stale_epoch_execution_in_audit(self):
        wl, specs = make_workload(n_txns=10)
        c = make_cluster(wl)
        self.run_stream(c, wl, specs[:5])
        c.kill_node(0)
        c.advance(3 * HEARTBEAT_TIMEOUT_NS)
        self.run_stream(c, wl, specs, start=5)
        for entry in c.audit:
            if entry[0] == "exec":
                assert entry[3] == entry[4]


class TestLiveMigration:
    def test_migration_moves_ownership_with_epoch_bump(self):
        wl, specs = make_workload(n_txns=6)
        c = make_cluster(wl)
        for i, spec in enumerate(specs):
            c.submit_spec(spec, wl.layout_for(spec), tag=i)
        src, epoch0 = c.owner_of(0), c.current_epoch(0)
        dst = (src + 1) % 3
        m = c.begin_migration(0, dst)
        c.advance(MIGRATION_BUDGET_NS)
        assert m.state is MigrationState.DONE
        assert c.owner_of(0) == dst
        assert c.current_epoch(0) > epoch0
        assert m.unavailability_ns <= MIGRATION_BUDGET_NS

    def test_draining_queues_then_releases(self):
        wl, specs = make_workload(n_txns=6)
        # a control step much shorter than the transfer window, so the
        # drain barrier is actually observable from the router
        c = make_cluster(wl, step_ns=100.0)
        spec = next(s for s in specs if s.home == 0)
        src = c.owner_of(0)
        m = c.begin_migration(0, (src + 1) % 3)
        res = c.submit_spec(spec, wl.layout_for(spec), tag="queued")
        assert res.status == "queued"
        c.advance(MIGRATION_BUDGET_NS)
        assert m.queued_released == 1
        assert c.released["queued"].outcome == "committed"

    def test_migrating_partition_rejects_double_migration(self):
        wl, _ = make_workload()
        c = make_cluster(wl)
        src = c.owner_of(0)
        c.begin_migration(0, (src + 1) % 3)
        with pytest.raises(MigrationError):
            c.begin_migration(0, (src + 2) % 3)

    def test_migration_to_owner_rejected(self):
        wl, _ = make_workload()
        c = make_cluster(wl)
        with pytest.raises(MigrationError):
            c.begin_migration(0, c.owner_of(0))

    def test_source_death_aborts_migration_then_failover_rehomes(self):
        wl, specs = make_workload(n_txns=6)
        c = make_cluster(wl)
        for i, spec in enumerate(specs):
            c.submit_spec(spec, wl.layout_for(spec), tag=i)
        src = c.owner_of(0)
        m = c.begin_migration(0, (src + 1) % 3)
        c.kill_node(src)
        c.advance(3 * HEARTBEAT_TIMEOUT_NS)
        assert m.state is MigrationState.ABORTED
        assert c.owner_of(0) != src

    def test_destination_death_aborts_and_source_keeps_serving(self):
        wl, specs = make_workload(n_txns=6)
        c = make_cluster(wl)
        src = c.owner_of(0)
        dst = (src + 1) % 3
        m = c.begin_migration(0, dst)
        c.kill_node(dst)
        c.advance(3 * HEARTBEAT_TIMEOUT_NS)
        assert m.state is MigrationState.ABORTED
        assert c.owner_of(0) == src
        spec = next(s for s in specs if s.home == 0)
        res = c.submit_spec(spec, wl.layout_for(spec),
                            client_epoch=c.current_epoch(0), tag="after")
        assert res.status == "acked"


class TestInjectedClusterFaults:
    def test_injected_stale_epoch_submit(self):
        plan = FaultPlan(seed=3).arm(STALE_EPOCH_SUBMIT, nth=1)
        wl, specs = make_workload(n_txns=2)
        c = make_cluster(wl, faults=plan)
        with pytest.raises(StaleEpochError) as exc_info:
            c.submit_spec(specs[0], wl.layout_for(specs[0]), tag=0)
        assert exc_info.value.details.get("injected") is True

    def test_heartbeat_loss_storm_is_safe(self):
        # lossy heartbeats may or may not force a spurious failover;
        # either way the cluster must keep acking correct work
        plan = FaultPlan(seed=5).arm(HEARTBEAT_LOSS, prob=0.3, times=None)
        wl, specs = make_workload(n_txns=6)
        c = make_cluster(wl, faults=plan)
        acked = TestFailover().run_stream(c, wl, specs)
        assert len(acked) == len(specs)
        for res in acked.values():
            assert c.durable_status(res.partition, res.txn_id) == res.outcome


@pytest.mark.drill
class TestClusterDrillSweep:
    def test_sweep_is_green(self):
        from repro.faults import run_sweep
        results = run_sweep("cluster", range(6))
        assert all(r.ok for r in results), [r.summary() for r in results
                                            if not r.ok]
