"""End-to-end tests for the static-analysis consumers.

Three contracts from the footprint/conflict passes:

* **Zero bounces.** With ``static_planning`` on, a stream of
  statically home-anchored procedures submitted to the wrong node is
  re-planned *before* submit — the ``CrossNodeTransactionError``
  bounce-then-re-home path never runs.
* **Pre-classification.** The cluster retry router rejects a spec
  whose footprint pins partitions owned by a different node than its
  home before the first submit attempt.
* **Conflict-aware batching.** The §4.5 batch former never co-batches
  a must-serialize pair: it closes the batch at the second writer of a
  key instead of letting it be rejected and retried.
"""

from types import SimpleNamespace

import pytest

from repro.analysis.conflict import MUST_SERIALIZE, build_conflict_matrix
from repro.analysis.footprint import analyze_footprint
from repro.core import BionicConfig, BionicDB
from repro.errors import FrontendError
from repro.frontend import (
    ClusterRetryRouter, FrontEnd, FrontendConfig, ResilienceConfig,
    SessionConfig,
)
from repro.isa import Gp, ProcedureBuilder
from repro.mem import Catalog, TableSchema

N_KEYS = 64


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


def _kv_catalog():
    return Catalog([TableSchema(0, "kv", hash_buckets=512)])


def _summary_of(build, n_workers=2):
    b = ProcedureBuilder("probe")
    build(b)
    b.commit_handler()
    b.ret(0, 0)
    b.commit()
    return analyze_footprint(b.build(), schemas=_kv_catalog(),
                             n_workers=n_workers)


class _StubIndex:
    """FootprintIndex-alike: one summary for a fixed proc-id set."""

    def __init__(self, summaries):
        self._summaries = summaries

    def summary(self, proc_id):
        return self._summaries.get(proc_id)


# ---------------------------------------------------------------------------
# RequestRouter.plan: statically single-node streams never bounce
# ---------------------------------------------------------------------------

class TestStaticPlanning:
    def _run(self, static_planning):
        cluster = BionicDB(BionicConfig(n_workers=1), n_nodes=2)
        _install_kv(cluster)
        fe = FrontEnd(cluster, FrontendConfig(
            resilience=ResilienceConfig(enabled=True,
                                        static_planning=static_planning)))

        def misrouted_factory(i):
            key = i % N_KEYS
            home = cluster.schemas.table(0).route(key,
                                                  cluster.total_workers)
            block = cluster.new_block(1, [key, None], worker=home)
            return block, (home + 1) % cluster.total_workers   # wrong node

        fe.session(misrouted_factory, SessionConfig(
            name="clu", arrival="open", rate_tps=400_000.0, n_requests=30))
        rep = fe.run()
        fe.detach()
        return rep

    def test_zero_bounces_for_statically_single_node_stream(self):
        rep = self._run(static_planning=True)
        assert rep.committed == 30 and rep.conserved
        # the acceptance criterion: every misrouted submit was moved to
        # its home lane *before* submit — the CrossNodeTransactionError
        # bounce the rehome path re-plans from never happened
        assert rep.planned == 30
        assert rep.rehomed == 0

    def test_dynamic_path_still_used_when_planning_off(self):
        rep = self._run(static_planning=False)
        assert rep.committed == 30 and rep.conserved
        assert rep.planned == 0 and rep.rehomed == 30


# ---------------------------------------------------------------------------
# ClusterRetryRouter: footprint pre-classification before submit
# ---------------------------------------------------------------------------

def _mini_ha_cluster():
    from repro.cluster.ha import HACluster
    from repro.workloads.ycsb import YcsbConfig, YcsbWorkload
    wl = YcsbWorkload(YcsbConfig(records_per_partition=12, n_partitions=2,
                                 reads_per_txn=2, payload="x" * 4, seed=0))
    cluster = HACluster(
        2, 2,
        build_node=lambda: BionicDB(BionicConfig(n_workers=2)),
        install_node=lambda db: wl.install(db, load_data=True),
        step_ns=1_000.0)
    return cluster, wl


class TestClusterPreclassification:
    def test_statically_cross_node_spec_rejected_before_submit(self):
        cluster, _wl = _mini_ha_cluster()
        owners = {p: o for p, (o, _e) in cluster.ownership_map().items()}
        assert owners[0] != owners[1]           # two nodes, one each

        def pinned(b):                          # UPDATE key 1: partition 1
            b.mov(0, 1)
            b.update(cp=0, table=0, key=Gp(0))

        router = ClusterRetryRouter(
            cluster, footprints=_StubIndex({77: _summary_of(pinned)}))
        spec = SimpleNamespace(proc_id=77, home=0)   # homed on partition 0
        with pytest.raises(FrontendError) as exc:
            router.route("t0", spec, None)
        assert "could only bounce" in str(exc.value)
        assert router.attempts == 0             # rejected pre-submit
        assert router.planned_rejects == 1
        assert router.static_routes == {"t0": "cross-node"}
        assert "t0" not in router.specs         # never accepted

    def test_home_anchored_stream_classified_and_delivered(self):
        cluster, wl = _mini_ha_cluster()
        specs = wl.make_rmw_txns(6)
        layouts = [wl.layout_for(s) for s in specs]
        anchored = _summary_of(
            lambda b: b.search(cp=0, table=0, key=b.at(0)))
        index = _StubIndex({s.proc_id: anchored for s in specs})
        router = ClusterRetryRouter(cluster, footprints=index)
        for i, spec in enumerate(specs):
            router.route(i, spec, layouts[i])
        router.settle(10, cluster.ha.heartbeat_timeout_ns / 2)
        assert router.done
        assert router.planned_rejects == 0
        assert router.static_counts == {"single-partition": len(specs)}

    def test_no_footprints_keeps_the_dynamic_path(self):
        cluster, wl = _mini_ha_cluster()
        specs = wl.make_rmw_txns(4)
        layouts = [wl.layout_for(s) for s in specs]
        router = ClusterRetryRouter(cluster)    # no index wired
        for i, spec in enumerate(specs):
            router.route(i, spec, layouts[i])
        router.settle(10, cluster.ha.heartbeat_timeout_ns / 2)
        assert router.done
        assert router.static_routes == {} and router.static_counts == {}


# ---------------------------------------------------------------------------
# conflict-aware batch forming (§4.5: keys compared at admission)
# ---------------------------------------------------------------------------

class TestConflictAwareBatching:
    HOT_PID = 1
    N_TXNS = 6

    def _hot_writer_db(self):
        db = BionicDB(BionicConfig(n_workers=1))
        db.define_table(TableSchema(0, "kv", hash_buckets=64,
                                    partition_fn=lambda k, n: 0))
        b = ProcedureBuilder("hot")
        b.mov(0, 7)
        b.update(cp=0, table=0, key=Gp(0))      # constant hot key
        b.ret(1, 0)
        b.wrfield(1, 0, 99)
        b.commit_handler()
        b.commit()
        db.register_procedure(self.HOT_PID, b.build())
        db.load(0, 7, [0])
        return db

    def test_must_serialize_pairs_never_share_a_batch(self):
        db = self._hot_writer_db()
        blocks = [db.new_block(self.HOT_PID, [0], worker=0)
                  for _ in range(self.N_TXNS)]
        report = db.run_all(blocks, workers=[0] * self.N_TXNS)
        assert (report.committed, report.aborted) == (self.N_TXNS, 0)
        counter = db.stats.counter
        assert counter("worker0.batches").value == self.N_TXNS
        assert counter("worker0.batches_closed.conflict").value == \
            self.N_TXNS - 1
        # the analysis and the former agree on why
        matrix = build_conflict_matrix([("hot", analyze_footprint(
            db.catalogue.lookup(self.HOT_PID).program))])
        assert matrix.verdict("hot", "hot") == MUST_SERIALIZE
