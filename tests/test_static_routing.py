"""End-to-end tests for the static-analysis consumers.

Three contracts from the footprint pass:

* **One pass.** The key-provenance pass runs once per registered
  procedure, once per procedure for the verifier, the report and the
  gate, and never while a router classifies a stream: every planner
  reads ``ProcedureEntry.footprint``, laid out against the tables as
  they are defined when it is read.
* **Pre-classification.** The cluster retry router rejects a spec
  whose footprint pins partitions owned by a different node than its
  home before the first submit attempt.
* **Conflict-aware batching.** The §4.5 batch former never co-batches
  two writers of one key: it closes the batch at the second writer
  instead of letting it be rejected and retried.
"""

import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import repro.analysis  # noqa: F401  (loads every module the counter patches)
from repro.analysis import dataflow
from repro.analysis.footprint import CLASS_HOME, CLASS_PINNED
from repro.analysis.registry import all_procedures, resolve
from repro.analysis.report import report_json
from repro.cluster.ha import HACluster
from repro.cluster.membership import HEARTBEAT_TIMEOUT_NS
from repro.cluster.router import ClusterRetryRouter
from repro.core import BionicConfig, BionicDB
from repro.errors import FrontendError
from repro.isa import Gp, ProcedureBuilder, verify_program
from repro.mem import TableSchema
from repro.workloads.ycsb import YcsbConfig, YcsbWorkload


def _procedure(build, name="probe"):
    """A procedure whose logic is ``build(b)``; the commit handler
    collects c0 into r0."""
    b = ProcedureBuilder(name)
    build(b)
    b.commit_handler()
    b.ret(0, 0)
    b.commit()
    return b.build()


def _pinned(key, table=0):
    """Logic that UPDATEs the compile-time-constant ``key``."""
    def build(b):
        b.mov(0, key)
        b.update(cp=0, table=table, key=Gp(0))
    return build


def _anchored(b):
    b.search(cp=0, table=0, key=b.at(0))


def _route_all(router, cluster, specs):
    for tag, spec in specs:
        router.route(tag, spec, None)
    router.settle(10, HEARTBEAT_TIMEOUT_NS / 2)


@pytest.fixture
def provenance_solves(monkeypatch):
    """Records every key-provenance solve: the forward worklist runs
    whose abstract state is a register map."""
    real = dataflow.solve_forward
    graphs = []

    def counting(graph, entry_state, *args, **kwargs):
        if isinstance(entry_state, dict):
            graphs.append(graph)
        return real(graph, entry_state, *args, **kwargs)

    for name, module in sorted(sys.modules.items()):
        if (name.startswith("repro.")
                and getattr(module, "solve_forward", None) is real):
            monkeypatch.setattr(module, "solve_forward", counting)
    return graphs


PINNED_PID = 77


def _mini_ha_cluster():
    """Two nodes, one partition each; every node also registers a
    procedure that UPDATEs a constant key of partition 1."""
    wl = YcsbWorkload(YcsbConfig(records_per_partition=12, n_partitions=2,
                                 reads_per_txn=2, payload="x" * 4, seed=0))

    def install(db):
        wl.install(db, load_data=True)
        db.register_procedure(PINNED_PID, _procedure(_pinned(12)))

    cluster = HACluster(
        2, 2,
        build_node=lambda: BionicDB(BionicConfig(n_workers=2)),
        install_node=install,
        step_ns=1_000.0)
    return cluster, wl


# ---------------------------------------------------------------------------
# one key-provenance pass per procedure
# ---------------------------------------------------------------------------

class TestOnePass:
    def test_one_solve_per_registration(self, provenance_solves):
        db = BionicDB(BionicConfig(n_workers=2))
        db.define_table(TableSchema(0, "kv", hash_buckets=64))
        db.register_procedure(1, _procedure(_anchored))
        assert len(provenance_solves) == 1
        db.register_procedure(2, _procedure(_pinned(7)))
        assert len(provenance_solves) == 2
        assert db.catalogue.lookup(2).footprint.kind_class == CLASS_PINNED

    def test_one_solve_per_verify_and_report(self, provenance_solves):
        program, cat = resolve("tpcc_neworder_15")
        verify_program(program, schemas=cat, n_workers=4)
        assert len(provenance_solves) == 1
        report_json(program, schemas=cat, n_workers=4)
        assert len(provenance_solves) == 2

    def test_one_solve_per_procedure_in_a_gate_sweep(
            self, provenance_solves, tmp_path, capsys):
        from repro.analysis.__main__ import main
        baseline = Path(__file__).resolve().parents[1] / "ANALYSIS_gate.json"
        assert main(["gate", "--baseline", str(baseline),
                     "--json", str(tmp_path / "gate.json")]) == 0
        capsys.readouterr()
        assert len(provenance_solves) == len(all_procedures())

    def test_the_router_classifies_without_solving(self, provenance_solves):
        cluster, wl = _mini_ha_cluster()
        del provenance_solves[:]                # registration solved once
        router = ClusterRetryRouter(cluster)
        specs = wl.make_rmw_txns(6)
        for i, spec in enumerate(specs):
            router.route(i, spec, wl.layout_for(spec))
        router.settle(10, HEARTBEAT_TIMEOUT_NS / 2)
        assert router.done and router.attempts == len(specs)
        assert provenance_solves == []


# ---------------------------------------------------------------------------
# the stored footprint is layout-free: tables join where it is read
# ---------------------------------------------------------------------------

class TestLateTables:
    """Two nodes over four partitions (partition p on node p % 2).  The
    procedure is registered before either table it touches exists: it
    SEARCHes a constant key of what becomes a replicated table and
    UPDATEs a constant key of a hash-partitioned one."""

    PID = 5
    PINNED_KEY = 6                  # partition 6 % 4 = 2, on node 0

    def _late(self, b):
        b.mov(1, 3)
        b.search(cp=1, table=1, key=Gp(1))      # replicated table
        b.ret(1, 1)
        b.mov(0, self.PINNED_KEY)
        b.update(cp=0, table=0, key=Gp(0))      # constant key

    def _cluster(self):
        def install(db):
            db.register_procedure(self.PID, _procedure(self._late, "late"))
            db.define_table(TableSchema(0, "kv", hash_buckets=64,
                                        partition_fn=lambda k, n: k % n))
            db.define_table(TableSchema(1, "rep", hash_buckets=64,
                                        replicated=True))
            db.load(1, 3, ["r"])
            for key in (5, self.PINNED_KEY):
                db.load(0, key, [0])

        return HACluster(
            2, 4, build_node=lambda: BionicDB(BionicConfig(n_workers=4)),
            install_node=install, step_ns=1_000.0)

    def test_replicated_access_is_local_and_pin_follows_route(self):
        cluster = self._cluster()
        db = cluster.nodes[0]
        footprint = db.catalogue.lookup(self.PID).footprint
        laid_out = footprint.with_layout(db.schemas, db.total_workers)
        assert [a.kind for a in laid_out.accesses] == ["local", "pinned"]
        pinned = db.schemas.table(0).route(self.PINNED_KEY, db.total_workers)
        assert laid_out.pinned_partitions == {pinned} == {2}
        # homed on the pinned partition the procedure is
        # single-partition (were the replicated access not local, its
        # constant key would make it unbounded), homed on partition 0 it
        # stays on node 0, homed on partition 1 it would cross to node 0
        owners = {p: o for p, (o, _e) in cluster.ownership_map().items()}
        assert {home: laid_out.classify(home, node_of=owners.get).verdict
                for home in (2, 0, 1)} == {2: "single-partition",
                                           0: "single-node",
                                           1: "cross-node"}
        # the router joins the same layout: the cross-node spec is
        # rejected before any submit
        router = ClusterRetryRouter(cluster)
        _route_all(router, cluster, [
            ("a", SimpleNamespace(proc_id=self.PID, home=2, inputs=(0,))),
            ("b", SimpleNamespace(proc_id=self.PID, home=0, inputs=(0,)))])
        with pytest.raises(FrontendError):
            router.route("c", SimpleNamespace(proc_id=self.PID, home=1,
                                              inputs=(0,)), None)
        assert router.planned_rejects == 1
        assert router.done and router.attempts == 2
        assert sorted(router.acked) == ["a", "b"]

    def test_reregistration_replaces_the_footprint(self):
        cluster = self._cluster()
        before = cluster.nodes[0].catalogue.lookup(self.PID).footprint
        for db in cluster.nodes:
            db.register_procedure(self.PID, _procedure(_anchored, "late"))
        db = cluster.nodes[0]
        after = db.catalogue.lookup(self.PID).footprint
        assert after is not before
        assert after.with_layout(db.schemas, db.total_workers).kind_class \
            == CLASS_HOME
        owners = {p: o for p, (o, _e) in cluster.ownership_map().items()}
        assert after.with_layout(db.schemas, db.total_workers).classify(
            1, node_of=owners.get).verdict == "single-partition"
        router = ClusterRetryRouter(cluster)
        _route_all(router, cluster, [
            ("d", SimpleNamespace(proc_id=self.PID, home=1, inputs=(5,)))])
        assert router.attempts == 1
        assert router.acked["d"][1] == "committed"


# ---------------------------------------------------------------------------
# ClusterRetryRouter: footprint pre-classification before submit
# ---------------------------------------------------------------------------

class TestClusterPreclassification:
    def test_statically_cross_node_spec_rejected_before_submit(self):
        cluster, _wl = _mini_ha_cluster()
        owners = {p: o for p, (o, _e) in cluster.ownership_map().items()}
        assert owners[0] != owners[1]           # two nodes, one each
        schema = cluster.nodes[0].schemas.table(0)
        assert schema.route(12, cluster.n_partitions) == 1

        router = ClusterRetryRouter(cluster)
        spec = SimpleNamespace(proc_id=PINNED_PID, home=0)   # partition 0
        with pytest.raises(FrontendError) as exc:
            router.route("t0", spec, None)
        assert "could only bounce" in str(exc.value)
        assert router.attempts == 0             # rejected pre-submit
        assert router.planned_rejects == 1
        assert "t0" not in router.specs         # never accepted

    def test_home_anchored_stream_classified_and_delivered(self):
        cluster, wl = _mini_ha_cluster()
        specs = wl.make_rmw_txns(6)
        layouts = [wl.layout_for(s) for s in specs]
        router = ClusterRetryRouter(cluster)
        for i, spec in enumerate(specs):
            router.route(i, spec, layouts[i])
        router.settle(10, HEARTBEAT_TIMEOUT_NS / 2)
        assert router.done
        assert router.planned_rejects == 0
        assert router.attempts == len(specs)
        assert [router.acked[i][1] for i in range(len(specs))] == \
            ["committed"] * len(specs)


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

    def test_same_key_writers_never_share_a_batch(self):
        db = self._hot_writer_db()
        blocks = [db.new_block(self.HOT_PID, [0], worker=0)
                  for _ in range(self.N_TXNS)]
        report = db.run_all(blocks, workers=[0] * self.N_TXNS)
        assert (report.committed, report.aborted) == (self.N_TXNS, 0)
        counter = db.stats.counter
        assert counter("worker0.batches").value == self.N_TXNS
        assert counter("worker0.batches_closed.conflict").value == \
            self.N_TXNS - 1
