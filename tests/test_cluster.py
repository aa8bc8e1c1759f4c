"""Tests for the multi-node cluster extension (§4.6 future work)."""

import pytest

from repro.cluster import ClusterError
from repro.core import BionicConfig, BionicDB
from repro.isa import Gp, ProcedureBuilder
from repro.mem import IndexKind, TableSchema, TxnStatus


def range_partition(per_part):
    return lambda key, parts: min(key // per_part, parts - 1)


def read_proc(n=1):
    b = ProcedureBuilder(f"read{n}")
    for i in range(n):
        b.search(cp=i, table=0, key=b.at(i))
    b.commit_handler()
    for i in range(n):
        b.ret(0, i)
        b.store(Gp(0), b.at(n + i))
    b.commit()
    return b.build()


def update_proc():
    b = ProcedureBuilder("upd")
    b.update(cp=0, table=0, key=b.at(0))
    b.commit_handler()
    b.ret(0, 0)
    b.load(1, b.at(1))
    b.wrfield(0, 0, Gp(1))
    b.commit()
    return b.build()


def make_cluster(n_nodes=2, workers_per_node=2):
    cluster = BionicDB(BionicConfig(n_workers=workers_per_node),
                       n_nodes=n_nodes)
    # 1000 keys per global partition
    cluster.define_table(TableSchema(0, "kv", index_kind=IndexKind.HASH,
                                     hash_buckets=4096,
                                     partition_fn=range_partition(1000)))
    cluster.register_procedure(0, read_proc(1))
    cluster.register_procedure(1, update_proc())
    cluster.register_procedure(2, read_proc(2))
    return cluster


class TestClusterBasics:
    def test_topology(self):
        c = make_cluster()
        assert c.total_workers == 4
        assert [c.node_of(w) for w in range(4)] == [0, 0, 1, 1]
        assert len(c.drams) == 2
        assert c.drams[0].heap is not c.drams[1].heap  # shared nothing

    def test_local_transactions_on_each_node(self):
        c = make_cluster()
        for key in (10, 1010, 2010, 3010):
            c.load(0, key, [f"v{key}"])
        blocks = [c.new_block(0, [k], worker=k // 1000)
                  for k in (10, 1010, 2010, 3010)]
        report = c.run_all(blocks, workers=[0, 1, 2, 3])
        assert report.committed == 4

    def test_same_node_remote_access(self):
        c = make_cluster()
        c.load(0, 1500, ["neighbor"])  # partition 1 (node 0)
        block = c.new_block(0, [1500], worker=0)
        c.submit(block)
        c.run()
        assert block.header.status is TxnStatus.COMMITTED
        assert c.stats.counter("comm.internode_messages").value == 0

    def test_cross_node_read(self):
        c = make_cluster()
        c.load(0, 2500, ["far-away"])  # partition 2 (node 1)
        block = c.new_block(0, [2500], worker=0)
        c.submit(block)
        c.run()
        assert block.header.status is TxnStatus.COMMITTED
        assert c.stats.counter("comm.internode_messages").value == 2  # rq+rsp

    def test_cross_node_read_sees_data(self):
        c = make_cluster()
        c.load(0, 100, ["local"])
        c.load(0, 3100, ["remote-node"])
        block = c.new_block(2, [100, 3100], worker=0)
        c.submit(block)
        c.run()
        assert block.header.status is TxnStatus.COMMITTED

    def test_cross_node_write_rejected(self):
        c = make_cluster()
        c.load(0, 2500, ["x"])
        block = c.new_block(1, [2500, "nope"], worker=0)
        c.submit(block)
        with pytest.raises(ClusterError):
            c.run()

    def test_cross_node_submit_typed_error(self):
        from repro.errors import CrossNodeTransactionError, SubmissionError
        c = make_cluster()
        block = c.new_block(2, [100], worker=0)
        with pytest.raises(CrossNodeTransactionError) as exc_info:
            c.submit(block, worker=2)     # worker 2 lives on node 1
        # typed payload a router can re-plan from, and still a
        # SubmissionError for existing callers
        assert issubclass(CrossNodeTransactionError, SubmissionError)
        details = exc_info.value.details
        assert details["home_nodes"] == {0}
        assert details["partitions"] == {0, 2}

    def test_same_node_write_allowed(self):
        c = make_cluster()
        c.load(0, 1500, ["old"])  # partition 1, same node as worker 0
        block = c.new_block(1, [1500, "new"], worker=0)
        c.submit(block)
        c.run()
        assert block.header.status is TxnStatus.COMMITTED
        assert c.lookup(0, 1500).fields == ["new"]


class TestClusterLatency:
    def test_internode_latency_dominates(self):
        """A cross-node read pays ~2x the inter-node link latency; a
        same-node remote read pays only the on-chip channels."""
        def txn_time(key):
            c = make_cluster()
            c.load(0, key, ["v"])
            block = c.new_block(0, [key], worker=0)
            t0 = c.engine.now
            c.submit(block)
            c.run()
            return c.engine.now - t0

        local_remote = txn_time(1500)    # same node
        cross_node = txn_time(2500)      # other node
        # ~2 x 1.5 us of link latency, minus the KeyFetch DRAM read the
        # inlined key saves (~680 ns)
        assert cross_node > local_remote + 2000

    def test_missing_cross_node_key_aborts(self):
        c = make_cluster()
        block = c.new_block(0, [3999], worker=0)
        c.submit(block)
        c.run()
        assert block.header.status is TxnStatus.ABORTED


class TestClusterThroughput:
    def test_two_nodes_scale_local_work(self):
        def run(n_nodes):
            c = make_cluster(n_nodes=n_nodes, workers_per_node=2)
            per = 1000
            total_parts = n_nodes * 2
            for p in range(total_parts):
                for k in range(40):
                    c.load(0, p * per + k, [k])
            blocks, homes = [], []
            for t in range(40 * total_parts):
                p = t % total_parts
                blocks.append(c.new_block(0, [p * per + (t % 40)], worker=p))
                homes.append(p)
            report = c.run_all(blocks, workers=homes)
            return report.throughput_tps

        assert run(2) > run(1) * 1.6  # near-linear scale-out on local work


# -- one machine: BionicDB(n_nodes=k) simulates what the separate cluster
# class it replaced did (now_ns, events_fired and digest captured from
# that class — and, on one node, from BionicDB — at the parent commit)

def two_search_stream(db, columns):
    """240 two-SEARCH transactions over four partitions of 200 rows,
    each reading its home partition and one other."""
    import hashlib
    if columns:
        db.load_many(columns=[
            (0, range(p * 1000, p * 1000 + 200), [[k] for k in range(200)])
            for p in range(4)])
    else:
        for p in range(4):
            for k in range(200):
                db.load(0, p * 1000 + k, [k])
    blocks, homes = [], []
    for t in range(240):
        p = t % 4
        q = (p + 1 + t % 3) % 4
        blocks.append(db.new_block(
            2, [p * 1000 + 7 * t % 200, q * 1000 + 11 * t % 200], worker=p))
        homes.append(p)
    report = db.run_all(blocks, workers=homes)
    digest = hashlib.sha256()
    for block in blocks:
        digest.update(repr((block.txn_id, block.done_at_ns)).encode())
    return report, digest.hexdigest()


class TestOneMachinePins:
    @pytest.mark.parametrize("columns", [False, True])
    @pytest.mark.parametrize("shape, now_ns, events, internode, digest", [
        ((2, 2), 67_880.0, 9_496, 320,
         "f9edc45cef21da61e9f8925912e547b446c06e3ee07ae04c4b8cdeae85ca0ff9"),
        ((1, 4), 73_048.0, 9_908, 0,
         "fb17c76c1cde960d4d275c8dd2506ad92f86ed8bc0f272f400320e0b440eb6fc"),
    ])
    def test_two_search_stream(self, shape, now_ns, events, internode,
                               digest, columns):
        """Nodes x workers; per-row ``load`` or ``load_many`` columns."""
        n_nodes, workers_per_node = shape
        c = make_cluster(n_nodes, workers_per_node)
        report, got = two_search_stream(c, columns)
        assert report.committed == 240 == len(report.latencies_ns)
        assert c.engine.now == now_ns
        assert c.engine.events_fired <= events
        assert c.stats.counter("comm.internode_messages").value == internode
        assert got == digest

    def test_scale_out_series(self):
        from repro.bench import run_cluster_scale_out
        assert run_cluster_scale_out().series[0].ys == [
            3867723.8445175015, 7735447.689035003]


class TestOneMachineInherits:
    """What only BionicDB had, a multi-node machine now has."""

    def test_ycsb_installs_and_runs_across_nodes(self):
        from conftest import heap_image, per_row
        from repro.workloads import YcsbConfig, YcsbWorkload

        def build(row_by_row):
            db = BionicDB(BionicConfig(n_workers=2), n_nodes=2)
            workload = YcsbWorkload(YcsbConfig(
                records_per_partition=300, n_partitions=4,
                remote_fraction=0.75))
            workload.install(per_row(db) if row_by_row else db)
            return db, workload

        db, workload = build(row_by_row=False)
        by_row, _ = build(row_by_row=True)
        for dram, dram_by_row in zip(db.drams, by_row.drams, strict=True):
            assert heap_image(dram.heap) == heap_image(dram_by_row.heap)
        report, _blocks = workload.submit_all(db, workload.make_read_txns(80))
        assert report.committed == 80
        assert db.stats.counter("comm.internode_messages").value > 0
        # a multisite write that crosses nodes is still refused
        with pytest.raises(ClusterError):
            workload.submit_all(db, workload.make_rmw_txns(40))

    def test_tpcc_installs_across_nodes(self):
        from repro.workloads import TpccConfig, TpccWorkload
        db = BionicDB(BionicConfig(n_workers=2), n_nodes=2)
        workload = TpccWorkload(TpccConfig(n_partitions=4))
        workload.install(db)
        assert db.stats.counter("core.load.rows").value > 0

    def test_ring_is_the_chip_fabric_on_every_node(self):
        c = BionicDB(BionicConfig(n_workers=2, comm_topology="ring"),
                     n_nodes=2)
        c.define_table(TableSchema(0, "kv", hash_buckets=64,
                                   partition_fn=range_partition(1000)))
        c.register_procedure(0, read_proc(1))
        for key in (1500, 2500, 3500):
            c.load(0, key, ["v"])
        blocks = [c.new_block(0, [1500], worker=0),     # same node as 1
                  c.new_block(0, [2500], worker=3),     # same node as 2
                  c.new_block(0, [3500], worker=0)]     # crosses nodes
        assert c.run_all(blocks, workers=[0, 3, 0]).committed == 3
        # two same-node round trips, each once around a two-station ring
        assert c.stats.counter("comm.hops").value == 4
        assert c.stats.counter("comm.internode_messages").value == 2

    def test_tracer_sees_both_nodes(self):
        from repro.sim import Tracer
        tracer = Tracer(categories=["softcore"])
        c = BionicDB(BionicConfig(n_workers=1, tracer=tracer), n_nodes=2)
        c.define_table(TableSchema(0, "kv", hash_buckets=64,
                                   partition_fn=range_partition(1000)))
        c.register_procedure(0, read_proc(1))
        c.load(0, 10, ["a"])
        c.load(0, 1010, ["b"])
        blocks = [c.new_block(0, [10], worker=0),
                  c.new_block(0, [1010], worker=1)]
        assert c.run_all(blocks, workers=[0, 1]).committed == 2
        assert {e.source for e in tracer.filter("softcore")} == {"w0", "w1"}

    def test_stranded_transaction_is_reported(self):
        from repro.errors import StuckTransactionError
        c = make_cluster()
        b = ProcedureBuilder("deadlock")
        b.ret(0, 5)                     # c5 is never written
        c.register_procedure(9, b.build(), verify=False)
        block = c.new_block(9, [1], worker=3)
        c.submit(block)
        with pytest.raises(StuckTransactionError) as exc_info:
            c.run()
        assert block.txn_id in exc_info.value.details["stuck"]

    def test_undefined_table_rejected_at_submit(self):
        from repro.errors import SubmissionError
        c = BionicDB(BionicConfig(n_workers=1), n_nodes=2)  # no tables
        c.register_procedure(0, read_proc(1))
        with pytest.raises(SubmissionError, match="undefined tables"):
            c.submit(c.new_block(0, [1], worker=1))

    def test_run_to_commit_and_watchdog(self):
        from repro.sim.engine import SimulationError
        c = make_cluster()
        c.load(0, 2500, ["far"])
        report = c.run_to_commit([c.new_block(0, [2500], worker=0)])
        assert report.committed == 1
        c.submit(c.new_block(0, [2500], worker=0))
        with pytest.raises(SimulationError):
            c.run(max_events=3)
