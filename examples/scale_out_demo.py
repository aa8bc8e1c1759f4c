"""Scaling BionicDB beyond one chip (§4.6/§7 future directions).

Three scaling moves the paper sketches, demonstrated end to end:
  1. a ring interconnect instead of the non-scaling crossbar;
  2. a datacenter-grade FPGA fitting 16+ workers;
  3. a two-chip shared-nothing cluster with inter-node links.

Run:  python examples/scale_out_demo.py
"""

from repro.core import BionicConfig, BionicDB
from repro.isa import Gp, ProcedureBuilder
from repro.mem import IndexKind, TableSchema, TxnStatus
from repro.workloads import YcsbConfig, YcsbWorkload


def read_proc():
    b = ProcedureBuilder("get")
    b.search(cp=0, table=0, key=b.at(0))
    b.commit_handler()
    b.ret(0, 0)
    b.store(Gp(0), b.at(1))
    b.commit()
    return b.build()


def main() -> None:
    # ---- 1 & 2: 16 workers on an Ultrascale+, crossbar vs ring --------
    print("multisite YCSB-C (75% remote), 16 workers on Ultrascale+:")
    for topo in ("crossbar", "ring"):
        cfg = BionicConfig(n_workers=16, comm_topology=topo,
                           device="ultrascale_plus")
        db = BionicDB(cfg)
        workload = YcsbWorkload(YcsbConfig(records_per_partition=2000,
                                           n_partitions=16,
                                           remote_fraction=0.75))
        workload.install(db)
        report, _ = workload.submit_all(db, workload.make_read_txns(480))
        ledger = db.resource_ledger()
        comm = ledger.module_total("Communication")
        print(f"  {topo:8s}: {report.throughput_tps / 1e3:7.1f} kTps, "
              f"LUTs {ledger.utilization()['lut']:5.1%} "
              f"(communication logic: {comm.lut} LUTs)")
    print("the ring trades latency for O(n) wiring — the §4.6 argument\n")

    # ---- 3: a two-chip shared-nothing cluster --------------------------
    # the same machine class, two nodes: each chip has its own DRAM and
    # fabric, and inter-node links join them
    per = 1000
    db = BionicDB(BionicConfig(n_workers=4), n_nodes=2)
    db.define_table(TableSchema(
        0, "kv", index_kind=IndexKind.HASH, hash_buckets=4096,
        partition_fn=lambda k, n: min(k // per, n - 1)))
    db.register_procedure(0, read_proc())
    for p in range(db.total_workers):
        for k in range(100):
            db.load(0, p * per + k, [f"v{p}.{k}"])

    print(f"cluster: {db.n_nodes} chips x "
          f"{db.config.n_workers} workers, shared-nothing DRAM")

    # same-node remote read vs cross-node remote read
    for key, label in ((1050, "same-chip remote read "),
                       (6050, "cross-chip remote read")):
        block = db.new_block(0, [key], worker=0)
        t0 = db.engine.now
        db.submit(block)
        db.run()
        assert block.header.status is TxnStatus.COMMITTED
        print(f"  {label}: {block.header.status.value}, "
              f"{(db.engine.now - t0) / 1000:.2f} us")
    inter = db.stats.counter("comm.internode_messages").value
    assert inter == 2       # the cross-chip request and its response
    print(f"  inter-node messages exchanged: {inter}")
    print("keeping partitions on-chip is worth microseconds per access —")
    print("exactly why the paper wants the channels 'diversified' carefully")


if __name__ == "__main__":
    main()
