"""BionicDB's final rows are what its commit order says they are.

Each stream runs on a small machine in the three scheduling modes the
softcore has (interleaving off, static batches, dynamic scheduling),
then :func:`oracle.assert_commit_order_explains` replays the committed
transactions in ``commit_ts`` order through the Silo baseline's bodies
and compares every row.
"""

import pytest

from oracle import assert_commit_order_explains
from repro.core import BionicConfig, BionicDB
from repro.softcore import SoftcoreConfig
from repro.workloads import (
    TpccConfig, TpccWorkload, TxnSpec, YcsbConfig, YcsbWorkload,
)
from repro.workloads.ycsb import PROC_RMW_BASE

MODES = {
    "serial": SoftcoreConfig(interleaving=False),
    "static": SoftcoreConfig(),
    "dynamic": SoftcoreConfig(dynamic_scheduling=True),
}


def _machine(mode: str, workload, **install) -> BionicDB:
    db = BionicDB(BionicConfig(n_workers=2, softcore=MODES[mode]))
    workload.install(db, **install)
    return db


def _run_to_commit(db, workload, specs):
    blocks = [db.new_block(spec.proc_id, list(spec.inputs),
                           layout=workload.layout_for(spec), worker=spec.home)
              for spec in specs]
    report = db.run_to_commit(blocks, workers=[s.home for s in specs])
    return report, blocks


def _ycsb(**kw) -> YcsbWorkload:
    return YcsbWorkload(YcsbConfig(records_per_partition=200, n_partitions=2,
                                   reads_per_txn=4, seed=3, **kw))


@pytest.mark.parametrize("mode", sorted(MODES))
def test_a_tpcc_mix_is_its_commit_order(mode):
    # few items and many remote NewOrders: stock rows collide across
    # the workers, so some NewOrders abort after their logic has
    # written fields, and the UNDO log restores them
    cfg = TpccConfig(n_partitions=2, items=50, customers_per_district=20,
                     remote_payment_fraction=0.5,
                     remote_neworder_fraction=0.5)
    workload = TpccWorkload(cfg)
    db = _machine(mode, workload)
    specs = workload.make_mix(60)
    report, blocks = workload.submit_all(db, specs)
    assert report.committed == len(specs) and report.aborted > 0
    assert_commit_order_explains(db, specs, blocks, cfg)


@pytest.mark.parametrize("mode", sorted(MODES))
def test_a_ycsb_rmw_stream_is_its_commit_order(mode):
    workload = _ycsb()
    db = _machine(mode, workload)
    specs = workload.make_rmw_txns(40)
    report, blocks = _run_to_commit(db, workload, specs)
    assert report.committed == len(specs)
    assert_commit_order_explains(db, specs, blocks, workload.config)


@pytest.mark.parametrize("mode", sorted(MODES))
def test_cross_worker_updates_of_one_key_retry_in_commit_order(mode):
    """Both workers update the same four rows of partition 0: worker 1's
    updates are remote, the two meet on dirty rows, and the loser
    aborts, rolls back and retries."""
    workload = _ycsb()
    db = _machine(mode, workload, procedures=(2,))
    hot = (0, 1, 2, 3)
    specs = []
    for t in range(24):
        keys = (hot[t % 4], hot[(t + 1) % 4])
        specs.append(TxnSpec(proc_id=PROC_RMW_BASE + 2,
                             inputs=keys + (f"v{t}_0", f"v{t}_1"),
                             home=t % 2, kind="rmw", keys=keys))
    report, blocks = _run_to_commit(db, workload, specs)
    assert report.committed == len(specs) and report.aborted > 0
    assert_commit_order_explains(db, specs, blocks, workload.config)
