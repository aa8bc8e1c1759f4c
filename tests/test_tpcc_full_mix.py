"""Tests for the full TPC-C transaction suite (extension):
OrderStatus, Delivery and the standard 5-transaction mix, with
TPC-C-style consistency checks."""

import pytest

from repro.core import BionicConfig, BionicDB
from repro.mem import TxnStatus
from repro.workloads import TpccConfig, TpccWorkload
from repro.workloads.tpcc import PROC_DELIVERY, PROC_ORDERSTATUS
from repro.workloads.tpcc import schema as S
from repro.workloads.ycsb import TxnSpec


@pytest.fixture()
def env():
    db = BionicDB(BionicConfig(n_workers=2))
    workload = TpccWorkload(TpccConfig(n_partitions=2, items=200,
                                       customers_per_district=20))
    workload.install(db)
    return db, workload


def orderstatus_for(workload, w, d, c):
    return TxnSpec(proc_id=PROC_ORDERSTATUS,
                   inputs=(S.customer_key(w, d, c), 0),
                   home=(w - 1) % 2, kind="orderstatus", keys=(w, d, c))


def delivery_for(w, carrier=5):
    return TxnSpec(proc_id=PROC_DELIVERY, inputs=(w, carrier, 20190327),
                   home=(w - 1) % 2, kind="delivery", keys=(w, carrier))


class TestOrderStatus:
    def test_reflects_latest_order(self, env):
        db, workload = env
        spec = workload.make_neworder()
        workload.submit_all(db, [spec])
        w, d, c, K = spec.keys[0], spec.keys[1], spec.keys[2], spec.keys[3]
        _rep, blocks = workload.submit_all(db, [orderstatus_for(workload, w, d, c)])
        block = blocks[0]
        assert block.header.status is TxnStatus.COMMITTED
        balance, okey, lines = block.outputs()[:3]
        assert lines == K
        assert db.lookup(S.ORDERS, okey).fields[0] == c

    def test_customer_without_orders(self, env):
        db, workload = env
        _rep, blocks = workload.submit_all(
            db, [orderstatus_for(workload, 1, 1, 3)])
        block = blocks[0]
        assert block.header.status is TxnStatus.COMMITTED
        assert block.outputs()[1] == 0  # no last order
        assert block.outputs()[2] == 0  # no lines

    def test_two_orders_point_to_newest(self, env):
        db, workload = env
        # same customer orders twice
        s1 = workload.make_neworder()
        w, d, c = s1.keys[0], s1.keys[1], s1.keys[2]
        workload.submit_all(db, [s1])
        inputs = list(s1.inputs)
        s2 = TxnSpec(proc_id=s1.proc_id, inputs=tuple(inputs),
                     home=s1.home, kind="neworder", keys=s1.keys)
        workload.submit_all(db, [s2])
        _rep, blocks = workload.submit_all(db, [orderstatus_for(workload, w, d, c)])
        okey = blocks[0].outputs()[1]
        district = db.lookup(S.DISTRICT, S.district_key(w, d))
        assert okey == S.orders_key(w, d, district.fields[2] - 1)


class TestDelivery:
    def test_delivers_oldest_and_advances_pointer(self, env):
        db, workload = env
        # place orders in warehouse 1
        placed = []
        while len(placed) < 4:
            spec = workload.make_neworder()
            if spec.keys[0] == 1:
                placed.append(spec)
                workload.submit_all(db, [spec])
        _rep, blocks = workload.submit_all(db, [delivery_for(1)])
        delivered = blocks[0].outputs()[0]
        assert delivered >= 1
        # every delivered NEW_ORDER row is gone; carrier stamped
        for d in range(1, 11):
            district = db.lookup(S.DISTRICT, S.district_key(1, d))
            next_deliv, next_o = district.fields[3], district.fields[2]
            assert next_deliv <= next_o
            for o in range(1, next_deliv):
                okey = S.orders_key(1, d, o)
                assert db.lookup(S.NEW_ORDER, okey) is None
                assert db.lookup(S.ORDERS, okey).fields[2] == 5  # carrier

    def test_delivery_credits_customer_balance(self, env):
        db, workload = env
        spec = None
        while spec is None or spec.keys[0] != 1:
            spec = workload.make_neworder()
        workload.submit_all(db, [spec])
        w, d, c, K = spec.keys[0], spec.keys[1], spec.keys[2], spec.keys[3]
        qty_total = sum(spec.keys[6])
        before = db.lookup(S.CUSTOMER, S.customer_key(w, d, c)).fields[1]
        workload.submit_all(db, [delivery_for(1)])
        after = db.lookup(S.CUSTOMER, S.customer_key(w, d, c)).fields[1]
        assert after == before + qty_total

    def test_idempotent_when_nothing_to_deliver(self, env):
        db, workload = env
        _rep, b1 = workload.submit_all(db, [delivery_for(2)])
        assert b1[0].outputs()[0] == 0  # nothing ordered in warehouse 2
        assert b1[0].header.status is TxnStatus.COMMITTED


class TestFullMix:
    def test_mix_commits_and_preserves_invariants(self, env):
        db, workload = env
        report, _ = workload.submit_all(db, workload.make_full_mix(80))
        assert report.committed == 80
        # TPC-C consistency condition 1-ish: per district,
        # next_deliv <= next_o_id and no committed dirty rows
        for w in (1, 2):
            for d in range(1, 11):
                district = db.lookup(S.DISTRICT, S.district_key(w, d))
                assert not district.dirty
                assert district.fields[3] <= district.fields[2]
        # warehouse YTD equals the sum of its districts' YTD payments
        for w in (1, 2):
            wh = db.lookup(S.WAREHOUSE, S.warehouse_key(w))
            d_sum = sum(db.lookup(S.DISTRICT, S.district_key(w, d)).fields[1]
                        for d in range(1, 11))
            assert wh.fields[2] == d_sum

    def test_full_mix_with_interleaving_and_retries(self, env):
        """Delivery computes its keys, so the batch former cannot keep
        it apart from a NewOrder of the same district: that pair still
        aborts, is counted by cause, and commits on a retry."""
        db, workload = env
        report, _ = workload.submit_all(db, workload.make_full_mix(60))
        assert report.committed == 60 and report.aborted > 0
        causes = {name: count
                  for name, count in db.stats.by_prefix("worker").items()
                  if ".aborted." in name}
        assert sum(causes.values()) == report.aborted
        assert all(name.endswith(".CC_REJECT") for name in causes)

    def test_every_abort_of_the_mix_needs_another_worker(self):
        """A contended NewOrder/Payment mix — three customers a
        district, half the transactions reaching into another warehouse
        — still aborts, but only where two workers meet: every cause
        counted is a coprocessor rejection, and each worker's share of
        the same stream, alone on a fresh machine, aborts nothing."""
        workload = TpccWorkload(TpccConfig(
            items=50, customers_per_district=3, seed=1,
            remote_payment_fraction=0.5, remote_neworder_fraction=0.5))

        def run(specs):
            db = BionicDB(BionicConfig())
            workload.install(db)
            report, _ = workload.submit_all(db, specs, retry=False)
            causes = {name.split(".aborted.")[1]: count
                      for name, count in db.stats.by_prefix("worker").items()
                      if ".aborted." in name and count}
            return report, causes

        specs = workload.make_mix(300)
        report, causes = run(specs)
        assert report.aborted > 0
        assert set(causes) == {"UPDATE.CC_REJECT"}
        for home in range(4):
            alone, causes = run([s for s in specs if s.home == home])
            assert (alone.aborted, causes) == (0, {}), home
