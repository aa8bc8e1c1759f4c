"""Tests for the Silo baseline: data structures, OCC engine, runners."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.baseline import (
    BPlusTree, IndexStructure, SiloAbort, SiloEngine, SiloRecord, SiloTable,
    SiloTpcc, SiloTxn, SiloYcsb, SoftwareSkiplist, XeonModel,
)
from repro.workloads import TpccConfig, TpccWorkload, YcsbConfig, YcsbWorkload


class TestBPlusTree:
    def test_insert_get(self):
        t = BPlusTree()
        for k in range(499):
            assert t.insert(k * 7 % 499, k)
        assert len(t) == 499
        assert t.get(7) is not None
        assert t.get(10_000) is None

    def test_duplicate_insert_rejected(self):
        t = BPlusTree()
        assert t.insert(1, "a")
        assert not t.insert(1, "b")
        assert t.get(1) == "a"

    def test_put_overwrites(self):
        t = BPlusTree()
        t.put(1, "a")
        t.put(1, "b")
        assert t.get(1) == "b"

    def test_items_sorted(self):
        import random
        t = BPlusTree()
        keys = list(range(300))
        random.Random(3).shuffle(keys)
        for k in keys:
            t.insert(k, k)
        assert [k for k, _v in t.items()] == list(range(300))

    def test_scan_from(self):
        t = BPlusTree()
        for k in range(0, 100, 2):
            t.insert(k, k)
        got = t.scan_from(11, 5)
        assert [k for k, _v in got] == [12, 14, 16, 18, 20]

    def test_depth_grows_logarithmically(self):
        t = BPlusTree()
        for k in range(3000):
            t.insert(k, k)
        assert 3 <= t.depth <= 5

    def test_remove(self):
        t = BPlusTree()
        for k in range(50):
            t.insert(k, k)
        assert t.remove(25)
        assert not t.remove(25)
        assert t.get(25) is None
        assert len(t) == 49

    def test_bad_fanout(self):
        with pytest.raises(ValueError):
            BPlusTree(fanout=2)


class TestSoftwareSkiplist:
    def test_insert_get_remove(self):
        s = SoftwareSkiplist(seed=1)
        for k in range(199):
            assert s.insert(k * 3 % 199, k)
        assert len(s) == 199
        assert s.get(3) is not None
        assert s.remove(3)
        assert s.get(3) is None

    def test_scan_sorted(self):
        s = SoftwareSkiplist(seed=1)
        import random
        keys = list(range(100))
        random.Random(5).shuffle(keys)
        for k in keys:
            s.insert(k, k)
        got = s.scan_from(40, 10)
        assert [k for k, _v in got] == list(range(40, 50))

    def test_search_path_reasonable(self):
        s = SoftwareSkiplist(seed=1)
        for k in range(2000):
            s.insert(k, k)
        assert s.search_path_length(1500) < 120


class TestSiloEngine:
    def _engine(self, cores=2):
        silo = SiloEngine(cores)
        silo.create_table(SiloTable(0, "t", structure=IndexStructure.HASH,
                                    row_bytes=64, expected_rows=1000))
        for k in range(100):
            silo.load(0, k, k)
        return silo

    def test_read_only_txns_commit(self):
        silo = self._engine()
        table = silo.tables[0]
        seen = []

        def body(txn):
            seen.append(txn.read(table, 5))

        report = silo.run_transactions([body] * 10)
        assert report.committed == 10 and report.aborted == 0
        assert seen[0] == 5

    def test_write_conflict_aborts_and_retries(self):
        silo = self._engine(cores=4)
        table = silo.tables[0]

        def bump(txn):
            value = txn.read(table, 7, copy_payload=False)
            txn.write(table, 7, value + 1)

        report = silo.run_transactions([bump] * 20)
        assert report.committed == 20
        assert report.aborted > 0  # genuine OCC conflicts occurred
        assert table.get_record(7).value == 7 + 20  # no lost updates

    def test_insert_visible_after_commit(self):
        silo = self._engine()
        table = silo.tables[0]

        def body(txn):
            txn.insert(table, 999, "new")

        report = silo.run_transactions([body])
        assert report.committed == 1
        assert table.get_record(999).value == "new"

    def test_a_core_s_exception_leaves_run_transactions(self):
        """A body that raises something other than SiloAbort kills its
        core, and the error leaves run_transactions at once: the bodies
        queued behind it do not run on the other core."""
        silo = self._engine()
        table = silo.tables[0]
        ran = []

        def always_aborts(_txn):
            raise SiloAbort("always")

        def ok(txn):
            ran.append(txn.read(table, 5))

        def broken(_txn):
            raise KeyError("no such column")

        with pytest.raises(KeyError):
            silo.run_transactions([always_aborts, ok, broken, ok, ok],
                                  max_retries=3)
        assert ran == [5]

    def test_a_body_out_of_retries_raises(self):
        silo = self._engine()

        def always_aborts(_txn):
            raise SiloAbort("always")

        with pytest.raises(RuntimeError, match="retry budget"):
            silo.run_transactions([always_aborts], max_retries=3)

    def test_duplicate_load_rejected(self):
        silo = self._engine()
        with pytest.raises(ValueError):
            silo.load(0, 5, "again")

    def test_throughput_scales_with_cores(self):
        def tput(cores):
            silo = SiloEngine(cores)
            t = silo.create_table(SiloTable(0, "t", row_bytes=1024,
                                            expected_rows=1_000_000))
            for k in range(200):
                silo.load(0, k, "x")

            def body(txn):
                for k in range(16):
                    txn.read(t, k)

            return silo.run_transactions([body] * 60).throughput_tps

        assert tput(4) > tput(1) * 2.5

    def test_write_locks_are_taken_in_key_order_not_address_order(self):
        silo = self._engine(cores=1)
        table = silo.tables[0]
        # the record at the lower address gets the higher key, so an
        # address order and a key order disagree
        low, high = sorted((SiloRecord("a"), SiloRecord("b")), key=id)
        table.install(1001, low)
        table.install(1000, high)
        txn = SiloTxn(silo, worker_id=0)
        txn.write(table, 1001, "x")
        txn.write(table, 1000, "y")
        txn.lock_and_validate()
        assert txn._locked == [high, low]

    def test_fig9b_silo_point_is_the_same_in_every_process(self):
        """Fig 9b's Silo@16 point, computed under two hash seeds: record
        addresses differ between processes, and nothing may follow them."""
        code = ("from repro.bench.experiments import EXPERIMENTS\n"
                "print(EXPERIMENTS['fig9b'].point('Silo/Xeon', 16, 100))\n")
        src = str(Path(repro.__file__).resolve().parents[1])
        points = {
            subprocess.run(
                [sys.executable, "-c", code], check=True, text=True,
                capture_output=True,
                env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src),
            ).stdout
            for seed in ("0", "1")}
        assert len(points) == 1, points


class TestXeonModel:
    def test_contention_inflates_latency(self):
        m = XeonModel()
        m.active_cores = 1
        base = m.loaded_dram_ns
        m.active_cores = 24
        assert m.loaded_dram_ns > base * 1.4

    def test_small_structures_are_cache_resident(self):
        m = XeonModel()
        m.active_cores = 4
        assert m.line_ns(1024) == pytest.approx(m.l3_ns)
        assert m.line_ns(10 * 2**30) > m.dram_ns

    def test_streamed_cheaper_than_random(self):
        m = XeonModel()
        m.active_cores = 4
        assert m.payload_ns(1024, streamed=True) < m.payload_ns(1024) / 2


class TestRunners:
    def test_ycsb_runner_matches_spec_stream(self):
        cfg = YcsbConfig(records_per_partition=500, n_partitions=4)
        w = YcsbWorkload(cfg)
        s = SiloYcsb(cfg, n_cores=4)
        s.install()
        report = s.run(w.make_read_txns(40))
        assert report.committed == 40

    def test_ycsb_scan_structures_differ_in_speed(self):
        cfg = YcsbConfig(records_per_partition=500, n_partitions=4,
                         index_kind="skiplist")
        w = YcsbWorkload(cfg)
        specs = w.make_scan_txns(30)

        def run(structure):
            s = SiloYcsb(cfg, n_cores=4, structure=structure)
            s.install()
            return s.run(specs).throughput_tps

        sk = run(IndexStructure.SKIPLIST)
        mt = run(IndexStructure.MASSTREE)
        assert sk > mt * 2  # streamed bottom level wins on scans

    def test_tpcc_runner_commits_and_maintains_balance(self):
        cfg = TpccConfig(items=300, customers_per_district=30)
        w = TpccWorkload(cfg)
        s = SiloTpcc(cfg, n_cores=4)
        s.install()
        specs = [w.make_payment() for _ in range(20)]
        report = s.run(specs)
        assert report.committed == 20
        from repro.workloads.tpcc import schema as T
        total = sum(spec.keys[5] for spec in specs)
        wh_ytd = sum(
            s.tables[T.WAREHOUSE].get_record(T.warehouse_key(x)).value[2]
            for x in range(1, cfg.n_warehouses + 1))
        assert wh_ytd == total

    def test_tpcc_neworder_advances_order_ids(self):
        cfg = TpccConfig(items=300, customers_per_district=30)
        w = TpccWorkload(cfg)
        s = SiloTpcc(cfg, n_cores=2)
        s.install()
        specs = [w.make_neworder() for _ in range(10)]
        report = s.run(specs)
        assert report.committed == 10
        from repro.workloads.tpcc import schema as T
        n_orders = sum(
            1 for x in range(1, cfg.n_warehouses + 1)
            for d in range(1, cfg.districts_per_warehouse + 1)
            for key, _rec in s.tables[T.ORDERS].scan_records(
                T.orders_base(x, d), 1000)
            if T.orders_base(x, d) <= key < T.orders_base(x, d) + 10_000_000)
        assert n_orders == 10
