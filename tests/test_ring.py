"""Tests for the ring interconnect and the scale-up resource model."""

import pytest

from repro.comm import RequestPacket, RingInterconnect
from repro.core import BionicConfig, BionicDB
from repro.mem import TableSchema, TxnStatus
from repro.sim import ClockDomain, Engine


def make_ring(n=4):
    eng = Engine()
    clock = ClockDomain(eng, 125.0)
    return eng, clock, RingInterconnect(eng, clock, n)


class TestRing:
    def test_latency_proportional_to_hops(self):
        eng, clock, ring = make_ring(n=8)
        arrivals = {}

        def receiver(w):
            def on_request(_pkt):
                arrivals[w] = eng.now
            return on_request

        # stagger the sends so they do not serialise on segment 0
        for i, dst in enumerate((1, 4, 7)):
            ring.attach(dst, receiver(dst), None)
            send_at = clock.ns(100 * i)
            eng.call_fn_at(send_at, ring.send_request, RequestPacket(
                src_worker=0, dst_worker=dst, request=object()))
        eng.run()
        assert arrivals[1] == pytest.approx(clock.ns(2 * 1))
        assert arrivals[4] == pytest.approx(clock.ns(100 + 2 * 4))
        assert arrivals[7] == pytest.approx(clock.ns(200 + 2 * 7))

    def test_wraparound(self):
        eng, clock, ring = make_ring(n=4)
        assert ring.hops_between(3, 1) == 2
        assert ring.hops_between(1, 3) == 2
        assert ring.hops_between(2, 1) == 3

    def test_roundtrip_crosses_full_ring(self):
        _eng, clock, ring = make_ring(n=8)
        assert ring.roundtrip_latency_ns == pytest.approx(clock.ns(16))

    def test_hop_counter(self):
        eng, _clock, ring = make_ring(n=4)
        ring.attach(2, lambda _pkt: None, None)
        ring.send_request(RequestPacket(src_worker=0, dst_worker=2,
                                        request=object()))
        assert ring.stats.counter("comm.hops").value == 2

    def test_bad_destination(self):
        _eng, _clock, ring = make_ring(n=2)
        with pytest.raises(ValueError):
            ring.send_request(RequestPacket(src_worker=0, dst_worker=4,
                                            request=object()))

    def test_segment_serialisation(self):
        """Two messages crossing segment 0 at once serialise there."""
        eng, clock, ring = make_ring(n=4)
        arrivals = []
        ring.attach(1, lambda _pkt: arrivals.append(eng.now), None)
        for _ in range(3):
            ring.send_request(RequestPacket(src_worker=0, dst_worker=1,
                                            request=object()))
        eng.run(until=10_000)
        assert arrivals == [clock.ns(2), clock.ns(3), clock.ns(4)]


class TestRingSystem:
    def test_multisite_transactions_work_on_ring(self):
        from repro.workloads import YcsbConfig, YcsbWorkload
        cfg = YcsbConfig(records_per_partition=1000, remote_fraction=0.75)
        db = BionicDB(BionicConfig(comm_topology="ring"))
        workload = YcsbWorkload(cfg)
        workload.install(db)
        report, blocks = workload.submit_all(db, workload.make_read_txns(40))
        assert report.committed == 40
        assert db.stats.counter("comm.messages").value > 0


class TestScaleUpResources:
    def test_16_workers_do_not_fit_virtex5(self):
        db = BionicDB(BionicConfig(n_workers=16))
        assert not db.resource_ledger().fits()

    def test_16_workers_fit_ultrascale(self):
        db = BionicDB(BionicConfig(n_workers=16, device="ultrascale_plus"))
        assert db.resource_ledger().fits()

    def test_crossbar_comm_grows_superlinearly(self):
        def comm_lut(n, topo):
            db = BionicDB(BionicConfig(n_workers=n, comm_topology=topo,
                                       device="ultrascale_plus"))
            return db.resource_ledger().module_total("Communication").lut

        assert comm_lut(16, "crossbar") > 3 * comm_lut(16, "ring")
        # ring stays linear: per-worker cost constant
        assert comm_lut(16, "ring") == 4 * comm_lut(4, "ring")

    def test_unknown_topology_rejected(self):
        with pytest.raises(ValueError):
            BionicConfig(comm_topology="mesh")
        with pytest.raises(ValueError):
            BionicConfig(device="asic")
