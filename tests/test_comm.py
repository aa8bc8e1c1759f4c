"""Tests for on-chip message passing and the Table 3 latency model."""

import pytest

from repro.comm import (
    Crossbar, DDR3_MP, L3_MP, ONCHIP_MP, RequestPacket, ResponsePacket,
    software_mp_table,
)
from repro.sim import ClockDomain, Engine


def make_crossbar(n=4, hop_cycles=3.0):
    eng = Engine()
    clock = ClockDomain(eng, 125.0)
    return eng, clock, Crossbar(eng, clock, n, hop_cycles=hop_cycles)


def record_arrivals(eng, fabric, worker):
    """Attach ``worker`` with a request handler that logs ``(now,
    packet)`` of every arrival; returns the log."""
    log = []
    fabric.attach(worker, lambda pkt: log.append((eng.now, pkt)), None)
    return log


class TestCrossbar:
    def test_request_arrives_after_hop_latency(self):
        eng, clock, xbar = make_crossbar()
        pkt = RequestPacket(src_worker=0, dst_worker=2, request=object())
        got = record_arrivals(eng, xbar, 2)
        xbar.send_request(pkt)
        eng.run()
        assert got[0][0] == clock.ns(3)
        assert got[0][1] is pkt

    def test_roundtrip_latency_matches_table3(self):
        eng, clock, xbar = make_crossbar()
        assert xbar.primitive_latency_ns == pytest.approx(24.0)
        assert xbar.roundtrip_latency_ns == pytest.approx(48.0)

    def test_full_request_response_cycle(self):
        eng, clock, xbar = make_crossbar()
        times = {}

        def remote(pkt):
            times["request_at"] = eng.now
            xbar.send_response(ResponsePacket(
                src_worker=1, dst_worker=pkt.src_worker, cp_index=0,
                result=None))

        def initiator(_pkt):
            times["response_at"] = eng.now

        xbar.attach(0, None, initiator)
        xbar.attach(1, remote, None)
        xbar.send_request(RequestPacket(src_worker=0, dst_worker=1,
                                        request=object()))
        eng.run()
        assert times["request_at"] == pytest.approx(clock.ns(3))
        assert times["response_at"] == pytest.approx(clock.ns(6))  # 48 ns

    def test_congestion_serialises_one_lane(self):
        eng, clock, xbar = make_crossbar()
        got = record_arrivals(eng, xbar, 1)
        for _ in range(4):
            xbar.send_request(RequestPacket(src_worker=0, dst_worker=1,
                                            request=object()))
        eng.run(until=1000)
        # one message per cycle on a directed lane
        assert [t for t, _pkt in got] == [clock.ns(3 + i) for i in range(4)]

    def test_distinct_lanes_do_not_interfere(self):
        eng, clock, xbar = make_crossbar()
        logs = {w: record_arrivals(eng, xbar, w) for w in (1, 2, 3)}
        for w in (1, 2, 3):
            xbar.send_request(RequestPacket(src_worker=0, dst_worker=w,
                                            request=object()))
        eng.run()
        assert all([t for t, _pkt in log] == [clock.ns(3)]
                   for log in logs.values())

    def test_bad_destination_rejected(self):
        _eng, _clock, xbar = make_crossbar(n=2)
        with pytest.raises(ValueError):
            xbar.send_request(RequestPacket(src_worker=0, dst_worker=5,
                                            request=object()))

    def test_message_counter(self):
        eng, _clock, xbar = make_crossbar()
        record_arrivals(eng, xbar, 1)
        xbar.send_request(RequestPacket(src_worker=0, dst_worker=1,
                                        request=object()))
        assert xbar.stats.counter("comm.messages").value == 1


class TestInbox:
    """A channel serves its arrivals one at a time: what a handler
    queues at its instant runs before the next packet is served."""

    def test_same_instant_arrivals_are_served_one_after_the_other(self):
        eng, _clock, xbar = make_crossbar()
        order = []

        def on_request(pkt):
            order.append(pkt.request)
            if pkt.request == "p1":
                # work the first handler queues at this instant runs
                # before the second packet is served
                eng.call_fn_at(eng.now, order.append, "queued by p1")

        xbar.attach(1, on_request, None)
        # different source lanes: both land at the same instant
        for src, name in ((0, "p1"), (2, "p2")):
            xbar.send_request(RequestPacket(src_worker=src, dst_worker=1,
                                            request=name))
        eng.run()
        assert order == ["p1", "queued by p1", "p2"]


class TestSoftwareMpModel:
    def test_table3_rows(self):
        rows = software_mp_table()
        assert [r.name for r in rows] == [
            "On-chip MP", "Software MP (L3 cache)", "Software MP (DDR3)"]

    def test_paper_latencies(self):
        assert ONCHIP_MP.primitive_latency_ns == 24.0
        assert ONCHIP_MP.roundtrip_latency_ns == 48.0
        assert L3_MP.primitive_latency_ns == 20.0
        assert L3_MP.roundtrip_latency_ns == 40.0
        assert DDR3_MP.primitive_latency_ns == 80.0
        assert DDR3_MP.roundtrip_latency_ns == 320.0

    def test_onchip_beats_ddr3_despite_slow_clock(self):
        assert ONCHIP_MP.roundtrip_latency_ns < DDR3_MP.roundtrip_latency_ns / 6
