"""Unit tests for the hierarchical (cluster) interconnect."""

import pytest

from repro.cluster import ClusterError, HierarchicalInterconnect
from repro.comm import RequestPacket, ResponsePacket
from repro.index.common import DbRequest
from repro.isa import Opcode
from repro.sim import ClockDomain, Engine


def make(node_of=(0, 0, 1, 1), inter_ns=1500.0):
    eng = Engine()
    clock = ClockDomain(eng, 125.0)
    ic = HierarchicalInterconnect(eng, clock, node_of,
                                  inter_latency_ns=inter_ns)
    return eng, clock, ic


def search_req(**kw):
    return DbRequest(op=Opcode.SEARCH, table_id=0, ts=1, txn_id=1, **kw)


class TestHierarchicalInterconnect:
    def test_same_node_uses_onchip_latency(self):
        eng, clock, ic = make()
        got = []

        def recv():
            yield ic.link(1).requests.get()
            got.append(eng.now)

        eng.process(recv())
        ic.send_request(RequestPacket(src_worker=0, dst_worker=1,
                                      request=search_req(key_value=1)))
        eng.run()
        assert got == [pytest.approx(clock.ns(3))]

    def test_cross_node_pays_link_latency(self):
        eng, _clock, ic = make(inter_ns=2000.0)
        got = []

        def recv():
            yield ic.link(2).requests.get()
            got.append(eng.now)

        eng.process(recv())
        ic.send_request(RequestPacket(src_worker=0, dst_worker=2,
                                      request=search_req(key_value=1)))
        eng.run()
        assert got == [pytest.approx(2000.0)]
        assert ic.stats.counter("comm.internode_messages").value == 1

    def test_cross_node_key_inlined(self):
        eng, _clock, ic = make()
        req = search_req(key_addr=12345, route_key=77)
        ic.send_request(RequestPacket(src_worker=0, dst_worker=3, request=req))
        assert req.key_value == 77
        assert req.key_addr is None

    def test_same_node_key_untouched(self):
        eng, _clock, ic = make()
        req = search_req(key_addr=12345, route_key=77)
        ic.send_request(RequestPacket(src_worker=0, dst_worker=1, request=req))
        assert req.key_addr == 12345
        assert req.key_value is None

    @pytest.mark.parametrize("op", [Opcode.UPDATE, Opcode.REMOVE,
                                    Opcode.INSERT, Opcode.SCAN])
    def test_cross_node_writes_and_scans_rejected(self, op):
        eng, _clock, ic = make()
        req = DbRequest(op=op, table_id=0, ts=1, txn_id=1, route_key=5)
        with pytest.raises(ClusterError):
            ic.send_request(RequestPacket(src_worker=0, dst_worker=2,
                                          request=req))

    def test_same_node_writes_allowed(self):
        eng, _clock, ic = make()
        req = DbRequest(op=Opcode.UPDATE, table_id=0, ts=1, txn_id=1,
                        key_addr=9, route_key=5)
        ic.send_request(RequestPacket(src_worker=0, dst_worker=1, request=req))

    def test_inter_node_lane_serialisation(self):
        eng, _clock, ic = make(inter_ns=1000.0)
        arrivals = []

        def recv():
            while True:
                yield ic.link(2).requests.get()
                arrivals.append(eng.now)

        eng.process(recv())
        for _ in range(3):
            ic.send_request(RequestPacket(src_worker=0, dst_worker=2,
                                          request=search_req(key_value=1)))
        eng.run(until=100_000)
        assert arrivals == [pytest.approx(1000.0), pytest.approx(1050.0),
                            pytest.approx(1100.0)]

    def test_responses_cross_nodes_freely(self):
        from repro.txn import DbResult, ResultCode
        eng, _clock, ic = make()
        got = []

        def recv():
            pkt = yield ic.link(0).responses.get()
            got.append((eng.now, pkt.result.code))

        eng.process(recv())
        ic.send_response(ResponsePacket(
            src_worker=3, dst_worker=0, cp_index=1, txn_id=1,
            result=DbResult(ResultCode.OK)))
        eng.run()
        assert got[0][0] == pytest.approx(1500.0)
        assert got[0][1] is pytest.approx(0) or got[0][1].value == 0

    def test_bad_destination(self):
        eng, _clock, ic = make()
        with pytest.raises(ValueError):
            ic.send_request(RequestPacket(src_worker=0, dst_worker=9,
                                          request=search_req(key_value=1)))

    def test_latency_properties(self):
        _eng, clock, ic = make()
        assert ic.primitive_latency_ns == pytest.approx(clock.ns(3))
        assert ic.roundtrip_latency_ns == pytest.approx(clock.ns(6))
        assert ic.internode_roundtrip_ns == pytest.approx(3000.0)


class TestLinkFaultsUnderTraffic:
    """Stall / partition fault sites with many messages in flight."""

    def make_faulted(self, plan, inter_ns=1000.0):
        eng = Engine()
        clock = ClockDomain(eng, 125.0)
        ic = HierarchicalInterconnect(eng, clock, (0, 0, 1, 1),
                                      inter_latency_ns=inter_ns,
                                      faults=plan, stall_max_ns=10_000.0)
        return eng, ic

    def collect(self, eng, ic, dst_worker, n_sent):
        arrivals = []

        def recv():
            while True:
                yield ic.link(dst_worker).requests.get()
                arrivals.append(eng.now)

        eng.process(recv())
        for _ in range(n_sent):
            ic.send_request(RequestPacket(src_worker=0, dst_worker=dst_worker,
                                          request=search_req(key_value=1)))
        eng.run(until=100_000_000)
        return arrivals

    def test_stall_delays_one_message_not_the_lane(self):
        from repro.faults import FaultPlan, LINK_STALL
        plan = FaultPlan(seed=1).arm(LINK_STALL, nth=2)
        eng, ic = self.make_faulted(plan)
        arrivals = self.collect(eng, ic, dst_worker=2, n_sent=4)
        assert len(arrivals) == 4
        assert ic.stats.counter("comm.fault_stalled").value == 1
        # unstalled messages keep the serialised 50ns cadence (the
        # stall delays one message's arrival, not the lane itself)
        for want in (1000.0, 1100.0, 1150.0):
            assert any(abs(a - want) < 1e-6 for a in arrivals), arrivals
        # the stalled one arrives late but is not lost
        assert max(arrivals) > 1150.0

    def test_partition_cuts_pair_and_loses_in_flight(self):
        from repro.faults import FaultPlan, LINK_PARTITION
        plan = FaultPlan(seed=2).arm(LINK_PARTITION, nth=3)
        eng, ic = self.make_faulted(plan)
        arrivals = self.collect(eng, ic, dst_worker=2, n_sent=3)
        # the triggering message is lost with the cut
        assert len(arrivals) == 2
        assert ic.stats.counter("comm.fault_partitioned").value >= 1

    def test_standing_cut_drops_subsequent_traffic(self):
        from repro.faults import FaultPlan, LINK_PARTITION
        plan = FaultPlan(seed=7).arm(LINK_PARTITION, nth=1)
        eng, ic = self.make_faulted(plan)
        arrivals = self.collect(eng, ic, dst_worker=2, n_sent=5)
        # cut duration (draw * 20ms default) far exceeds the send burst:
        # everything after the trigger is dropped too
        assert arrivals == []
        lost = ic.stats.counter("comm.fault_lost").value
        part = ic.stats.counter("comm.fault_partitioned").value
        assert lost + part == 5

    def test_cut_heals_after_duration(self):
        from repro.faults import FaultPlan
        links = ic = None
        from repro.cluster import NodeLinks
        links = NodeLinks(2)
        links.isolate(0, 1, until_ns=5_000.0)
        assert links.delivery(0, 1, 1_000.0) is None
        assert links.delivery(1, 0, 2_000.0) is None   # cut is undirected
        arrive = links.delivery(0, 1, 6_000.0)
        assert arrive is not None and arrive > 6_000.0

    def test_concurrent_lanes_independent_under_cut(self):
        # cutting nodes 0<->1 must not affect a node's intra-node lane
        from repro.cluster import NodeLinks
        links = NodeLinks(3)
        links.isolate(0, 1, until_ns=1e9)
        assert links.delivery(0, 1, 0.0) is None
        assert links.delivery(0, 2, 0.0) is not None
        assert links.delivery(2, 1, 0.0) is not None


class TestPublicApi:
    def test_top_level_imports(self):
        import repro
        assert repro.__version__
        from repro.core import BionicConfig, BionicDB, RunReport  # noqa
        from repro.baseline import SiloEngine, SiloTpcc, SiloYcsb  # noqa
        from repro.host import (  # noqa
            CommandLog, DurableClient, RecoveryManager, compact,
            take_checkpoint,
        )
        from repro.workloads import TpccWorkload, YcsbWorkload  # noqa
        from repro.isa import ProcedureBuilder, assemble, disassemble  # noqa
        from repro.sim import Engine, Tracer  # noqa
        import repro.bench as bench
        assert len([n for n in bench.__all__ if n.startswith("run_")]) >= 20
