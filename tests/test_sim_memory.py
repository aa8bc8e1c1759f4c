"""Unit tests for the DRAM model, heap and BRAM."""

import pytest

from repro.errors import HeapAddressError
from repro.sim import ClockDomain, DramModel, Engine, Heap, LINE_BYTES


def make_dram(latency_cycles=85.0, channels=8):
    eng = Engine()
    clock = ClockDomain(eng, 125.0, name="fpga")
    heap = Heap()
    dram = DramModel(eng, clock, heap, latency_cycles=latency_cycles, channels=channels)
    return eng, clock, heap, dram


class TestHeap:
    def test_alloc_returns_disjoint_ranges(self):
        heap = Heap()
        a = heap.alloc(4)
        b = heap.alloc(2)
        assert b == a + 4
        assert heap.allocated_cells == 6
        assert heap.bytes_allocated == 6 * LINE_BYTES

    def test_store_load_roundtrip(self):
        heap = Heap()
        addr = heap.alloc()
        heap.store(addr, {"k": 1})
        assert heap.load(addr) == {"k": 1}
        assert addr in heap

    def test_load_unwritten_cell_is_none(self):
        heap = Heap()
        addr = heap.alloc()
        assert heap.load(addr) is None

    def test_zero_alloc_rejected(self):
        with pytest.raises(ValueError):
            Heap().alloc(0)

    def test_addresses_start_at_base_and_bump(self):
        # the address sequence simulated timing was calibrated on
        # (DRAM channel = address % channels) must never move
        heap = Heap()
        assert [heap.alloc(n) for n in (4, 1, 3, 1, 65536, 1)] == [
            0x1000, 0x1004, 0x1005, 0x1008, 0x1009, 0x11009]
        assert Heap(base=64).alloc(2) == 64

    def test_load_outside_the_allocated_range_is_none(self):
        heap = Heap()
        last = heap.alloc(3) + 2
        for addr in (-1, 0, 0xFFF, last + 1, 10**9):
            assert heap.load(addr) is None
            assert addr not in heap

    def test_contains_means_occupied(self):
        heap = Heap()
        addr = heap.alloc(2)
        assert addr not in heap
        heap.store(addr, 0)  # a falsy value still occupies the cell
        assert addr in heap and addr + 1 not in heap

    def test_store_outside_the_allocated_range_raises(self):
        heap = Heap()
        last = heap.alloc(3) + 2
        for addr in (-1, 0, 0xFFF, last + 1):
            with pytest.raises(HeapAddressError) as err:
                heap.store(addr, "x")
            assert err.value.details["addr"] == addr
        heap.store(last, "x")
        assert heap.load(last) == "x"

    def test_items_yields_occupied_cells_in_address_order(self):
        heap = Heap()
        addr = heap.alloc(5)
        heap.store(addr + 3, "b")
        heap.store(addr + 1, "a")
        assert list(heap.items()) == [(addr + 1, "a"), (addr + 3, "b")]


class TestDram:
    def test_read_latency(self):
        eng, clock, heap, dram = make_dram(latency_cycles=85)
        addr = heap.alloc()
        heap.store(addr, "payload")
        port = dram.new_port("p")
        seen = []

        def proc():
            value = yield port.read(addr)
            seen.append((eng.now, value))

        eng.start(proc())
        eng.run()
        assert seen == [(clock.ns(85), "payload")]

    def test_write_applies_at_service_time(self):
        eng, clock, heap, dram = make_dram(latency_cycles=10)
        addr = heap.alloc()
        port = dram.new_port("p")
        port.post_write(addr, "v1")
        eng.run(until=clock.ns(5))
        assert heap.load(addr) is None  # not serviced yet
        eng.run()
        assert heap.load(addr) == "v1"

    def test_outstanding_limit_serialises_excess(self):
        eng, clock, heap, dram = make_dram(latency_cycles=10)
        addrs = [heap.alloc() for _ in range(3)]
        port = dram.new_port("p", max_outstanding=1)
        done = []

        def proc(addr):
            yield port.read(addr)
            done.append(eng.now)

        for a in addrs:
            eng.start(proc(a))
        eng.run()
        # One at a time: completions at 10, 20, 30 cycles.
        assert done == [clock.ns(10), clock.ns(20), clock.ns(30)]

    def test_pipelined_port_overlaps_requests(self):
        eng, clock, heap, dram = make_dram(latency_cycles=10)
        # Spread addresses over distinct channels so no channel conflict.
        addrs = [heap.alloc() for _ in range(3)]
        port = dram.new_port("p", max_outstanding=8)
        done = []

        def proc(addr):
            yield port.read(addr)
            done.append(eng.now)

        for a in addrs:
            eng.start(proc(a))
        eng.run()
        # Issue 1/cycle: completions at 10, 11, 12 cycles.
        assert done == [clock.ns(10), clock.ns(11), clock.ns(12)]

    def test_channel_conflict_delays_issue(self):
        eng, clock, heap, dram = make_dram(latency_cycles=10, channels=8)
        base = heap.alloc(9)  # two addresses 8 apart share channel (addr % 8)
        heap.store(base, "x")
        heap.store(base + 8, "y")
        port_a = dram.new_port("a")
        port_b = dram.new_port("b")
        done = []

        def proc(port, addr):
            yield port.read(addr)
            done.append(eng.now)

        eng.start(proc(port_a, base))
        eng.start(proc(port_b, base + 8))
        eng.run()
        assert done == [clock.ns(10), clock.ns(11)]

    def test_rmw_applies_function_at_service(self):
        eng, clock, heap, dram = make_dram(latency_cycles=10)
        addr = heap.alloc()
        heap.store(addr, [0])
        port = dram.new_port("p")

        def bump(cell):
            cell[0] += 1

        def proc():
            yield port.apply(addr, bump)

        eng.start(proc())
        eng.run()
        assert heap.load(addr) == [1]

    def test_access_counters_and_bandwidth(self):
        eng, clock, heap, dram = make_dram(latency_cycles=10)
        addr = heap.alloc()
        port = dram.new_port("p")

        def proc():
            yield port.read(addr)
            yield port.write(addr, 1)

        eng.start(proc())
        eng.run()
        assert dram.stats.counter("dram.reads").value == 1
        assert dram.stats.counter("dram.writes").value == 1
        assert dram.total_accesses == 2

    def test_direct_access_bypasses_timing(self):
        eng, clock, heap, dram = make_dram()
        addr = heap.alloc()
        dram.direct_write(addr, 7)
        assert dram.direct_read(addr) == 7
        assert dram.total_accesses == 0

    def test_bad_outstanding_rejected(self):
        _eng, _clock, _heap, dram = make_dram()
        with pytest.raises(ValueError):
            dram.new_port("p", max_outstanding=0)

    def test_hazard_interleaving_lost_update(self):
        """Two unsynchronised read-modify-writes of the same cell race:
        both read the old head, the later write clobbers the earlier one.
        This is the raw-memory behaviour behind the §4.4 hazards."""
        eng, clock, heap, dram = make_dram(latency_cycles=10)
        head = heap.alloc()
        heap.store(head, None)
        port = dram.new_port("p", max_outstanding=8)
        results = []

        def insert(tag):
            old = yield port.read(head)
            yield port.write(head, (tag, old))
            results.append(tag)

        eng.start(insert("A"))
        eng.start(insert("B"))
        eng.run()
        # Both read None before either write landed -> one insert lost.
        final = heap.load(head)
        assert final[1] is None
        assert len(results) == 2
