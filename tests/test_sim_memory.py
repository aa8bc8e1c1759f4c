"""Unit tests for the DRAM model and heap."""

from functools import partial

import pytest

from repro.errors import HeapAddressError
from repro.sim import ClockDomain, DramModel, Engine, Heap, LINE_BYTES
from repro.sim.memory import ColdRows


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

    def test_membership_leaves_a_cold_row_cold(self):
        heap = Heap()
        rows = ColdRows(lambda batch, addr: ("built", addr), 0, ts=1)
        rows.fields.extend([(1,), (2,)])
        rows.base = heap.alloc(3)
        heap.place_cold(rows)
        assert rows.base in heap and rows.base + 1 in heap
        assert rows.base + 2 not in heap
        assert dict(heap.raw_items())[rows.base] is rows
        assert heap.rows_inflated.value == 0
        assert heap.load(rows.base) == ("built", rows.base)
        assert heap.rows_inflated.value == 1

    def test_load_raw_hands_a_cold_row_out_as_stored(self):
        heap = Heap()
        rows = ColdRows(lambda batch, addr: ("built", addr), 0, ts=1)
        rows.fields.append((1,))
        rows.base = heap.alloc(2)
        heap.place_cold(rows)
        words = heap.alloc_words(2)
        heap.store(words, rows.base)
        assert heap.load_raw(rows.base) is rows
        assert heap.load_raw(rows.base + 1) is None
        assert (heap.load_raw(words), heap.load_raw(words + 1)) == (
            rows.base, None)
        assert heap.load_raw(0) is heap.load_raw(heap._limit()) is None
        assert heap.rows_inflated.value == 0
        assert heap.load(rows.base) == ("built", rows.base)
        assert heap.load_raw(rows.base) == ("built", rows.base)

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


class TestWordCells:
    def test_addresses_and_allocated_cells_match_alloc(self):
        # alloc_words takes the range alloc would, with no padding: a
        # word cell's DRAM channel is its address's
        sizes = (4, 3, 1, 65536, 2, 5, 1)
        flat, mixed = Heap(), Heap()
        kinds = (mixed.alloc, mixed.alloc_words, mixed.alloc_words,
                 mixed.alloc, mixed.alloc_words, mixed.alloc, mixed.alloc)
        assert ([alloc(n) for alloc, n in zip(kinds, sizes)]
                == [flat.alloc(n) for n in sizes])
        assert mixed.allocated_cells == flat.allocated_cells == sum(sizes)
        assert mixed.bytes_allocated == flat.bytes_allocated

    def test_an_empty_word_loads_as_none_and_is_not_in_the_heap(self):
        heap = Heap()
        addr = heap.alloc_words(3)
        for cell in range(addr, addr + 3):
            assert heap.load(cell) is None
            assert cell not in heap
        assert list(heap.items()) == list(heap.raw_items()) == []

    def test_an_occupied_word_reads_back_its_address(self):
        heap = Heap()
        words = heap.alloc_words(4)
        row = heap.alloc()
        heap.store(words + 2, row)
        assert heap.load(words + 2) == row
        assert words + 2 in heap and words + 1 not in heap
        assert heap.words(words)[2] == row
        heap.store(words + 2, None)         # empties the cell
        assert heap.load(words + 2) is None and words + 2 not in heap

    def test_items_skip_empty_words_in_address_order(self):
        heap = Heap()
        first = heap.alloc(2)
        words = heap.alloc_words(5)
        last = heap.alloc(2)
        heap.store(first + 1, "a")
        heap.store(words + 3, last)
        heap.store(words, first)
        heap.store(last, "b")
        assert list(heap.items()) == [(first + 1, "a"), (words, first),
                                      (words + 3, last), (last, "b")]
        assert list(heap.raw_items()) == list(heap.items())

    def test_a_word_holds_none_or_an_allocated_address(self):
        heap = Heap()
        words = heap.alloc_words(2)
        limit = heap.alloc(2) + 2
        for value in ("x", 0, -1, 0xFFF, limit, 1.5, True, [words],
                      ColdRows(lambda batch, addr: None, words, ts=0)):
            with pytest.raises(HeapAddressError) as err:
                heap.store(words, value)
            assert err.value.details["addr"] == words
        assert heap.load(words) is None
        heap.store(words, limit - 1)
        assert heap.load(words) == limit - 1

    def test_words_hands_out_only_a_word_allocation(self):
        heap = Heap()
        rows = heap.alloc(2)
        words = heap.alloc_words(3)
        assert len(heap.words(words)) == 3
        for addr in (rows, words + 1, words + 3, 0):
            with pytest.raises(HeapAddressError):
                heap.words(addr)

    def test_a_store_past_the_last_word_allocation_raises(self):
        heap = Heap()
        words = heap.alloc_words(2)
        with pytest.raises(HeapAddressError):
            heap.store(words + 2, None)
        assert heap.load(words + 2) is None and words + 2 not in heap

    def test_cold_rows_after_a_word_allocation_stay_cold_until_read(self):
        heap = Heap()
        heap.alloc(1)
        heap.alloc_words(4)
        rows = ColdRows(lambda batch, addr: ("built", addr), 0, ts=1)
        rows.fields.extend([(1,), (2,)])
        rows.base = heap.alloc(2)
        heap.alloc_words(1)             # the batch is no longer the tail
        heap.place_cold(rows)
        assert rows.base + 1 in heap
        assert dict(heap.raw_items())[rows.base + 1] is rows
        assert heap.load(rows.base + 1) == ("built", rows.base + 1)
        assert heap.rows_inflated.value == 1
        heap.store(rows.base, "stored")
        assert heap.load(rows.base) == "stored"


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

    def test_callback_read_and_write_back_keep_cold_cells_on_the_read_schedule(self):
        # read_cb + post_write_back take the slots, channels and DRAM
        # counts of read + post_write; the first pair serves the cell as
        # stored and leaves it cold, the second builds the row
        def run(as_stored):
            eng, clock, heap, dram = make_dram(latency_cycles=10, channels=2)
            rows = ColdRows(lambda batch, addr: ("built", addr), 0, ts=1)
            rows.fields.extend([(1,)] * 4)
            rows.base = heap.alloc(4)
            heap.place_cold(rows)
            port = dram.new_port("p", max_outstanding=2,
                                 issue_interval_cycles=3.0)
            landed = []

            def on_cb(arg):
                where, value = arg
                landed.append((eng.now, where, value.__class__.__name__))

            for i in range(4):
                addr = rows.base + i
                if as_stored:
                    port.read_cb(addr, on_cb, i)
                    port.post_write_back(addr)
                else:
                    port.read(addr).callbacks.append(
                        lambda ev, i=i: on_cb((i, ev._value)))
                    port.post_write(addr, ("stored", addr))
            eng.run()
            cells = [cell.__class__.__name__ for _a, cell in heap.raw_items()]
            return (landed, dram.stats.counter("dram.reads").value,
                    dram.stats.counter("dram.writes").value,
                    eng.events_fired, heap.rows_inflated.value, cells)

        stored, built = run(True), run(False)
        assert [(t, i) for t, i, _kind in stored[0]] == [
            (t, i) for t, i, _kind in built[0]]
        assert stored[1:4] == built[1:4] == (4, 4, stored[3])
        assert {kind for _t, _i, kind in stored[0]} == {"ColdRows"}
        assert stored[4:] == (0, ["ColdRows"] * 4)
        assert {kind for _t, _i, kind in built[0]} == {"tuple"}
        assert built[4:] == (4, ["tuple"] * 4)

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


class TestPortSchedulePin:
    """Every delivery of a seeded mixed stream, pinned.

    Three ports share four channels; each has its own outstanding limit
    (1-3) and issue interval, so requests queue behind a full port and
    tie on a channel at one instant.  The stream mixes all seven request
    kinds, and some deliveries issue a follow-up from inside their own
    completion.  The digest covers every delivery ``(now, port, kind,
    addr, value)``, the final heap image, the DRAM counters and the
    engine's event count, so a port that reorders, adds or drops any
    work item reads a different digest.
    """

    KINDS = ("read", "write", "post_write", "read_cb", "write_cb",
             "apply", "post_apply")
    #: per seed: sha256 of the run's digest, captured before the port's
    #: request path was rewritten
    PINNED = {
        1: "3598e68c701d8adffe5829c626bb3e579539184fa11d16ba594d38a87f73fe35",
        2: "9a8a98d7e7d3c2ccb9de1275c916dec17ca2fd700020429e4d9ae127db69fd4f",
        3: "9e90e13a68912e7e224c6c5a5e352fac8780f0d2c2bac0c647bfe556342ad819",
        4: "1fe918c9b6e143905fe69eb6afdc7d70610e348cf175a2b5a9986aba27db7cf1",
    }

    @staticmethod
    def run_stream(seed, n_ops=400, n_cells=24):
        import random

        rng = random.Random(seed)
        eng = Engine()
        clock = ClockDomain(eng, 125.0, name="fpga")
        heap = Heap()
        dram = DramModel(eng, clock, heap, latency_cycles=10.0, channels=4)
        ports = [dram.new_port("p0", max_outstanding=1,
                               issue_interval_cycles=1.0),
                 dram.new_port("p1", max_outstanding=2,
                               issue_interval_cycles=4.0),
                 dram.new_port("p2", max_outstanding=3,
                               issue_interval_cycles=2.5)]
        base = heap.alloc(n_cells)
        for i in range(0, n_cells, 2):
            heap.store(base + i, [i])
        log = []
        tags = iter(range(10**9))

        def deliver(where, value):
            p, kind, addr = where
            log.append((eng.now, p, kind, addr, repr(value)))
            if rng.random() < 0.25:
                issue(None)         # a follow-up from inside the completion

        def on_event(where, ev):
            deliver(where, ev._value)

        def on_cb(landed):
            where, value = landed
            deliver(where, value)

        def mutate(where, cell):
            tag = next(tags)
            if isinstance(cell, list):
                cell.append(tag)
            log.append((eng.now, where[0], where[1], where[2], repr(cell)))

        def issue(_arg):
            p = rng.randrange(len(ports))
            port = ports[p]
            kind = rng.choice(TestPortSchedulePin.KINDS)
            addr = base + rng.randrange(n_cells)
            where = (p, kind, addr)
            if kind == "read":
                port.read(addr).callbacks.append(partial(on_event, where))
            elif kind == "write":
                port.write(addr, [next(tags)]).callbacks.append(
                    partial(on_event, where))
            elif kind == "post_write":
                port.post_write(addr, [next(tags)])
            elif kind == "read_cb":
                port.read_cb(addr, on_cb, where)
            elif kind == "write_cb":
                port.write_cb(addr, [next(tags)], on_cb, where)
            elif kind == "apply":
                port.apply(addr, partial(mutate, where)).callbacks.append(
                    partial(on_event, where))
            else:
                port.post_apply(addr, partial(mutate, where))

        for _ in range(n_ops):
            # whole cycles, so many requests fall on one instant
            eng.call_fn_at(clock.ns(rng.randrange(600)), issue)
        eng.run()
        return (log, [(a, repr(c)) for a, c in heap.items()],
                dram.stats.counter("dram.reads").value,
                dram.stats.counter("dram.writes").value,
                eng.events_fired)

    @pytest.mark.parametrize("seed", sorted(PINNED))
    def test_stream_matches_the_pin(self, seed):
        import hashlib

        snapshot = self.run_stream(seed)
        log = snapshot[0]
        # the stream really mixes every kind and queues on the ports
        assert {entry[2] for entry in log} >= set(self.KINDS) - {"post_write"}
        assert snapshot[2] + snapshot[3] > 400
        digest = hashlib.sha256(repr(snapshot).encode()).hexdigest()
        assert digest == self.PINNED[seed]
