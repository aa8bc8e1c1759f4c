"""Unit tests for FIFOs, inboxes and token pools."""

import pytest

from repro.sim import Engine, Fifo, Inbox, SimulationError, TokenPool


def drive(eng):
    eng.run()


class TestFifo:
    def test_put_then_get(self):
        eng = Engine()
        q = Fifo(eng)
        got = []

        def producer():
            q.try_put("a")
            q.try_put("b")
            yield 0

        def consumer():
            yield 5
            got.append((yield q.get()))
            got.append((yield q.get()))

        eng.process(producer())
        eng.process(consumer())
        drive(eng)
        assert got == ["a", "b"]

    def test_get_blocks_until_put(self):
        eng = Engine()
        q = Fifo(eng)
        got = []

        def consumer():
            item = yield q.get()
            got.append((eng.now, item))

        def producer():
            yield 9
            q.try_put("late")

        eng.process(consumer())
        eng.process(producer())
        drive(eng)
        assert got == [(9, "late")]

    def test_fifo_ordering_across_many_items(self):
        eng = Engine()
        q = Fifo(eng)
        got = []

        def producer():
            for i in range(50):
                q.try_put(i)
                yield 1

        def consumer():
            for _ in range(50):
                got.append((yield q.get()))

        eng.process(producer())
        eng.process(consumer())
        drive(eng)
        assert got == list(range(50))

    def test_try_put_and_try_get(self):
        eng = Engine()
        q = Fifo(eng)
        q.try_put("x")
        q.try_put("y")
        assert [q.try_get() for _ in range(3)] == [
            (True, "x"), (True, "y"), (False, None)]

    def test_max_depth_tracked(self):
        eng = Engine()
        q = Fifo(eng)
        for i in range(4):
            q.try_put(i)
        q.try_get()
        q.try_put(4)
        assert q.max_depth == 4
        assert q.total_put == 5


class TestInbox:
    def test_serves_one_at_a_time_after_its_delay(self):
        eng = Engine()
        served = []
        box = Inbox(eng, lambda item: served.append((eng.now, item)),
                    delay=10.0)
        for item in "abc":
            box.arrive(item)
        # the first arrival is in service; the backlog is behind it
        assert len(box) == 2
        eng.run()
        assert served == [(10.0, "a"), (20.0, "b"), (30.0, "c")]
        assert len(box) == 0


class TestTokenPool:
    def test_acquire_release_cycle(self):
        eng = Engine()
        pool = TokenPool(eng, tokens=2)
        order = []

        def worker(tag, hold):
            yield pool.acquire()
            order.append((f"{tag}+", eng.now))
            yield hold
            pool.release()
            order.append((f"{tag}-", eng.now))

        eng.process(worker("a", 10))
        eng.process(worker("b", 10))
        eng.process(worker("c", 10))
        drive(eng)
        # c can only start when a releases at t=10
        assert ("a+", 0) in order and ("b+", 0) in order
        assert ("c+", 10) in order

    def test_over_release_raises(self):
        eng = Engine()
        pool = TokenPool(eng, tokens=1)
        with pytest.raises(SimulationError):
            pool.release()

    def test_resize_grows_and_admits_waiters(self):
        eng = Engine()
        pool = TokenPool(eng, tokens=1)
        starts = []

        def worker(tag):
            yield pool.acquire()
            starts.append((tag, eng.now))

        eng.process(worker("a"))
        eng.process(worker("b"))
        eng.call_after(5, lambda: pool.resize(2))
        drive(eng)
        assert ("a", 0) in starts
        assert ("b", 5) in starts

    def test_in_use_accounting(self):
        eng = Engine()
        pool = TokenPool(eng, tokens=3)

        def worker():
            yield pool.acquire()
            yield 100

        eng.process(worker())
        eng.process(worker())
        eng.run(until=50)
        assert pool.in_use == 2
        assert pool.available == 1
