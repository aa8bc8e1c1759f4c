"""Unit tests for inboxes and token pools."""

import pytest

from repro.sim import Engine, Inbox, SimulationError, TokenPool


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
        pool = TokenPool(tokens=2)
        assert pool.try_acquire() and pool.try_acquire()
        assert not pool.try_acquire()        # both tokens are held
        pool.release()
        assert pool.try_acquire()
        assert pool.in_use == 2 and pool.available == 0

    def test_over_release_raises(self):
        pool = TokenPool(tokens=1)
        with pytest.raises(SimulationError):
            pool.release()

    def test_resize_grows_and_admits_waiters(self):
        pool = TokenPool(tokens=1)
        assert pool.try_acquire()
        assert not pool.try_acquire()        # a second taker must wait
        pool.resize(2)
        assert pool.try_acquire()            # ...until the pool grows
        assert pool.in_use == 2 and pool.capacity == 2

    def test_in_use_accounting(self):
        pool = TokenPool(tokens=3)
        pool.try_acquire()
        pool.try_acquire()
        assert pool.in_use == 2
        assert pool.available == 1
