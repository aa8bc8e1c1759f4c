"""Unit tests for the discrete-event simulation engine."""

import pytest

from repro.sim import Engine, Event, SimulationError


def test_timeout_advances_clock():
    eng = Engine()
    fired = []

    def proc():
        yield 10
        fired.append(eng.now)
        yield 5.5
        fired.append(eng.now)

    eng.start(proc())
    eng.run()
    assert fired == [10, 15.5]


def test_events_fire_in_time_order():
    eng = Engine()
    order = []

    def waiter(delay, tag):
        yield delay
        order.append(tag)

    eng.start(waiter(30, "c"))
    eng.start(waiter(10, "a"))
    eng.start(waiter(20, "b"))
    eng.run()
    assert order == ["a", "b", "c"]


def test_same_time_events_fifo_order():
    eng = Engine()
    order = []

    def waiter(tag):
        yield 5
        order.append(tag)

    for tag in ("x", "y", "z"):
        eng.start(waiter(tag))
    eng.run()
    assert order == ["x", "y", "z"]


def test_process_return_value_propagates():
    eng = Engine()
    results = []

    def child():
        yield 3
        return 42

    def parent():
        value = yield from child()
        results.append(value)

    eng.start(parent())
    eng.run()
    assert results == [42]


def test_process_exception_propagates_to_waiter():
    eng = Engine()
    caught = []

    def child():
        yield 1
        raise ValueError("boom")

    def parent():
        try:
            yield from child()
        except ValueError as exc:
            caught.append(str(exc))

    eng.start(parent())
    eng.run()
    assert caught == ["boom"]


def test_event_succeed_delivers_value():
    eng = Engine()
    ev = eng.event()
    got = []

    def waiter():
        value = yield ev
        got.append(value)

    def trigger():
        yield 7
        ev.succeed("hello")

    eng.start(waiter())
    eng.start(trigger())
    eng.run()
    assert got == ["hello"]
    assert eng.now == 7


def test_event_double_trigger_raises():
    eng = Engine()
    ev = eng.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_run_until_limit_stops_early():
    eng = Engine()
    seen = []

    def proc():
        while True:
            yield 10
            seen.append(eng.now)

    eng.start(proc())
    eng.run(until=35)
    assert seen == [10, 20, 30]
    assert eng.now == 35


def test_call_at_in_past_raises():
    eng = Engine()

    def proc():
        yield 10

    eng.start(proc())
    eng.run()
    with pytest.raises(SimulationError):
        eng.call_at(5, lambda: None)


def test_yield_bad_value_fails_process():
    eng = Engine()

    def proc():
        yield "not an event"

    eng.start(proc())
    with pytest.raises(TypeError):
        eng.run()


def test_negative_delay_rejected():
    eng = Engine()

    def proc():
        yield -1

    eng.start(proc())
    with pytest.raises(SimulationError, match="negative delay"):
        eng.run()


def test_an_exception_leaves_run_at_the_instant_it_is_raised():
    eng = Engine()
    log = []

    def failing():
        yield 5
        raise KeyError("boom")

    eng.start(failing())
    eng.start(_ticker(eng, log, "t", 1, 20))
    with pytest.raises(KeyError):
        eng.run()
    assert eng.now == 5 and log[-1] == (4, "t")   # nothing after t=5


def test_nested_processes_compose():
    eng = Engine()
    trace = []

    def leaf(n):
        yield n
        return n * 2

    def mid():
        a = yield from leaf(3)
        b = yield from leaf(4)
        return a + b

    def root():
        total = yield from mid()
        trace.append((eng.now, total))

    eng.start(root())
    eng.run()
    assert trace == [(7, 14)]


# -- hot-path ordering ----------------------------------------------------

def test_same_time_heap_and_ready_interleave_in_seq_order():
    # Callbacks scheduled for a future instant (heap) must fire before
    # callbacks created *at* that instant (ready deque), per FIFO seq.
    eng = Engine()
    order = []

    def early():
        yield 10
        order.append("heap")

    def trigger():
        yield 10
        order.append("first")
        ev = Event(eng)

        def chained():
            yield ev
            order.append("chained")

        eng.start(chained())     # first step on the ready deque at t=10
        ev.succeed()             # and the event's firing behind it

    eng.start(trigger())
    eng.start(early())
    eng.run()
    assert order == ["first", "heap", "chained"]


# -- run(): the run-to-idle loop and the watched loop agree ------------------

def _ticker(eng, log, name, period, n):
    for _ in range(n):
        yield period
        log.append((eng.now, name))


def test_run_to_idle_publishes_events_fired():
    eng = Engine()
    eng.start(_ticker(eng, [], "a", 1, 10))
    eng.run()
    # the first step and ten wake-ups
    assert eng.events_fired == 11
    assert eng.idle


def test_run_max_events_is_a_raising_watchdog():
    eng = Engine()
    log = []
    eng.start(_ticker(eng, log, "a", 1, 1000))
    with pytest.raises(SimulationError, match="watchdog"):
        eng.run(max_events=25)
    assert eng.events_fired == 25
    eng.run()                            # the rest is still queued
    assert len(log) == 1000


def test_crash_at_fired_raises_at_the_exact_count():
    from repro.errors import SimulatedCrash
    eng = Engine()
    log = []
    eng.start(_ticker(eng, log, "a", 1, 100))
    eng.crash_at_fired = 40
    with pytest.raises(SimulatedCrash):
        eng.run()
    assert eng.events_fired == 40
    assert eng.crash_at_fired is None    # a machine crashes once
    eng.run()
    assert len(log) == 100


def test_watched_and_unwatched_runs_fire_in_the_same_order():
    def run(**kw):
        eng = Engine()
        log = []
        eng.start(_ticker(eng, log, "a", 2, 30))
        eng.start(_ticker(eng, log, "b", 3, 20))
        eng.start(_ticker(eng, log, "c", 6, 10))
        eng.run(**kw)
        return log, eng.now, eng.events_fired

    assert run() == run(max_events=10**9) == run(until=60)
