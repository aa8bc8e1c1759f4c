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

    eng.process(proc())
    eng.run()
    assert fired == [10, 15.5]


def test_events_fire_in_time_order():
    eng = Engine()
    order = []

    def waiter(delay, tag):
        yield delay
        order.append(tag)

    eng.process(waiter(30, "c"))
    eng.process(waiter(10, "a"))
    eng.process(waiter(20, "b"))
    eng.run()
    assert order == ["a", "b", "c"]


def test_same_time_events_fifo_order():
    eng = Engine()
    order = []

    def waiter(tag):
        yield 5
        order.append(tag)

    for tag in ("x", "y", "z"):
        eng.process(waiter(tag))
    eng.run()
    assert order == ["x", "y", "z"]


def test_process_return_value_propagates():
    eng = Engine()
    results = []

    def child():
        yield 3
        return 42

    def parent():
        value = yield eng.process(child())
        results.append(value)

    eng.process(parent())
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
            yield eng.process(child())
        except ValueError as exc:
            caught.append(str(exc))

    eng.process(parent())
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

    eng.process(waiter())
    eng.process(trigger())
    eng.run()
    assert got == ["hello"]
    assert eng.now == 7


def test_event_double_trigger_raises():
    eng = Engine()
    ev = eng.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_event_fail_raises_in_waiter():
    eng = Engine()
    ev = eng.event()
    caught = []

    def waiter():
        try:
            yield ev
        except RuntimeError as exc:
            caught.append(str(exc))

    eng.process(waiter())
    eng.call_after(2, lambda: ev.fail(RuntimeError("bad")))
    eng.run()
    assert caught == ["bad"]


def test_run_until_limit_stops_early():
    eng = Engine()
    seen = []

    def proc():
        while True:
            yield 10
            seen.append(eng.now)

    eng.process(proc())
    eng.run(until=35)
    assert seen == [10, 20, 30]
    assert eng.now == 35


def test_call_at_in_past_raises():
    eng = Engine()

    def proc():
        yield 10

    eng.process(proc())
    eng.run()
    with pytest.raises(SimulationError):
        eng.call_at(5, lambda: None)


def test_yield_bad_value_fails_process():
    eng = Engine()

    def proc():
        yield "not an event"

    p = eng.process(proc())
    eng.run()
    assert p.triggered
    with pytest.raises(SimulationError):
        _ = p.value


def test_negative_delay_rejected():
    eng = Engine()
    with pytest.raises(ValueError):
        eng.timeout(-1)


def test_nested_processes_compose():
    eng = Engine()
    trace = []

    def leaf(n):
        yield n
        return n * 2

    def mid():
        a = yield eng.process(leaf(3))
        b = yield eng.process(leaf(4))
        return a + b

    def root():
        total = yield eng.process(mid())
        trace.append((eng.now, total))

    eng.process(root())
    eng.run()
    assert trace == [(7, 14)]


# -- hot-path overhaul regressions -------------------------------------------

class _Killed(Exception):
    pass


def test_kill_while_waiting_on_event_no_double_resume():
    # The killed process must not also be resumed when the original
    # event later fires (the O(1) tombstone replaces callbacks.remove).
    eng = Engine()
    gate = Event(eng)
    log = []

    def waiter():
        try:
            yield gate
            log.append("resumed")
        except _Killed as exc:
            log.append(("killed", str(exc)))
            yield 100
            log.append("slept")

    def driver(p):
        yield 5
        p.kill(_Killed("bored"))
        yield 5
        gate.succeed("late")

    p = eng.process(waiter())
    eng.process(driver(p))
    eng.run()
    assert log == [("killed", "bored"), "slept"]


def test_kill_during_delay_no_stale_wakeup():
    # Killing a numeric sleep must cancel the pending wakeup (the
    # delay-epoch check), even if the process immediately sleeps again
    # across the original wakeup time.
    eng = Engine()
    log = []

    def sleeper():
        try:
            yield 10
            log.append("full sleep")
        except _Killed:
            yield 20
            log.append(eng.now)

    def driver(p):
        yield 4
        p.kill(_Killed())

    p = eng.process(sleeper())
    eng.process(driver(p))
    eng.run()
    assert log == [24]


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
        ev.succeed()     # lands on the ready deque at t=10

        def chained():
            yield ev
            order.append("chained")

        eng.process(chained())

    eng.process(trigger())
    eng.process(early())
    eng.run()
    assert order == ["first", "heap", "chained"]


# -- run(): the run-to-idle loop and the watched loop agree ------------------

def _ticker(eng, log, name, period, n):
    for _ in range(n):
        yield period
        log.append((eng.now, name))


def test_run_to_idle_publishes_events_fired():
    eng = Engine()
    eng.process(_ticker(eng, [], "a", 1, 10))
    eng.run()
    # the kick, ten wake-ups and the process's own completion event
    assert eng.events_fired == 12
    assert eng.idle


def test_run_max_events_is_a_raising_watchdog():
    eng = Engine()
    log = []
    eng.process(_ticker(eng, log, "a", 1, 1000))
    with pytest.raises(SimulationError, match="watchdog"):
        eng.run(max_events=25)
    assert eng.events_fired == 25
    eng.run()                            # the rest is still queued
    assert len(log) == 1000


def test_crash_at_fired_raises_at_the_exact_count():
    from repro.errors import SimulatedCrash
    eng = Engine()
    log = []
    eng.process(_ticker(eng, log, "a", 1, 100))
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
        eng.process(_ticker(eng, log, "a", 2, 30))
        eng.process(_ticker(eng, log, "b", 3, 20))
        eng.process(_ticker(eng, log, "c", 6, 10))
        eng.run(**kw)
        return log, eng.now, eng.events_fired

    assert run() == run(max_events=10**9) == run(until=60)
