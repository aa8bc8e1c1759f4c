"""Discrete-event simulation engine.

Everything in the BionicDB reproduction runs inside one
:class:`Engine`, as one of two kinds of actor.  Hardware units woken by
arriving data — index pipeline stages, DRAM channels, the on-chip
fabric and the partition workers' background units — are *callbacks*:
a work item calls a function at an instant.  The softcore, the
front-end's pump, deliveries, sessions, lanes and replay, the software
baseline's CPU cores and the figures' closed-loop client are
*processes*: a Python generator that yields :class:`Event`
objects (or plain numbers, treated as delays in the engine's time
unit) and is resumed when the yielded event fires.

The design follows the familiar SimPy structure but is implemented from
scratch so the simulation core has no external dependencies and stays
small enough to audit.  Time is a float measured in **nanoseconds**;
clock domains (:mod:`repro.sim.clock`) convert cycles to nanoseconds.

Hot-path layout
---------------
The engine executes tens of thousands of host operations per simulated
microsecond, so the scheduling core is written for throughput while
firing work in exactly the ``(when, seq)`` order a single
sequence-numbered heap would (``tests/test_properties_sync.py`` holds
it to that order on random schedules):

* Work items are ``(when, seq, fn, arg)`` tuples; firing one is a
  single call ``fn(arg)``.  Full :class:`Event` objects only exist
  where the API hands one to user code — internal resumptions (process
  kicks, delay wake-ups, memory completions) are scheduled closure-free
  through :meth:`Engine._schedule_fn` with a *pre-bound* method, so the
  common case allocates one tuple instead of an ``Event`` + ``list`` +
  ``lambda`` + bound method.
* Work due at the **current** time goes onto a FIFO ready-deque instead
  of round-tripping through the heap.  Heap entries carrying the same
  timestamp always predate (in sequence order) anything on the deque —
  they were pushed before the clock reached that instant, and same-time
  scheduling never touches the heap — so an instant is "every heap
  entry stamped T in sequence order, then the deque until it is empty",
  which is how :meth:`Engine.run` walks it.
* A process that yields a plain number never materialises a Timeout at
  all: the resumption is scheduled as a callback guarded by a per-wait
  epoch (the epoch is also the O(1) :meth:`Process.kill` tombstone).
"""

from __future__ import annotations

import gc
import heapq
from collections import deque
from contextlib import contextmanager
from heapq import heappush as _heappush
from typing import Any, Callable, Generator, Iterator, Optional

from ..errors import BionicError, SimulatedCrash

__all__ = [
    "Engine",
    "Event",
    "Timeout",
    "Process",
    "SimulationError",
    "collector_quiesced",
]


class SimulationError(BionicError, RuntimeError):
    """Raised for illegal engine operations (double trigger, etc.)."""


@contextmanager
def collector_quiesced(collect_on_exit: bool) -> Iterator[None]:
    """Hold the cyclic collector off for a phase that frees nothing it
    could find, and restore its prior state on exit.

    Two phases qualify, and they differ in what exit should do:

    * A bulk load (``collect_on_exit=True``) allocates containers by
      the million and frees none, so every generational pass it
      triggers re-walks the image loaded so far and finds nothing — at
      paper scale that was 18 full passes and half the load time.  If
      the collector was running, one full collection on exit moves what
      the load left tracked into the oldest generation at once; without
      it the first young passes after the load would each walk it,
      inside whatever the caller does next.  (``gc.freeze()`` would
      skip even that pass, but the frozen image of a database that is
      later dropped — its core is cyclic — would never be reclaimed.)
    * A drain (``collect_on_exit=False``, :meth:`Engine.run`) allocates
      work items, events and generator frames that all die by reference
      count: over every benchmark workload the collector reclaimed 0
      objects in any generation of any run-phase pass
      (``tests/test_quiet_drain.py`` holds that as a test), yet a full
      pass walks the whole loaded database.  A closing collection per
      drain would cost more than the passes it replaces, so there is
      none; whatever a drain did leave cyclic waits for the next
      ordinary pass once the collector is back on.

    Nested uses see the collector already off and do nothing.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()
            if collect_on_exit:
                gc.collect()


def _invoke(fn: Callable[[], None]) -> None:
    """Adapter so zero-argument ``call_at`` thunks fit ``fn(arg)`` items."""
    fn()


#: marker for a process waiting on an anonymous numeric delay (no Event)
_DELAY = object()


class Event:
    """A one-shot occurrence that processes can wait on.

    An event is *triggered* at most once, either with :meth:`succeed`
    (delivering ``value`` to waiters) or :meth:`fail` (raising the given
    exception inside waiters).
    """

    __slots__ = ("engine", "callbacks", "_value", "_exc", "triggered", "_scheduled")

    def __init__(self, engine: "Engine"):
        self.engine = engine
        self.callbacks: Optional[list] = []
        self._value: Any = None
        self._exc: Optional[BaseException] = None
        self.triggered = False
        self._scheduled = False

    # -- inspection ------------------------------------------------------
    @property
    def value(self) -> Any:
        if not self.triggered:
            raise SimulationError("event value read before trigger")
        if self._exc is not None:
            raise self._exc
        return self._value

    @property
    def ok(self) -> bool:
        return self.triggered and self._exc is None

    # -- triggering ------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        if self.triggered:
            raise SimulationError("event already triggered")
        self.triggered = True
        self._value = value
        self.engine._dispatch(self)
        return self

    def succeed_now(self, value: Any = None) -> None:
        """Trigger and run the callbacks inside the caller's own firing
        instead of queueing a dispatch — for a caller that *is* the
        work item delivering the value (a memory completion)."""
        if self.triggered:
            raise SimulationError("event already triggered")
        self._value = value
        self._scheduled = True
        self.engine._fire(self)

    def fail(self, exc: BaseException) -> "Event":
        if self.triggered:
            raise SimulationError("event already triggered")
        if not isinstance(exc, BaseException):
            raise TypeError("fail() requires an exception instance")
        self.triggered = True
        self._exc = exc
        self.engine._dispatch(self)
        return self


class Timeout(Event):
    """An event that fires automatically ``delay`` time units from now."""

    __slots__ = ()

    def __init__(self, engine: "Engine", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        super().__init__(engine)
        self._value = value
        engine._schedule_at(engine.now + delay, self)


class Process(Event):
    """Runs a generator; as an Event it fires when the generator returns.

    The generator's ``return`` value becomes the event value.  If the
    generator raises, the process event fails with that exception, which
    propagates to any process waiting on it.

    ``_resume`` / ``_delay_cb`` hold bound methods created once at
    construction so the wait/wake cycle never re-binds them;
    ``_delay_epoch`` tombstones stale delay wake-ups in O(1) and
    ``_dead`` tombstones one stale event callback after a kill
    (replacing the old O(n) ``callbacks.remove`` scan).
    """

    __slots__ = ("_gen", "_waiting_on", "name", "_resume", "_delay_cb",
                 "_dead", "_delay_epoch")

    def __init__(self, engine: "Engine", gen: Generator, name: str = ""):
        super().__init__(engine)
        self._gen = gen
        self._waiting_on: Optional[Event] = None
        self._dead: Optional[Event] = None
        self._delay_epoch = 0
        self.name = name or getattr(gen, "__name__", "process")
        self._resume: Callable = self._do_resume
        self._delay_cb: Callable = self._delay_resume
        # Kick off on the next dispatch round at the current time.
        seq = engine._seq = engine._seq + 1
        engine._ready.append((seq, self._kick, None))

    def kill(self, exc: BaseException) -> None:
        """Throw ``exc`` into the process at the current time — the
        crash-injection hook for modelling a hardware unit dying
        mid-flight."""
        if not isinstance(exc, BaseException):
            raise TypeError("kill() requires an exception instance")
        self._throw_in(exc)

    def _throw_in(self, exc: BaseException) -> None:
        if self.triggered:
            return
        target = self._waiting_on
        if target is _DELAY:
            # O(1) tombstone: the pending wake-up's epoch no longer matches
            self._delay_epoch += 1
        elif (target is not None and not target.triggered
                and target.callbacks is not None):
            # O(1) tombstone: _do_resume swallows one firing of this event
            self._dead = target
        self._waiting_on = None
        engine = self.engine
        engine._schedule_fn(engine.now, self._throw_step, exc)

    # -- internal --------------------------------------------------------
    def _kick(self, _arg: Any) -> None:
        self._step(None, False)

    def _throw_step(self, exc: BaseException) -> None:
        self._step(exc, True)

    def _delay_resume(self, epoch: int) -> None:
        if epoch != self._delay_epoch or self.triggered:
            return
        self._waiting_on = None
        self._step(None, False)

    def _do_resume(self, event: Event) -> None:
        if event is self._dead:
            self._dead = None
            return
        self._waiting_on = None
        exc = event._exc
        if exc is None:
            self._step(event._value, False)
        else:
            self._step(exc, True)

    def _step(self, value: Any, throw: bool) -> None:
        if self.triggered:
            return
        gen = self._gen
        try:
            if throw:
                yielded = gen.throw(value)
            else:
                yielded = gen.send(value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - propagate to waiters
            self.fail(exc)
            return
        cls = yielded.__class__
        if cls is float or cls is int:
            # inlined _wait_delay: the single hottest path in the system
            if yielded < 0:
                raise ValueError(f"negative delay: {yielded}")
            engine = self.engine
            self._waiting_on = _DELAY
            epoch = self._delay_epoch = self._delay_epoch + 1
            now = engine.now
            when = now + yielded
            seq = engine._seq = engine._seq + 1
            if when == now:
                engine._ready.append((seq, self._delay_cb, epoch))
            else:
                _heappush(engine._heap, (when, seq, self._delay_cb, epoch))
            return
        if isinstance(yielded, Event):
            self._waiting_on = yielded
            if yielded.triggered:
                # Already fired: resume on the next dispatch round so other
                # same-time callbacks run first (prevents starvation loops).
                engine = self.engine
                seq = engine._seq = engine._seq + 1
                engine._ready.append((seq, self._resume, yielded))
            else:
                yielded.callbacks.append(self._resume)
            return
        if isinstance(yielded, (int, float)):  # bool / exotic numeric types
            self._wait_delay(yielded)
            return
        self.fail(SimulationError(
            f"process {self.name!r} yielded {yielded!r}; expected Event or delay"
        ))

    def _wait_delay(self, delay: float) -> None:
        """Anonymous delay: no Timeout object, just an epoch-guarded wake."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        self._waiting_on = _DELAY
        self._delay_epoch += 1
        engine = self.engine
        engine._schedule_fn(engine.now + delay, self._delay_cb,
                            self._delay_epoch)


class Engine:
    """The event loop: a time-ordered heap plus a same-time ready-deque.

    Work items are ``(when, seq, fn, arg)``; ``fn(arg)`` fires one item.
    Events fire through the pre-bound ``self._fire``; internal
    resumptions are scheduled directly as bound-method callbacks.  The
    ready-deque holds items due at the *current* time in FIFO (sequence)
    order; heap entries stamped with the current time always carry lower
    sequence numbers than anything on the deque (see module docstring),
    so :meth:`run` reproduces the heap-only firing order exactly.
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: list = []
        self._seq = 0
        self._ready: deque = deque()
        #: lifetime count of fired events (watchdog bookkeeping)
        self.events_fired: int = 0
        #: crash hook: when set, the run loop raises
        #: :class:`~repro.errors.SimulatedCrash` once ``events_fired``
        #: reaches this count — the whole-machine-dies fault site
        self.crash_at_fired: Optional[int] = None
        self._fire_cb: Callable = self._fire

    # -- public API ------------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, gen: Generator, name: str = "") -> Process:
        return Process(self, gen, name=name)

    def call_at(self, when: float, fn: Callable[[], None]) -> None:
        """Run ``fn`` at absolute time ``when`` (≥ now)."""
        if when < self.now:
            raise SimulationError(f"call_at in the past: {when} < {self.now}")
        self._schedule_fn(when, _invoke, fn)

    def call_after(self, delay: float, fn: Callable[[], None]) -> None:
        self.call_at(self.now + delay, fn)

    def call_fn_at(self, when: float, fn: Callable[[Any], None],
                   arg: Any = None) -> None:
        """Closure-free :meth:`call_at`: run ``fn(arg)`` at ``when``.

        The hot-path variant — the caller passes a pre-bound method and
        its argument, so no relay lambda (and no closure cell) is ever
        allocated.
        """
        if when < self.now:
            raise SimulationError(f"call_at in the past: {when} < {self.now}")
        self._schedule_fn(when, fn, arg)

    @property
    def idle(self) -> bool:
        """True when no work is queued (heap and ready-deque drained)."""
        return not self._heap and not self._ready

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> float:
        """Run until the queues drain or simulated time reaches ``until``.

        ``max_events`` is a watchdog: if more than that many events fire
        in this call, raise :class:`SimulationError` instead of spinning
        the host forever on a runaway process (e.g. a stored procedure
        branching in an unconditional loop, which makes simulated
        progress on every iteration and so never trips ``until``).

        An armed ``crash_at_fired`` raises :class:`SimulatedCrash` once
        that many events have fired (the machine-dies hook).

        The cyclic collector is off while the loop runs
        (:func:`collector_quiesced`) and back in its prior state on
        every exit, an exception out of a callback included.
        """
        with collector_quiesced(collect_on_exit=False):
            return self._run(until, max_events)

    def _run(self, until: Optional[float], max_events: Optional[int]) -> float:
        fired = 0
        heap = self._heap
        ready = self._ready
        heappop = heapq.heappop
        # events_fired is kept in a local inside the loop (one attribute
        # store per firing is measurable at paper scale); callbacks never
        # read it mid-run — the only consumer, _maybe_crash, gets a
        # synced value, and the finally republishes it on every exit.
        base = self.events_fired
        try:
            if (until is None and max_events is None
                    and self.crash_at_fired is None):
                # Run to idle with nothing to watch for: an instant is
                # every heap entry stamped T in sequence order, then the
                # deque until it is empty (nothing ever pushes a heap
                # entry stamped ``now``).  A crash point must be armed
                # before run(), not from a callback.
                popleft = ready.popleft
                now = self.now
                while True:
                    while heap and heap[0][0] <= now:
                        _when, _seq, fn, arg = heappop(heap)
                        fired += 1
                        fn(arg)
                    while ready:
                        _seq, fn, arg = popleft()
                        fired += 1
                        fn(arg)
                    if not heap:
                        return now
                    now = self.now = heap[0][0]
            unbounded = until is None
            unwatched = max_events is None
            while True:
                if ready:
                    # Same-time heap entries (lower seq) fire before the deque.
                    if heap and heap[0][0] <= self.now and heap[0][1] < ready[0][0]:
                        from_heap = True
                        when = heap[0][0]
                    else:
                        from_heap = False
                        when = self.now
                elif heap:
                    from_heap = True
                    when = heap[0][0]
                else:
                    break
                if not unbounded and when > until:
                    self.now = until
                    return self.now
                if not unwatched and fired >= max_events:
                    raise SimulationError(
                        f"watchdog: {fired} events fired without the heap "
                        f"draining — runaway process?", now_ns=self.now,
                        pending=len(heap) + len(ready))
                if from_heap:
                    when, _seq, fn, arg = heappop(heap)
                    self.now = when
                else:
                    _seq, fn, arg = ready.popleft()
                fired += 1
                fn(arg)
                if self.crash_at_fired is not None:
                    self.events_fired = base + fired
                    self._maybe_crash()
        finally:
            self.events_fired = base + fired
        if not unbounded:
            self.now = max(self.now, until)
        return self.now

    def _maybe_crash(self) -> None:
        if (self.crash_at_fired is not None
                and self.events_fired >= self.crash_at_fired):
            self.crash_at_fired = None    # a machine crashes once
            raise SimulatedCrash("injected machine crash",
                                 site="machine.crash",
                                 events_fired=self.events_fired,
                                 now_ns=self.now)

    # -- internal --------------------------------------------------------
    def _schedule_at(self, when: float, event: Event) -> None:
        seq = self._seq = self._seq + 1
        event._scheduled = True
        if when == self.now:
            self._ready.append((seq, self._fire_cb, event))
        else:
            heapq.heappush(self._heap, (when, seq, self._fire_cb, event))

    def _schedule_fn(self, when: float, fn: Callable[[Any], None],
                     arg: Any) -> None:
        seq = self._seq = self._seq + 1
        if when == self.now:
            self._ready.append((seq, fn, arg))
        else:
            heapq.heappush(self._heap, (when, seq, fn, arg))

    def _dispatch(self, event: Event) -> None:
        """Queue a freshly-triggered event's callbacks at the current time.

        Triggering always queues at ``now``, which always lands on the
        ready-deque (inlined :meth:`_schedule_at`).
        """
        if event._scheduled:
            return  # it is queued already; callbacks run when popped
        event._scheduled = True
        seq = self._seq = self._seq + 1
        self._ready.append((seq, self._fire_cb, event))

    def _fire(self, event: Event) -> None:
        # every event reaching here is either triggered (succeed/fail)
        # or a Timeout whose trigger is this very firing
        event.triggered = True
        callbacks = event.callbacks
        event.callbacks = None
        if callbacks:
            if len(callbacks) == 1:
                callbacks[0](event)
            else:
                for cb in callbacks:
                    cb(event)
