"""Discrete-event simulation engine.

Everything in the BionicDB reproduction runs inside one
:class:`Engine`, as one of two kinds of actor.  Units woken by
arriving data — index pipeline stages, DRAM channels, the on-chip
fabric, the partition workers' background units and the whole
network front-end (sessions, NIC, pump, dispatch lanes, retries and
replay) — are *callbacks*: a work item calls a function at an instant.
Actors that read best as straight-line code — the softcore, the
software baseline's CPU cores, the figures' closed-loop client and the
index pipelines' rare structural paths — are Python *generators*
stepped by :meth:`Engine.follow`: a body yields a delay (a plain
number, in the engine's time unit) or an :class:`Event`, and is
resumed when the delay has passed or the event fires.  An exception
out of either kind of actor leaves :meth:`Engine.run` at the instant
it is raised.

The engine is implemented from scratch so the simulation core has no
external dependencies and stays small enough to audit.  Time is a
float measured in **nanoseconds**; clock domains
(:mod:`repro.sim.clock`) convert cycles to nanoseconds.

Hot-path layout
---------------
The engine executes tens of thousands of host operations per simulated
microsecond, so the scheduling core is written for throughput while
firing work in exactly the ``(when, seq)`` order a single
sequence-numbered heap would (``tests/test_properties_sync.py`` holds
it to that order on random schedules):

* Work items are ``(when, seq, fn, arg)`` tuples; firing one is a
  single call ``fn(arg)``.  Full :class:`Event` objects only exist
  where a generator waits on one; everything else (delay wake-ups,
  pipeline stage bodies, memory completions delivered by callback) is
  scheduled closure-free through :meth:`Engine._schedule_fn` with a
  *pre-bound* method, so the common case allocates one tuple.
* Work due at the **current** time goes onto a FIFO ready-deque instead
  of round-tripping through the heap.  Heap entries carrying the same
  timestamp always predate (in sequence order) anything on the deque —
  they were pushed before the clock reached that instant, and same-time
  scheduling never touches the heap — so an instant is "every heap
  entry stamped T in sequence order, then the deque until it is empty".
  :meth:`Engine.run` walks it with one loop, which takes the lower
  sequence number of the two heads and checks ``until``, the watchdog
  and a crash point at every firing.
"""

from __future__ import annotations

import gc
import heapq
from collections import deque
from contextlib import contextmanager
from functools import partial
from typing import Any, Callable, Generator, Iterator, Optional

from ..errors import BionicError, SimulatedCrash

__all__ = [
    "Engine",
    "Event",
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


def _ended(_arg: Any) -> None:
    """What a generator run by :meth:`Engine.start` does on return."""


class Event:
    """A one-shot occurrence a generator can wait on.

    An event is *triggered* at most once, with :meth:`succeed`; its
    callbacks then run, with the event, one ready-deque hop later (or
    at once, for :meth:`succeed_now`).  A generator stepped by
    :meth:`Engine.follow` that yields the event is one of them.
    """

    __slots__ = ("engine", "callbacks", "_value", "triggered")

    def __init__(self, engine: "Engine"):
        self.engine = engine
        self.callbacks: Optional[list] = []
        self._value: Any = None
        self.triggered = False

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
        self.triggered = True
        self._value = value
        self.engine._fire(self)


class Engine:
    """The event loop: a time-ordered heap plus a same-time ready-deque.

    Work items are ``(when, seq, fn, arg)``; ``fn(arg)`` fires one item.
    Events fire through the pre-bound ``self._fire``; generators resume
    through the pre-bound ``self.follow``.  The
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
        self._follow_cb: Callable = self.follow

    # -- public API ------------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def start(self, gen: Generator) -> None:
        """Run ``gen`` on :meth:`follow`, taking its first step one
        ready-deque hop from now."""
        self._schedule_fn(self.now, self._follow_cb, (gen, _ended, None))

    def follow(self, job: tuple, value: Any = None) -> None:
        """Send ``value`` into the generator of ``job = (gen, then,
        arg)``, run it to its next wait and arrange its resumption;
        call ``then(arg)`` once it returns.

        A delay ``d`` resumes it with ``None`` as a work item at
        ``now + d``; an :class:`Event` resumes it with the event's
        value inside the event's firing (a memory completion's, for a
        port read).  An exception out of the generator leaves
        :meth:`run` at once."""
        try:
            wait = job[0].send(value)
        except StopIteration:
            job[1](job[2])
            return
        if isinstance(wait, Event):
            wait.callbacks.append(partial(self._follow_event, job))
            return
        if wait < 0:
            raise SimulationError(f"negative delay: {wait}")
        self._schedule_fn(self.now + wait, self._follow_cb, job)

    def _follow_event(self, job: tuple, event: Event) -> None:
        self.follow(job, event._value)

    def call_fn_at(self, when: float, fn: Callable[[Any], None],
                   arg: Any = None) -> None:
        """Run ``fn(arg)`` at absolute time ``when`` (≥ now).

        The caller passes a pre-bound method and its argument, so no
        relay lambda (and no closure cell) is allocated.
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
        """Run until the queues drain or simulated time reaches ``until``,
        and return ``now``.  With ``until`` the clock ends at
        ``max(now, until)``: a past ``until`` never moves it back.

        ``max_events`` is a watchdog: if more than that many events fire
        in this call, raise :class:`SimulationError` instead of spinning
        the host forever on a runaway process (e.g. a stored procedure
        branching in an unconditional loop, which makes simulated
        progress on every iteration and so never trips ``until``).

        An armed ``crash_at_fired`` raises :class:`SimulatedCrash` once
        that many events have fired (the machine-dies hook); a callback
        may arm it mid-run.  One loop serves every combination of the
        three, none of them included.

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
                    break
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
    def _schedule_fn(self, when: float, fn: Callable[[Any], None],
                     arg: Any) -> None:
        seq = self._seq = self._seq + 1
        if when == self.now:
            self._ready.append((seq, fn, arg))
        else:
            heapq.heappush(self._heap, (when, seq, fn, arg))

    def _dispatch(self, event: Event) -> None:
        """Queue a freshly-triggered event's callbacks at the current
        time, which always lands on the ready-deque."""
        seq = self._seq = self._seq + 1
        self._ready.append((seq, self._fire_cb, event))

    def _fire(self, event: Event) -> None:
        callbacks = event.callbacks
        event.callbacks = None
        if callbacks:
            if len(callbacks) == 1:
                callbacks[0](event)
            else:
                for cb in callbacks:
                    cb(event)
