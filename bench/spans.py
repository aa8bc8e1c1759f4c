"""In-memory spans around public calls, and the collector's own clock.

The benchmark measures the program from outside: a span is opened by
the driver around a call into ``repro`` (directly, or by wrapping a
public method on the one object under test so calls the program makes
to itself — ``FrontEnd`` calling ``db.submit`` — are seen too).  Spans
stay in memory and are written as Chrome trace-event JSON only when
asked.
"""

from __future__ import annotations

import gc
import json
from contextlib import contextmanager
from time import perf_counter

__all__ = ["Spans", "instrumented", "GcWatch"]

NAME, START, END, PARENT, BURST = range(5)


class Spans:
    """A log of ``[name, start, end, parent index, burst id]`` rows.

    A span's parent is whichever span was open when it started and its
    burst id is inherited from that parent, so every span of one burst
    shares an identifier.
    """

    def __init__(self):
        self.rows = []
        self._open = []

    def start(self, name, burst=None) -> int:
        parent = self._open[-1] if self._open else -1
        if burst is None and parent >= 0:
            burst = self.rows[parent][BURST]
        self.rows.append([name, perf_counter(), None, parent, burst])
        self._open.append(len(self.rows) - 1)
        return self._open[-1]

    def stop(self, index) -> float:
        row = self.rows[index]
        row[END] = perf_counter()
        self._open.pop()        # spans close innermost first
        return row[END] - row[START]

    @contextmanager
    def span(self, name, burst=None):
        index = self.start(name, burst)
        try:
            yield index
        finally:
            self.stop(index)

    def wrap(self, name, fn, profiler=None):
        """``fn`` timed as a span on every call; ``name`` may be a
        callable taking the call's arguments.  With ``profiler`` the
        inside of the call also runs under that ``cProfile.Profile``."""
        def timed(*args, **kwargs):
            index = self.start(name(*args, **kwargs) if callable(name)
                               else name)
            if profiler is not None:
                profiler.enable()
            try:
                return fn(*args, **kwargs)
            finally:
                if profiler is not None:
                    profiler.disable()
                self.stop(index)
        return timed

    # -- reading ----------------------------------------------------------
    def durations(self, prefix, within=None) -> list:
        """Durations of closed spans whose name starts with ``prefix``
        (optionally only descendants of span ``within``)."""
        out = []
        for i, row in enumerate(self.rows):
            if row[END] is None or not row[NAME].startswith(prefix):
                continue
            if within is not None and not self._descends(i, within):
                continue
            out.append(row[END] - row[START])
        return out

    def total(self, prefix, within=None) -> float:
        return sum(self.durations(prefix, within))

    def _descends(self, index, ancestor) -> bool:
        while index >= 0:
            index = self.rows[index][PARENT]
            if index == ancestor:
                return True
        return False

    def self_times(self) -> list:
        """Per span: its duration minus what its direct children cover."""
        out = [row[END] - row[START] for row in self.rows]
        for row in self.rows:
            if row[PARENT] >= 0:
                out[row[PARENT]] -= row[END] - row[START]
        return out

    def write_chrome_trace(self, path) -> None:
        """Chrome trace-event JSON (load in chrome://tracing, Perfetto)."""
        origin = self.rows[0][START] if self.rows else 0.0
        events = [{"name": row[NAME], "ph": "X", "pid": 1, "tid": 1,
                   "ts": (row[START] - origin) * 1e6,
                   "dur": (row[END] - row[START]) * 1e6,
                   "args": {"parent": row[PARENT], "burst": row[BURST]}}
                  for row in self.rows if row[END] is not None]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


@contextmanager
def instrumented(spans, obj, profiler=None, profiled=(), **methods):
    """Time public methods of ``obj`` for the duration of the block.

    ``methods`` maps a method name to a span name (or a callable
    building one from the call's arguments).  The wrappers are instance
    attributes shadowing the class's methods and are removed on exit.
    Methods named in ``profiled`` also run under ``profiler``.
    """
    for method, name in methods.items():
        setattr(obj, method, spans.wrap(
            name, getattr(obj, method),
            profiler if method in profiled else None))
    try:
        yield
    finally:
        for method in methods:
            delattr(obj, method)


class GcWatch:
    """Time spent inside the cyclic collector, by benchmark phase.

    Registered in ``gc.callbacks``; the collector itself is left at
    interpreter defaults — its share of load is a cost to be shown, not
    hidden.
    """

    def __init__(self):
        self.phase = None
        self.seconds = {}
        self.gen2_collections = 0
        self._started = 0.0

    def __call__(self, event, info):
        if event == "start":
            self._started = perf_counter()
        elif self.phase is not None:
            self.seconds[self.phase] = (self.seconds.get(self.phase, 0.0)
                                        + perf_counter() - self._started)
            if info["generation"] == 2:
                self.gen2_collections += 1

    def __enter__(self):
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self)
