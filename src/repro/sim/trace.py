"""Execution tracing: a waveform-style event log for the simulator.

A :class:`Tracer` collects timestamped events from the components that
opt in (the softcore's instruction stream and commit/abort decisions,
index pipeline admissions and completions).  Tracing is off by default
and costs nothing when disabled: the softcore's generated code carries
its per-instruction trace calls only when built under an enabled
tracer.  Enabled, it observes the same code path at the same simulated
times — a traced run's fingerprint, event count included, equals the
untraced one — and is the primary debugging tool for stored procedures
and pipeline behaviour:

    tracer = Tracer(categories={"softcore", "hash"})
    db = BionicDB(BionicConfig(tracer=tracer))
    ...
    print(tracer.format())

Events carry (time_ns, category, source, message); ``format`` renders
them as aligned columns, ``filter`` slices by category/source/window.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Set

__all__ = ["TraceEvent", "Tracer", "NULL_TRACER"]


@dataclass(frozen=True)
class TraceEvent:
    time_ns: float
    category: str
    source: str
    message: str


class Tracer:
    """Collects trace events for a chosen set of categories.

    Known categories: ``softcore`` (instruction execution, batch
    phases), ``hash`` / ``skiplist`` / ``bptree`` (requests entering
    and leaving an index pipeline), ``txn`` (commit/abort decisions).
    """

    def __init__(self, categories: Optional[Iterable[str]] = None,
                 capacity: int = 100_000):
        self.categories: Optional[Set[str]] = (
            set(categories) if categories is not None else None)
        self.capacity = capacity
        self.events: List[TraceEvent] = []
        self.dropped = 0
        self._clock = None  # bound by the system at construction

    def bind_clock(self, clock) -> None:
        self._clock = clock

    #: plain class attribute (not a property) so the hot-path guard
    #: ``if tracer.enabled`` is a single attribute load when disabled
    enabled = True

    def wants(self, category: str) -> bool:
        return self.categories is None or category in self.categories

    def emit(self, category: str, source: str, message: str) -> None:
        if not self.wants(category):
            return
        if len(self.events) >= self.capacity:
            self.dropped += 1
            return
        now = self._clock.engine.now if self._clock is not None else 0.0
        self.events.append(TraceEvent(now, category, source, message))

    # -- inspection --------------------------------------------------------
    def filter(self, category: Optional[str] = None,
               source: Optional[str] = None,
               since_ns: float = 0.0,
               until_ns: float = float("inf")) -> List[TraceEvent]:
        return [e for e in self.events
                if (category is None or e.category == category)
                and (source is None or e.source == source)
                and since_ns <= e.time_ns <= until_ns]

    def format(self, events: Optional[Sequence[TraceEvent]] = None) -> str:
        """Render ``events`` (every recorded event by default) as
        aligned columns."""
        events = self.events if events is None else events
        lines = [f"{e.time_ns:12.1f} ns  {e.category:<9s} {e.source:<16s} "
                 f"{e.message}" for e in events]
        if self.dropped:
            lines.append(f"... ({self.dropped} events dropped at capacity)")
        return "\n".join(lines)

    def clear(self) -> None:
        self.events.clear()
        self.dropped = 0


class _NullTracer:
    """The default: tracing disabled, every call a cheap no-op.

    ``events`` is an immutable empty tuple on purpose: a class-level
    mutable list here would be shared by every system using the null
    tracer, so one accidental append would leak into all of them.
    """

    enabled = False
    events: Sequence[TraceEvent] = ()

    def bind_clock(self, _clock) -> None:
        pass

    def wants(self, _category: str) -> bool:
        return False

    def emit(self, _category: str, _source: str, _message: str) -> None:
        pass


NULL_TRACER = _NullTracer()
