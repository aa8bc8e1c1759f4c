"""Lightweight statistics counters shared by all simulated components."""

from __future__ import annotations

import math
from typing import Dict, Sequence

__all__ = ["Counter", "Histogram", "StatsRegistry", "nearest_rank"]


def nearest_rank(sorted_values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of an already-sorted sequence.

    ``p`` is in (0, 100].  Kept integer-exact: the rank is a true
    ``ceil`` rather than the float ``//`` arithmetic it replaces.
    """
    if not sorted_values:
        return 0.0
    if not 0 < p <= 100:
        raise ValueError("percentile must be in (0, 100]")
    rank = max(1, math.ceil(len(sorted_values) * p / 100))
    return sorted_values[rank - 1]


class Counter:
    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def add(self, n: int = 1) -> None:
        self.value += n

    def reset(self) -> None:
        self.value = 0


class Histogram:
    """Streaming histogram: count / sum / min / max / mean."""

    __slots__ = ("name", "count", "total", "min", "max")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, x: float) -> None:
        self.count += 1
        self.total += x
        if x < self.min:
            self.min = x
        if x > self.max:
            self.max = x

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def reset(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")


class StatsRegistry:
    """Hierarchical registry so components can be audited after a run."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        if name not in self._counters:
            self._counters[name] = Counter(name)
        return self._counters[name]

    def histogram(self, name: str) -> Histogram:
        if name not in self._histograms:
            self._histograms[name] = Histogram(name)
        return self._histograms[name]

    def snapshot(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for name, c in self._counters.items():
            out[name] = c.value
        for name, h in self._histograms.items():
            out[f"{name}.count"] = h.count
            out[f"{name}.mean"] = h.mean
        return out

    def reset(self) -> None:
        for c in self._counters.values():
            c.reset()
        for h in self._histograms.values():
            h.reset()

    def by_prefix(self, prefix: str) -> Dict[str, float]:
        return {k: v for k, v in self.snapshot().items() if k.startswith(prefix)}
