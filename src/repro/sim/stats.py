"""Lightweight statistics counters shared by all simulated components."""

from __future__ import annotations

import math
from typing import Dict, Sequence

__all__ = ["Counter", "StatsRegistry", "nearest_rank"]


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


class StatsRegistry:
    """Hierarchical registry so components can be audited after a run."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}

    def counter(self, name: str) -> Counter:
        if name not in self._counters:
            self._counters[name] = Counter(name)
        return self._counters[name]

    def snapshot(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for name, c in self._counters.items():
            out[name] = c.value
        return out

    def by_prefix(self, prefix: str) -> Dict[str, float]:
        return {k: v for k, v in self.snapshot().items() if k.startswith(prefix)}
