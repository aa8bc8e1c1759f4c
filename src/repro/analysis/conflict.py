"""Pairwise static conflict matrix over the procedure registry.

Two stored procedures conflict when their footprints
(:mod:`.footprint`) can touch the same record with at least one write.
Because the key abstraction keeps exact constants and ``RANGE_SCAN``
intervals, the comparison can often *decide* the question instead of
approximating it:

``must-serialize``
    the overlap is certain for every instance pair — e.g. two constant
    keys that are equal, or a constant point inside a constant range.
    Batching such a pair only grows the abort window: the second
    transaction's access is ordered behind the first one's write in
    every interleaving.
``may-conflict``
    the overlap depends on runtime inputs (anchored or opaque keys, or
    a range with a symbolic bound).  Timestamp ordering (§4.6) already
    serializes the colliding instances; no static decision is possible.
``commute``
    the footprints provably never intersect (disjoint tables, disjoint
    constant keys/ranges, or reads only).  These pairs can always be
    co-batched and even reordered freely.

The matrix is symmetric and includes the self-pairs (a procedure
conflicting with another instance of itself — the common case for
hot-key workloads).  It is a report only: the §4.5 batch former
compares the keys themselves (``Softcore._admit``) — an input cell the
matrix can only call ``may-conflict`` is a plain value by the time a
block is admitted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .footprint import Access, FootprintSummary

__all__ = [
    "MUST_SERIALIZE", "MAY_CONFLICT", "COMMUTE",
    "ConflictMatrix", "build_conflict_matrix",
]

MUST_SERIALIZE = "must-serialize"
MAY_CONFLICT = "may-conflict"
COMMUTE = "commute"

#: escalation order: a pair's verdict is the worst overlap of any
#: access pair
_RANK = {COMMUTE: 0, MAY_CONFLICT: 1, MUST_SERIALIZE: 2}

_SHORT = {MUST_SERIALIZE: "MUST", MAY_CONFLICT: "may", COMMUTE: "·"}


def _interval(a: Access) -> Optional[Tuple[int, int]]:
    """The exact key interval an access touches, when it is constant."""
    if a.key.kind != "const":
        return None
    lo = a.key.const
    if a.hi is None:
        return (lo, lo)
    if a.hi.kind == "const":
        return (lo, a.hi.const)
    return None                     # constant lo, symbolic hi


def _access_overlap(a: Access, b: Access) -> str:
    """Can ``a`` and ``b`` touch the same record?  ``must``/``may``/``no``."""
    if a.table != b.table:
        return "no"
    if a.kind == "local" or b.kind == "local":
        # replicated table: a write broadcasts to every copy, so it
        # certainly meets any other access to the table
        return "must"
    ia, ib = _interval(a), _interval(b)
    if ia is not None and ib is not None:
        lo = max(ia[0], ib[0])
        hi = min(ia[1], ib[1])
        return "must" if lo <= hi else "no"
    return "may"                    # anchored / opaque / symbolic bound


def _pair_verdict(a: FootprintSummary, b: FootprintSummary) -> str:
    verdict = COMMUTE
    for x in a.accesses:
        for y in b.accesses:
            if x.mode == "read" and y.mode == "read":
                continue
            overlap = _access_overlap(x, y)
            if overlap == "must":
                return MUST_SERIALIZE
            if overlap == "may":
                verdict = MAY_CONFLICT
    return verdict


@dataclass
class ConflictMatrix:
    """Symmetric procedure-pair conflict verdicts."""

    names: List[str] = field(default_factory=list)
    verdicts: Dict[Tuple[str, str], str] = field(default_factory=dict)

    def verdict(self, a: str, b: str) -> str:
        return self.verdicts[tuple(sorted((a, b)))]

    def row(self, name: str) -> Dict[str, str]:
        return {other: self.verdict(name, other) for other in self.names}

    def pairs(self, verdict: str) -> List[Tuple[str, str]]:
        return sorted(k for k, v in self.verdicts.items() if v == verdict)

    def format(self) -> str:
        width = max((len(n) for n in self.names), default=4)
        cols = [n[:8] for n in self.names]
        lines = ["conflict matrix (MUST = must-serialize, may = "
                 "may-conflict, · = commute):"]
        lines.append(" " * (width + 2) +
                     "  ".join(f"{c:>8}" for c in cols))
        for a in self.names:
            cells = [f"{_SHORT[self.verdict(a, b)]:>8}" for b in self.names]
            lines.append(f"  {a:<{width}}" + "  ".join([""] + cells))
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "procedures": list(self.names),
            "verdicts": {f"{a}|{b}": v
                         for (a, b), v in sorted(self.verdicts.items())},
        }


def build_conflict_matrix(
        summaries: Sequence[Tuple[str, FootprintSummary]]) -> ConflictMatrix:
    """Pairwise verdicts (self-pairs included) over named footprints."""
    matrix = ConflictMatrix(names=[name for name, _ in summaries])
    for i, (name_a, a) in enumerate(summaries):
        for name_b, b in summaries[i:]:
            matrix.verdicts[tuple(sorted((name_a, name_b)))] = \
                _pair_verdict(a, b)
    return matrix
