"""A B+-tree — the baseline's Masstree stand-in.

Masstree is a trie of B+-trees; for fixed-width integer keys (all our
workloads) it degenerates to a single B+-tree layer, so a real B+-tree
is the right functional model.  Node fanout mirrors Masstree's 15-way
nodes; ``depth`` drives the probe cost model.
"""

from __future__ import annotations

import bisect
from typing import Any, Iterator, List, Optional, Tuple

__all__ = ["BPlusTree"]

FANOUT = 15


class _Leaf:
    __slots__ = ("keys", "values", "next")

    def __init__(self):
        self.keys: List[Any] = []
        self.values: List[Any] = []
        self.next: Optional["_Leaf"] = None


class _Inner:
    __slots__ = ("keys", "children")

    def __init__(self):
        self.keys: List[Any] = []
        self.children: List[Any] = []


class BPlusTree:
    """Sorted map with range scans over a linked leaf level."""

    def __init__(self, fanout: int = FANOUT):
        if fanout < 3:
            raise ValueError("fanout must be >= 3")
        self.fanout = fanout
        self._root: Any = _Leaf()
        self._depth = 1
        self._size = 0

    def __len__(self) -> int:
        return self._size

    @property
    def depth(self) -> int:
        return self._depth

    # -- lookup ----------------------------------------------------------
    def _find_leaf(self, key) -> _Leaf:
        node = self._root
        while isinstance(node, _Inner):
            idx = bisect.bisect_right(node.keys, key)
            node = node.children[idx]
        return node

    def get(self, key, default=None):
        leaf = self._find_leaf(key)
        idx = bisect.bisect_left(leaf.keys, key)
        if idx < len(leaf.keys) and leaf.keys[idx] == key:
            return leaf.values[idx]
        return default

    def __contains__(self, key) -> bool:
        sentinel = object()
        return self.get(key, sentinel) is not sentinel

    # -- insert -----------------------------------------------------------
    def insert(self, key, value) -> bool:
        """Insert; returns False (no-op) if the key already exists."""
        path: List[Tuple[_Inner, int]] = []
        node = self._root
        while isinstance(node, _Inner):
            idx = bisect.bisect_right(node.keys, key)
            path.append((node, idx))
            node = node.children[idx]
        idx = bisect.bisect_left(node.keys, key)
        if idx < len(node.keys) and node.keys[idx] == key:
            return False
        node.keys.insert(idx, key)
        node.values.insert(idx, value)
        self._size += 1
        # split upward while overflowing
        child: Any = node
        while len(child.keys) > self.fanout:
            sep, right = self._split(child)
            if path:
                parent, pidx = path.pop()
                parent.keys.insert(pidx, sep)
                parent.children.insert(pidx + 1, right)
                child = parent
            else:
                root = _Inner()
                root.keys = [sep]
                root.children = [child, right]
                self._root = root
                self._depth += 1
                break
        return True

    def put(self, key, value) -> None:
        """Insert or overwrite."""
        leaf = self._find_leaf(key)
        idx = bisect.bisect_left(leaf.keys, key)
        if idx < len(leaf.keys) and leaf.keys[idx] == key:
            leaf.values[idx] = value
        else:
            self.insert(key, value)

    @staticmethod
    def _split(node):
        mid = len(node.keys) // 2
        if isinstance(node, _Leaf):
            right = _Leaf()
            right.keys = node.keys[mid:]
            right.values = node.values[mid:]
            node.keys = node.keys[:mid]
            node.values = node.values[:mid]
            right.next = node.next
            node.next = right
            return right.keys[0], right
        right = _Inner()
        sep = node.keys[mid]
        right.keys = node.keys[mid + 1:]
        right.children = node.children[mid + 1:]
        node.keys = node.keys[:mid]
        node.children = node.children[:mid + 1]
        return sep, right

    # -- delete ------------------------------------------------------------
    def remove(self, key) -> bool:
        """Delete a key (leaves may underflow; acceptable for OLTP rows
        that are tombstoned rather than physically merged)."""
        leaf = self._find_leaf(key)
        idx = bisect.bisect_left(leaf.keys, key)
        if idx < len(leaf.keys) and leaf.keys[idx] == key:
            leaf.keys.pop(idx)
            leaf.values.pop(idx)
            self._size -= 1
            return True
        return False

    # -- scan ----------------------------------------------------------------
    def scan_from(self, key, count: int) -> List[Tuple[Any, Any]]:
        """Up to ``count`` (key, value) pairs with key >= ``key``."""
        out: List[Tuple[Any, Any]] = []
        leaf = self._find_leaf(key)
        idx = bisect.bisect_left(leaf.keys, key)
        while leaf is not None and len(out) < count:
            while idx < len(leaf.keys) and len(out) < count:
                out.append((leaf.keys[idx], leaf.values[idx]))
                idx += 1
            leaf = leaf.next
            idx = 0
        return out

    def scan_range(self, lo, hi, limit: Optional[int] = None
                   ) -> List[Tuple[Any, Any]]:
        """(key, value) pairs with ``lo <= key <= hi`` (inclusive both
        ends, matching the RANGE_SCAN instruction), at most ``limit``."""
        out: List[Tuple[Any, Any]] = []
        leaf = self._find_leaf(lo)
        idx = bisect.bisect_left(leaf.keys, lo)
        while leaf is not None:
            while idx < len(leaf.keys):
                if leaf.keys[idx] > hi:
                    return out
                if limit is not None and len(out) >= limit:
                    return out
                out.append((leaf.keys[idx], leaf.values[idx]))
                idx += 1
            leaf = leaf.next
            idx = 0
        return out

    def items(self) -> Iterator[Tuple[Any, Any]]:
        node = self._root
        while isinstance(node, _Inner):
            node = node.children[0]
        while node is not None:
            yield from zip(node.keys, node.values)
            node = node.next
