"""Table schemas and partition maps for the DORA-style partitioned DB.

The database is horizontally partitioned; each partition is owned by
exactly one partition worker (§3.1, §4.6).  A :class:`TableSchema`
names the table, chooses its index kind (hash for point access,
skiplist or B+ tree for range scans) and carries the partition-routing
function.
Replicated read-only tables (TPC-C's Item) are materialised in every
partition and always routed locally.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, KeysView, List, Optional
from zlib import crc32

from ..errors import BionicError

__all__ = ["IndexKind", "TableSchema", "Catalog", "SchemaError"]


class SchemaError(BionicError, ValueError):
    """Raised for schema misconfiguration."""


class IndexKind:
    HASH = "hash"
    SKIPLIST = "skiplist"
    BPTREE = "bptree"


def _default_partition(key: Any, n_partitions: int) -> int:
    """Default routing: a *process-stable* hash of the key.

    Integer keys route as ``key % n`` (what ``hash`` already did —
    small-int hashes are their value); everything else goes through
    CRC32 of the repr, because the builtin ``hash`` is salted per
    process for str/bytes and would re-shuffle partitions across runs.
    """
    if isinstance(key, int) and not isinstance(key, bool):
        return key % n_partitions
    return crc32(repr(key).encode("utf-8")) % n_partitions


@dataclass
class TableSchema:
    table_id: int
    name: str
    index_kind: str = IndexKind.HASH
    n_fields: int = 1
    hash_buckets: int = 1 << 16
    replicated: bool = False
    #: maps (key, n_partitions) -> partition id; ignored when replicated.
    partition_fn: Callable[[Any, int], int] = _default_partition
    #: declares partition_fn monotone in the key (contiguous key ranges
    #: land on one partition run).  A RANGE_SCAN only walks the *local*
    #: index of the partition owning its low key, so on a table without
    #: this property it silently misses matching keys homed elsewhere —
    #: the verifier warns about that combination.
    range_partitioned: bool = False

    def __post_init__(self):
        if self.index_kind not in (IndexKind.HASH, IndexKind.SKIPLIST,
                                   IndexKind.BPTREE):
            raise SchemaError(f"unknown index kind {self.index_kind!r}")
        if self.hash_buckets < 1:
            raise SchemaError("hash_buckets must be >= 1")

    def route(self, key: Any, n_partitions: int) -> Optional[int]:
        """Partition owning ``key``; None means "local" (replicated)."""
        if self.replicated:
            return None
        return self.partition_fn(key, n_partitions)


class Catalog:
    """The set of table schemas shared by all partitions."""

    def __init__(self, tables: Optional[List[TableSchema]] = None):
        self._tables: Dict[int, TableSchema] = {}
        for t in tables or []:
            self.add(t)

    def add(self, schema: TableSchema) -> TableSchema:
        if schema.table_id in self._tables:
            raise SchemaError(f"duplicate table id {schema.table_id}")
        self._tables[schema.table_id] = schema
        return schema

    def table(self, table_id: int) -> TableSchema:
        try:
            return self._tables[table_id]
        except KeyError:
            raise SchemaError(f"unknown table id {table_id}") from None

    def ids(self) -> KeysView[int]:
        """The defined table ids, a live view."""
        return self._tables.keys()

    def __iter__(self):
        return iter(self._tables.values())

    def __len__(self) -> int:
        return len(self._tables)
