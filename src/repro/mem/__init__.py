"""Simulated-DRAM data layouts: records, transaction blocks, schemas."""

from .records import NULL_ADDR, Tower, TupleRecord, head_tower
from .schema import Catalog, IndexKind, SchemaError, TableSchema
from .txnblock import (
    BlockHeader, BlockLayout, TransactionBlock, TxnStatus, UndoEntry,
)

__all__ = [
    "NULL_ADDR", "Tower", "TupleRecord", "head_tower",
    "Catalog", "IndexKind", "SchemaError", "TableSchema",
    "BlockHeader", "BlockLayout", "TransactionBlock", "TxnStatus", "UndoEntry",
]
