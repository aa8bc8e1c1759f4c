"""The softcore: stored-procedure execution engine."""

from .catalogue import Catalogue, ProcedureEntry
from .context import TxnContext, WriteSetEntry
from .core import ExecutionError, Softcore, SoftcoreConfig

__all__ = [
    "Catalogue", "ProcedureEntry", "TxnContext", "WriteSetEntry",
    "ExecutionError", "Softcore", "SoftcoreConfig",
]
