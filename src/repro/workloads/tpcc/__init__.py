"""TPC-C (NewOrder + Payment mix) for BionicDB and the baseline."""

from . import schema
from .procedures import (
    MAX_OL_CNT, MIN_OL_CNT, PROC_DELIVERY, PROC_NEWORDER_BASE,
    PROC_ORDERSTATUS, PROC_PAYMENT, PROC_STOCKLEVEL,
    delivery_layout, delivery_procedure, neworder_layout,
    neworder_procedure, orderstatus_layout, orderstatus_procedure,
    payment_layout, payment_procedure, stocklevel_layout,
    stocklevel_procedure,
)
from .schema import TpccConfig, tpcc_schemas
from .workload import TpccWorkload, nurand, tpcc_rows

__all__ = [
    "schema", "MAX_OL_CNT", "MIN_OL_CNT", "PROC_DELIVERY",
    "PROC_NEWORDER_BASE", "PROC_ORDERSTATUS", "PROC_PAYMENT",
    "PROC_STOCKLEVEL", "delivery_layout", "delivery_procedure",
    "neworder_layout", "neworder_procedure", "orderstatus_layout",
    "orderstatus_procedure", "payment_layout", "payment_procedure",
    "stocklevel_layout", "stocklevel_procedure", "TpccConfig",
    "tpcc_schemas", "TpccWorkload", "nurand", "tpcc_rows",
]
