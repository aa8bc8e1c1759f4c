"""Drives the Silo baseline with the same workloads as BionicDB.

The YCSB and TPC-C generators emit :class:`repro.workloads.TxnSpec`
descriptors; this module loads the rows BionicDB loads, from the same
row generators, and turns each spec into a transaction body, so both
systems execute identical request streams over identical data
(§5.3/§5.4 comparisons).  Replayed in BionicDB's commit order, the
bodies also reproduce its final rows (``tests/oracle.py``).
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from ..workloads.tpcc import schema as T
from ..workloads.tpcc.schema import TpccConfig
from ..workloads.tpcc.workload import tpcc_rows
from ..workloads.ycsb import TxnSpec, YCSB_TABLE, YcsbConfig, ycsb_columns
from .silo import IndexStructure, SiloEngine, SiloReport, SiloTable, SiloTxn

__all__ = ["SiloYcsb", "SiloTpcc"]

# TPC-C row sizes in bytes (from the spec's record layouts)
_TPCC_ROW_BYTES = {
    T.WAREHOUSE: 89, T.DISTRICT: 95, T.CUSTOMER: 655, T.ITEM: 82,
    T.STOCK: 306, T.ORDERS: 24, T.NEW_ORDER: 8, T.ORDER_LINE: 54,
    T.HISTORY: 46,
}


class SiloYcsb:
    """YCSB over Silo; the usertable structure is selectable so the
    Figure 11d scan comparison can run Masstree vs software skiplist."""

    #: the paper's scale: 300 K rows per partition.  The cost model is
    #: pinned to it so scaled-down functional runs still see paper-scale
    #: cache behaviour.
    PAPER_ROWS_PER_PARTITION = 300_000

    def __init__(self, config: Optional[YcsbConfig] = None, n_cores: int = 4,
                 structure: str = IndexStructure.MASSTREE):
        self.config = config or YcsbConfig()
        self.silo = SiloEngine(n_cores)
        model_rows = self.PAPER_ROWS_PER_PARTITION * self.config.n_partitions
        self.table = self.silo.create_table(SiloTable(
            YCSB_TABLE, "usertable", structure=structure, row_bytes=1024,
            expected_rows=max(model_rows, self.config.total_records)))

    def install(self) -> None:
        for table_id, keys, fields in ycsb_columns(self.config):
            for key, row in zip(keys, fields):
                self.silo.load(table_id, key, list(row))

    # -- spec -> body translation ---------------------------------------
    def body_for(self, spec: TxnSpec) -> Callable[[SiloTxn], None]:
        if spec.kind == "read":
            keys = spec.keys

            def read_body(txn: SiloTxn) -> None:
                for key in keys:
                    txn.read(self.table, key)
            return read_body
        if spec.kind == "rmw":
            keys = spec.keys
            values = spec.inputs[len(keys):]

            def rmw_body(txn: SiloTxn) -> None:
                for key, value in zip(keys, values):
                    txn.read(self.table, key)
                    txn.write(self.table, key, [value])
            return rmw_body
        if spec.kind == "scan":
            start = spec.keys[0]
            count = self.config.scan_length

            def scan_body(txn: SiloTxn) -> None:
                txn.scan(self.table, start, count)
            return scan_body
        if spec.kind == "mix":
            keys = spec.keys
            n_upd = len(spec.inputs) - len(keys)
            n_reads = len(keys) - n_upd
            values = spec.inputs[len(keys):]

            def mix_body(txn: SiloTxn) -> None:
                for key in keys[:n_reads]:
                    txn.read(self.table, key)
                for key, value in zip(keys[n_reads:], values):
                    txn.read(self.table, key)
                    txn.write(self.table, key, [value])
            return mix_body
        raise ValueError(f"unknown YCSB spec kind {spec.kind!r}")

    def run(self, specs: Sequence[TxnSpec]) -> SiloReport:
        return self.silo.run_transactions([self.body_for(s) for s in specs])


class SiloTpcc:
    """TPC-C (NewOrder + Payment) over Silo."""

    def __init__(self, config: Optional[TpccConfig] = None, n_cores: int = 4):
        self.config = config or TpccConfig()
        self.silo = SiloEngine(n_cores)
        cfg = self.config
        # cost-model scale is pinned to full TPC-C (items=100 K,
        # customers=3000/district) so reduced functional scales still
        # price like the paper's databases
        full_items = max(cfg.items, 100_000)
        full_customers = max(cfg.customers_per_district, 3000)
        expected = {
            T.WAREHOUSE: cfg.n_warehouses,
            T.DISTRICT: cfg.n_warehouses * cfg.districts_per_warehouse,
            T.CUSTOMER: (cfg.n_warehouses * cfg.districts_per_warehouse
                         * full_customers),
            T.ITEM: full_items,
            T.STOCK: cfg.n_warehouses * full_items,
            T.ORDERS: 1 << 18, T.NEW_ORDER: 1 << 18,
            T.ORDER_LINE: 1 << 21, T.HISTORY: 1 << 18,
        }
        self.tables = {}
        for table_id, rows in expected.items():
            # ORDERS/ORDER_LINE need ordered access in full TPC-C; the
            # NewOrder/Payment mix only does point ops, so Masstree
            # everywhere mirrors Silo's actual storage.
            self.tables[table_id] = self.silo.create_table(SiloTable(
                table_id, f"t{table_id}", structure=IndexStructure.MASSTREE,
                row_bytes=_TPCC_ROW_BYTES[table_id], expected_rows=rows))
        self._next_hid = 0

    def install(self) -> None:
        for table_id, key, fields in tpcc_rows(self.config):
            self.silo.load(table_id, key, fields)

    # -- spec -> body translation ------------------------------------------
    def body_for(self, spec: TxnSpec) -> Callable[[SiloTxn], None]:
        if spec.kind == "payment":
            return self._payment_body(spec)
        if spec.kind == "neworder":
            return self._neworder_body(spec)
        raise ValueError(f"unknown TPC-C spec kind {spec.kind!r}")

    def _payment_body(self, spec: TxnSpec) -> Callable[[SiloTxn], None]:
        w, d, cw, cd, c, amount, h_key = spec.keys
        tables = self.tables

        def body(txn: SiloTxn) -> None:
            wrow = txn.read(tables[T.WAREHOUSE], T.warehouse_key(w),
                            copy_payload=False)
            txn.write(tables[T.WAREHOUSE], T.warehouse_key(w),
                      [wrow[0], wrow[1], wrow[2] + amount])
            drow = txn.read(tables[T.DISTRICT], T.district_key(w, d),
                            copy_payload=False)
            txn.write(tables[T.DISTRICT], T.district_key(w, d),
                      [drow[0], drow[1] + amount] + list(drow[2:]))
            ckey = T.customer_key(cw, cd, c)
            crow = txn.read(tables[T.CUSTOMER], ckey, copy_payload=False)
            txn.write(tables[T.CUSTOMER], ckey,
                      [crow[0], crow[1] - amount, crow[2], crow[3] + 1]
                      + list(crow[4:]))
            txn.insert(tables[T.HISTORY], h_key, [amount, f"pay w{w} d{d}"])
        return body

    def _neworder_body(self, spec: TxnSpec) -> Callable[[SiloTxn], None]:
        w, d, c, K, items, supplies, qtys = spec.keys
        tables = self.tables

        def body(txn: SiloTxn) -> None:
            txn.read(tables[T.WAREHOUSE], T.warehouse_key(w),
                     copy_payload=False)
            ckey = T.customer_key(w, d, c)
            crow = txn.read(tables[T.CUSTOMER], ckey, copy_payload=False)
            dkey = T.district_key(w, d)
            drow = txn.read(tables[T.DISTRICT], dkey, copy_payload=False)
            o_id = drow[2]
            txn.write(tables[T.DISTRICT], dkey,
                      [drow[0], drow[1], o_id + 1] + list(drow[3:]))
            okey = T.orders_key(w, d, o_id)
            # the customer's last order, which OrderStatus reads
            last = T.C_FIELD_LAST_O
            txn.write(tables[T.CUSTOMER], ckey,
                      crow[:last] + [okey] + crow[last + 1:])
            txn.insert(tables[T.ORDERS], okey, [c, K, 20190326])
            txn.insert(tables[T.NEW_ORDER], okey, [])
            total = 0
            for i in range(K):
                irow = txn.read(tables[T.ITEM], items[i], copy_payload=False)
                total += irow[1] * qtys[i]
                skey = T.stock_key(supplies[i], items[i])
                srow = txn.read(tables[T.STOCK], skey, copy_payload=False)
                qty = srow[0] - qtys[i]
                if qty < 10:
                    qty += 91
                txn.write(tables[T.STOCK], skey, [qty, srow[1], srow[2] + 1])
                txn.insert(tables[T.ORDER_LINE],
                           T.order_line_key(okey, i + 1),
                           [items[i], qtys[i], 0])
        return body

    def run(self, specs: Sequence[TxnSpec]) -> SiloReport:
        return self.silo.run_transactions([self.body_for(s) for s in specs])
