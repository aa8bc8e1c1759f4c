"""TPC-C loader and transaction generator.

Generates the 50:50 NewOrder/Payment mix of §5.3: by default 1% of
NewOrders touch a remote warehouse's stock and 15% of Payments pay a
remote customer; both fractions are knobs (Figure 13 style sweeps).
"""

from __future__ import annotations

import random
from typing import Iterator, List, Optional, Sequence, Tuple

from ...core.system import BionicDB
from ...errors import WorkloadError
from ..ycsb import TxnSpec
from . import schema as S
from .procedures import (
    MAX_OL_CNT, MIN_OL_CNT, PROC_DELIVERY, PROC_NEWORDER_BASE,
    PROC_ORDERSTATUS, PROC_PAYMENT, PROC_STOCKLEVEL,
    delivery_layout, delivery_procedure, neworder_layout,
    neworder_procedure, orderstatus_layout, orderstatus_procedure,
    payment_layout, payment_procedure, stocklevel_layout,
    stocklevel_procedure,
)

__all__ = ["TpccWorkload", "nurand", "tpcc_rows"]


def nurand(rng: random.Random, a: int, x: int, y: int, c: int = 123) -> int:
    """TPC-C's non-uniform random distribution NURand(A, x, y)."""
    return ((rng.randint(0, a) | rng.randint(x, y)) + c) % (y - x + 1) + x


def tpcc_rows(cfg: S.TpccConfig) -> Iterator[Tuple[int, int, list]]:
    """The initial population as ``(table_id, key, fields)`` rows, the
    one both BionicDB's loader and the Silo baseline's install."""
    rng = random.Random(cfg.seed + 1)
    # the row (and rng-draw) order is load-bearing for simulated
    # timing: heap allocation order picks DRAM channels (address %
    # channels)
    for i in range(1, cfg.items + 1):
        yield S.ITEM, i, [f"item{i}", rng.randint(1, 100)]
    for w in range(1, cfg.n_warehouses + 1):
        yield (S.WAREHOUSE, S.warehouse_key(w),
               [f"w{w}", rng.randint(0, 20) / 100.0, 0])
        for i in range(1, cfg.items + 1):
            yield S.STOCK, S.stock_key(w, i), [rng.randint(10, 100), 0, 0]
        for d in range(1, cfg.districts_per_warehouse + 1):
            yield (S.DISTRICT, S.district_key(w, d),
                   [rng.randint(0, 20) / 100.0, 0, 1, 1])
            for c in range(1, cfg.customers_per_district + 1):
                yield (S.CUSTOMER, S.customer_key(w, d, c),
                       [f"c{w}.{d}.{c}", 0, 0, 0, 0])


class TpccWorkload:
    """Installs TPC-C on a BionicDB and generates NewOrder/Payment mixes."""

    def __init__(self, config: Optional[S.TpccConfig] = None):
        self.config = config or S.TpccConfig()
        self._rng = random.Random(self.config.seed)
        self._history_counter = 0

    # -- install ---------------------------------------------------------
    def install(self, db: BionicDB, load_data: bool = True) -> None:
        """``load_data=False`` installs schema and procedures only —
        the recovery path, where data comes from a checkpoint image."""
        cfg = self.config
        if db.total_workers != cfg.n_partitions:
            raise ValueError("workload partitions must match db workers")
        for schema in S.tpcc_schemas(cfg):
            db.define_table(schema)
        db.register_procedure(PROC_PAYMENT, payment_procedure())
        for k in range(MIN_OL_CNT, MAX_OL_CNT + 1):
            db.register_procedure(PROC_NEWORDER_BASE + k, neworder_procedure(k))
        db.register_procedure(PROC_STOCKLEVEL, stocklevel_procedure())
        db.register_procedure(PROC_ORDERSTATUS, orderstatus_procedure())
        db.register_procedure(
            PROC_DELIVERY,
            delivery_procedure(districts=cfg.districts_per_warehouse))
        if load_data:
            self._load(db)

    def _load(self, db: BionicDB) -> None:
        db.load_many(tpcc_rows(self.config))

    # -- generators ----------------------------------------------------------
    def _home_of(self, w: int) -> int:
        return (w - 1) % self.config.n_partitions

    def _pick_customer(self, rng: random.Random) -> int:
        return nurand(rng, 1023, 1, self.config.customers_per_district)

    def make_payment(self) -> TxnSpec:
        cfg = self.config
        rng = self._rng
        w = rng.randint(1, cfg.n_warehouses)
        d = rng.randint(1, cfg.districts_per_warehouse)
        # 15% of payments pay a customer of a *remote* warehouse
        if cfg.n_warehouses > 1 and rng.random() < cfg.remote_payment_fraction:
            cw = rng.choice([x for x in range(1, cfg.n_warehouses + 1) if x != w])
        else:
            cw = w
        cd = rng.randint(1, cfg.districts_per_warehouse)
        c = self._pick_customer(rng)
        amount = rng.randint(1, 5000)
        self._history_counter += 1
        h_key = S.history_key(cw, self._history_counter)
        inputs = (
            S.warehouse_key(w),
            S.district_key(w, d),
            S.customer_key(cw, cd, c),
            amount,
            (h_key, [amount, f"pay w{w} d{d}"]),
        )
        return TxnSpec(proc_id=PROC_PAYMENT, inputs=inputs,
                       home=self._home_of(w), kind="payment",
                       keys=(w, d, cw, cd, c, amount, h_key))

    def make_neworder(self) -> TxnSpec:
        cfg = self.config
        rng = self._rng
        w = rng.randint(1, cfg.n_warehouses)
        d = rng.randint(1, cfg.districts_per_warehouse)
        c = self._pick_customer(rng)
        K = rng.randint(MIN_OL_CNT, MAX_OL_CNT)
        remote_txn = (cfg.n_warehouses > 1 and
                      rng.random() < cfg.remote_neworder_fraction)
        items, supplies, qtys = [], [], []
        seen = set()
        while len(items) < K:
            i = nurand(rng, 8191, 1, cfg.items)
            if i in seen:
                continue
            seen.add(i)
            items.append(i)
            supplies.append(w)
            qtys.append(rng.randint(1, 10))
        if remote_txn:
            # one line supplied by a remote warehouse
            line = rng.randrange(K)
            supplies[line] = rng.choice(
                [x for x in range(1, cfg.n_warehouses + 1) if x != w])
        inputs: List = [
            S.warehouse_key(w), S.district_key(w, d),
            S.customer_key(w, d, c), S.orders_base(w, d), K,
        ]
        for i in range(K):
            inputs.extend([items[i], S.stock_key(supplies[i], items[i]), qtys[i]])
        inputs.append([c, K, 20190326])      # ORDERS payload
        inputs.append([])                    # NEW_ORDER payload
        for i in range(K):
            inputs.append([items[i], qtys[i], 0])  # ORDER_LINE payloads
        return TxnSpec(proc_id=PROC_NEWORDER_BASE + K, inputs=tuple(inputs),
                       home=self._home_of(w), kind="neworder",
                       keys=(w, d, c, K, tuple(items), tuple(supplies),
                             tuple(qtys)))

    def make_stocklevel(self, lookback: int = 5) -> TxnSpec:
        """A read-only StockLevel over the district's recent orders."""
        cfg = self.config
        rng = self._rng
        w = rng.randint(1, cfg.n_warehouses)
        d = rng.randint(1, cfg.districts_per_warehouse)
        threshold = rng.randint(10, 20)
        inputs = (
            S.warehouse_key(w), S.district_key(w, d), threshold,
            S.orders_base(w, d), lookback, w * 1_000_000,
        )
        return TxnSpec(proc_id=PROC_STOCKLEVEL, inputs=inputs,
                       home=self._home_of(w), kind="stocklevel",
                       keys=(w, d, threshold, lookback))

    def make_orderstatus(self) -> TxnSpec:
        """Read a customer's balance and latest order (extension)."""
        cfg = self.config
        rng = self._rng
        w = rng.randint(1, cfg.n_warehouses)
        d = rng.randint(1, cfg.districts_per_warehouse)
        c = self._pick_customer(rng)
        inputs = (S.customer_key(w, d, c), 0)
        return TxnSpec(proc_id=PROC_ORDERSTATUS, inputs=inputs,
                       home=self._home_of(w), kind="orderstatus",
                       keys=(w, d, c))

    def make_delivery(self, carrier: Optional[int] = None) -> TxnSpec:
        """Deliver the oldest undelivered order per district (extension)."""
        cfg = self.config
        rng = self._rng
        w = rng.randint(1, cfg.n_warehouses)
        carrier = carrier if carrier is not None else rng.randint(1, 10)
        inputs = (w, carrier, 20190327)
        return TxnSpec(proc_id=PROC_DELIVERY, inputs=inputs,
                       home=self._home_of(w), kind="delivery",
                       keys=(w, carrier))

    def make_mix(self, n_txns: int, neworder_fraction: float = 0.5) -> List[TxnSpec]:
        """The paper's 50:50 NewOrder/Payment mix."""
        if not 0.0 <= neworder_fraction <= 1.0:
            raise WorkloadError("neworder_fraction must be in [0, 1]",
                                neworder_fraction=neworder_fraction)
        out = []
        for _ in range(n_txns):
            if self._rng.random() < neworder_fraction:
                out.append(self.make_neworder())
            else:
                out.append(self.make_payment())
        return out

    def make_full_mix(self, n_txns: int) -> List[TxnSpec]:
        """The standard TPC-C 5-transaction mix (45/43/4/4/4) —
        extension beyond the paper's NewOrder/Payment evaluation."""
        out = []
        for _ in range(n_txns):
            roll = self._rng.random()
            if roll < 0.45:
                out.append(self.make_neworder())
            elif roll < 0.88:
                out.append(self.make_payment())
            elif roll < 0.92:
                out.append(self.make_orderstatus())
            elif roll < 0.96:
                out.append(self.make_delivery())
            else:
                out.append(self.make_stocklevel())
        return out

    # -- submission ---------------------------------------------------------------
    def layout_for(self, spec: TxnSpec):
        """The block layout one generated transaction needs."""
        if spec.kind == "payment":
            return payment_layout()
        if spec.kind == "stocklevel":
            return stocklevel_layout()
        if spec.kind == "orderstatus":
            return orderstatus_layout()
        if spec.kind == "delivery":
            return delivery_layout(
                districts=self.config.districts_per_warehouse)
        return neworder_layout(spec.keys[3])

    def submit_all(self, db: BionicDB, specs: Sequence[TxnSpec],
                   retry: bool = True):
        blocks, homes = [], []
        for spec in specs:
            blocks.append(db.new_block(spec.proc_id, list(spec.inputs),
                                       layout=self.layout_for(spec),
                                       worker=spec.home))
            homes.append(spec.home)
        if retry:
            return db.run_to_commit(blocks, workers=homes), blocks
        return db.run_all(blocks, workers=homes), blocks
