"""TPC-C on BionicDB: the NewOrder/Payment mix of §5.3.

Shows the unrolled NewOrder stored procedures, runs the 50:50 mix,
verifies transactional effects (order rows, stock maintenance, balance
arithmetic), and demonstrates why interleaving buys nothing on TPC-C.

Run:  python examples/tpcc_demo.py
"""

from repro.core import BionicConfig, BionicDB
from repro.isa import disassemble
from repro.softcore import SoftcoreConfig
from repro.workloads import TpccConfig, TpccWorkload
from repro.workloads.tpcc import neworder_procedure, schema as S


def build(interleaving: bool):
    cfg = TpccConfig(items=2000, customers_per_district=100)
    db = BionicDB(BionicConfig(
        n_workers=4, softcore=SoftcoreConfig(interleaving=interleaving)))
    workload = TpccWorkload(cfg)
    workload.install(db)
    return db, workload


def main() -> None:
    print("A 5-line NewOrder, unrolled into BionicDB instructions")
    print("(first 12 of the logic section):")
    text = disassemble(neworder_procedure(5))
    print("\n".join(text.splitlines()[:14]))
    print("    ...")

    db, workload = build(interleaving=False)
    specs = workload.make_mix(300)
    report, blocks = workload.submit_all(db, specs)
    print(f"\n50:50 NewOrder/Payment mix, 4 warehouses, serial execution:")
    print(f"  {report.committed} committed, {report.aborted} aborts/retries, "
          f"{report.throughput_tps / 1e3:.1f} kTps")

    # verify one NewOrder's database effects end to end
    spec = next(s for s in specs if s.kind == "neworder")
    block = blocks[specs.index(spec)]
    total, okey = block.outputs()[0], block.outputs()[1]
    w, d, c, K, items, supplies, qtys = spec.keys
    order = db.lookup(S.ORDERS, okey)
    print(f"\nNewOrder verification (warehouse {w}, district {d}):")
    print(f"  ORDERS[{okey}] = customer {order.fields[0]}, "
          f"{order.fields[1]} lines")
    line1 = db.lookup(S.ORDER_LINE, S.order_line_key(okey, 1))
    print(f"  ORDER_LINE 1: item {line1.fields[0]}, qty {line1.fields[1]}")
    price_total = sum(db.lookup(S.ITEM, items[i]).fields[1] * qtys[i]
                      for i in range(K))
    print(f"  order total computed on the softcore: {total} "
          f"(host recomputation: {price_total})")
    assert total == price_total

    # interleaving comparison (Figure 12b)
    db2, workload2 = build(interleaving=True)
    report2, _ = workload2.submit_all(db2, workload2.make_mix(300))
    print(f"\nwith transaction interleaving: "
          f"{report2.throughput_tps / 1e3:.1f} kTps "
          f"({report2.aborted} aborts)")
    print("heavy data dependency + batches closed at the warehouse hot row "
          "mean interleaving cannot help TPC-C (Figure 12b)")


if __name__ == "__main__":
    main()
