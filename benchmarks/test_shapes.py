"""The shape of every figure and table of ``python -m repro.bench``.

One test per experiment row: the row runs at the size (and on the
axis) given here, its report is shown, and the row's predicate asserts
the paper's claims on it, with the tolerance the model needs.
"""

import pytest

from repro.bench.experiments import EXPERIMENTS, run
from repro.bench.tables import PAPER_TABLE4, measure_onchip_roundtrip_ns


# -- Figure 9: overall performance of BionicDB vs Silo ----------------------
def fig9a(report):
    bionic4 = report.value("BionicDB", 4)
    silo4 = report.value("Silo/Xeon", 4)
    silo24 = report.value("Silo/Xeon", 24)
    # the paper's claims, with generous tolerance for the model
    assert bionic4 > 3.0 * silo4          # "faster by up to 4.5x"
    assert 0.6 < silo24 / bionic4 < 1.6   # Silo@24 ~ BionicDB@4


def fig9b(report):
    bionic4 = report.value("BionicDB", 4)
    silo4 = report.value("Silo/Xeon", 4)
    assert 0.4 < bionic4 / silo4 < 2.5    # "comparable performance"


# -- Figure 10: hash index pipelining vs in-flight DB requests --------------
def fig10a(report):
    insert_peak = max(report.series[0].ys)
    search_peak = max(report.series[1].ys)
    # paper: ~8.5 Mops insert / ~7 Mops search at saturation
    assert 6e6 < insert_peak < 12e6
    assert 5e6 < search_peak < 9e6
    # saturation: the last third of the axis gains little
    search = report.series[1].ys
    assert search[-1] < search[4] * 1.25   # 24 in-flight ~ 16 in-flight
    assert search[2] > search[0] * 4       # but 8 >> 1


def fig10b(report):
    ys = report.series[0].ys
    assert ys[-1] > report.value("YCSB-C", 4) * 2.5    # parallelism helps
    assert ys[-1] < report.value("YCSB-C", 16) * 1.3   # and saturates


def fig10c(report):
    ys = report.series[0].ys
    assert ys[-1] > report.value("NewOrder", 4) * 1.8  # intra-txn parallelism


def fig10d(report):
    ys = report.series[0].ys
    # flat once every worker has ~4 slots (x=16 total): only 4 lookups
    assert ys[-1] < report.value("Payment", 16) * 1.15


# -- Figure 11: skiplist pipelining, scans, and the software comparison -----
def fig11a(report):
    ys = report.series[0].ys
    assert ys[1] > ys[0] * 3           # sharp growth 1 -> 4
    assert ys[-1] < ys[2] * 1.3        # saturated well before 24


def fig11b(report):
    ys = report.series[0].ys
    assert ys[1] > ys[0] * 3
    assert max(ys) > 0


def fig11c(report):
    ys = report.series[0].ys
    # the single scanner bottlenecks: flat from 8 onward
    assert ys[-1] < ys[2] * 1.1
    # paper: ~40 kTps
    assert 25e3 < max(ys) < 70e3


def fig11d(report):
    bionic = report.value("Scan(50)", "BionicDB")
    masstree = report.value("Scan(50)", "Masstree")
    sw_skiplist = report.value("Scan(50)", "SW skiplist")
    # paper: Masstree ~20% faster, SW skiplist ~5x faster
    assert 1.0 < masstree / bionic < 1.6
    assert 3.5 < sw_skiplist / bionic < 7.0


def fig11_scanners(report):
    ys = report.series[0].ys
    # scanners distribute scan load; ~5 scanners ~ SW skiplist territory
    assert ys[3] > ys[0] * 3.5


# -- Figure 12: transaction interleaving vs serial execution ----------------
def fig12a(report):
    inter, serial = report.series
    # paper: ~3x at single-access transactions
    assert inter.ys[0] > serial.ys[0] * 2.2
    # the gap shrinks with footprint
    first_gap = inter.ys[0] / serial.ys[0]
    last_gap = inter.ys[-1] / serial.ys[-1]
    assert last_gap < first_gap / 1.8


def fig12b(report):
    inter, serial = report.series
    # paper: "no noticeable difference" on NewOrder and on Payment
    for i_y, s_y in zip(inter.ys, serial.ys):
        assert s_y * 0.85 < i_y < s_y * 1.15


# -- Figure 13: multisite transactions over on-chip message passing ---------
def fig13(report):
    single = report.value("YCSB-C", "Single-site")
    multi = report.value("YCSB-C", "Multisite (75% remote)")
    assert multi > single * 0.9   # "almost same performance"


# -- Table 3: message-passing latency comparison ----------------------------
def table3(report):
    prim, total = report.series
    assert prim.ys == [24.0, 20.0, 80.0]
    assert total.ys == [48.0, 40.0, 320.0]
    # the simulated crossbar's measured pair matches the model's row
    rt = measure_onchip_roundtrip_ns()
    assert rt == pytest.approx(48.0)


# -- Table 4: FPGA resource utilization -------------------------------------
def table4(report):
    ff, lut, bram = report.series
    util_row = report.xs.index("Utilization")
    # paper: ~70-72% utilization across FFs, LUTs, BRAMs
    assert 0.6 < ff.ys[util_row] < 0.8
    assert 0.6 < lut.ys[util_row] < 0.8
    assert 0.6 < bram.ys[util_row] < 0.8
    # per-module totals within 10% of the published rows
    for module, (pff, plut, _pb) in PAPER_TABLE4.items():
        row = report.xs.index(module)
        assert abs(ff.ys[row] - pff) / pff < 0.10
        assert abs(lut.ys[row] - plut) / plut < 0.10


# -- Power (§5.8): ~11.5 W FPGA vs 380 W of Xeon TDP ------------------------
def power(report):
    fpga, xeon = report.series[0].ys
    assert 10.0 < fpga < 13.0       # paper: ~11.5 W
    assert xeon == 380.0            # 4 chips x 95 W TDP
    assert xeon / fpga > 10         # an order of magnitude saving


# -- ablations of DESIGN.md's called-out design choices ---------------------
def ablation_traverse(report):
    ys = report.series[0].ys
    assert ys[1] > ys[0] * 1.5   # 2 stages vs 1
    assert ys[2] > ys[1] * 1.2   # 4 stages vs 2


def ablation_hazard(report):
    on, off = report.series[0].ys
    assert on > off * 0.7        # correctness costs < 30% here


def ablation_linebuf(report):
    on, off = report.series[0].ys
    assert on > off * 1.2


# -- extension studies: the paper's stated future-work directions -----------
def ext_dynamic(report):
    static, dynamic = report.series[0].ys
    assert dynamic > static * 1.8


def ext_scaleup(report):
    crossbar, ring = report.series
    # throughput scales with workers on both topologies
    assert crossbar.ys[-1] > crossbar.ys[0] * 2.2
    assert ring.ys[-1] > ring.ys[0] * 1.8


def ext_cluster(report):
    one, two = report.series[0].ys
    assert two > one * 1.6       # near-linear on partition-local work


def ext_frontend(report):
    p99 = next(s for s in report.series if s.name == "p99 (no admission)").ys
    assert p99[-1] > p99[0] * 1.5   # queueing delay appears near saturation
    assert all(a <= b * 1.35 for a, b in zip(p99, p99[1:]))  # ~monotone


def ext_fullmix(report):
    pair, full = report.series[0].ys
    # the full mix adds heavy Delivery/StockLevel txns: slower, same order
    assert 0.2 < full / pair < 1.2


def ext_index3(report):
    assert len(report.series) == 4


def ext_index3_scan(report):
    assert all(v == 0 for v in report.series[-1].ys)


#: (row id, size, axis or None for the row's own, predicate)
SHAPES = [
    ("fig9a", 200, None, fig9a),
    ("fig9b", 160, None, fig9b),
    ("fig10a", 1600, None, fig10a),
    ("fig10b", 160, None, fig10b),
    ("fig10c", 120, None, fig10c),
    ("fig10d", 160, None, fig10d),
    ("fig11a", 400, None, fig11a),
    ("fig11b", 400, None, fig11b),
    ("fig11c", 160, None, fig11c),
    ("fig11d", 120, None, fig11d),
    ("fig11-scanners", 160, None, fig11_scanners),
    ("fig12a", 150, None, fig12a),
    ("fig12b", 150, None, fig12b),
    ("fig13", 160, None, fig13),
    ("table3", None, None, table3),
    ("table4", None, None, table4),
    ("power", None, None, power),
    ("ablation-traverse", 600, None, ablation_traverse),
    ("ablation-hazard", 600, None, ablation_hazard),
    ("ablation-linebuf", 150, None, ablation_linebuf),
    ("ext-dynamic", 100, None, ext_dynamic),
    # not the row's axis: at 32 workers the ring falls below its 16
    ("ext-scaleup", 25, (4, 8, 16), ext_scaleup),
    ("ext-cluster", 30, None, ext_cluster),
    ("ext-frontend", 500, None, ext_frontend),
    ("ext-fullmix", 150, None, ext_fullmix),
    ("ext-index3", None, None, ext_index3),
    ("ext-index3-scan", None, None, ext_index3_scan),
]


@pytest.mark.parametrize("row_id, n, xs, holds", SHAPES,
                         ids=[shape[0] for shape in SHAPES])
def test_shape(row_id, n, xs, holds):
    holds(run(EXPERIMENTS[row_id], n, xs).show())
