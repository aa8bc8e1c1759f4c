"""Figure 12: transaction interleaving vs serial execution."""

from repro.bench import run_fig12a, run_fig12b

from conftest import run_once


def test_fig12a_ycsb_footprints(benchmark):
    report = run_once(benchmark, run_fig12a,
                      footprints=(1, 4, 8, 16, 32, 64), n_txns=150)
    inter, serial = report.series
    # paper: ~3x at single-access transactions
    assert inter.ys[0] > serial.ys[0] * 2.2
    # the gap shrinks with footprint
    first_gap = inter.ys[0] / serial.ys[0]
    last_gap = inter.ys[-1] / serial.ys[-1]
    assert last_gap < first_gap / 1.8


def test_fig12b_tpcc(benchmark):
    report = run_once(benchmark, run_fig12b, n_txns=150)
    inter, serial = report.series
    # paper: "no noticeable difference" on NewOrder and on Payment
    for i_y, s_y in zip(inter.ys, serial.ys):
        assert s_y * 0.85 < i_y < s_y * 1.15
