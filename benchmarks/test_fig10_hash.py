"""Figure 10: hash index pipelining vs in-flight DB requests."""

from repro.bench import run_fig10a, run_fig10b, run_fig10c, run_fig10d

from conftest import run_once

AXIS = (1, 4, 8, 12, 16, 20, 24)
#: 10b–d set a machine-wide budget, which needs a slot per worker (4)
MACHINE_AXIS = AXIS[1:]


def test_fig10a_keyvalue(benchmark):
    report = run_once(benchmark, run_fig10a, axis=AXIS, n_ops=1600)
    insert_peak = max(report.series[0].ys)
    search_peak = max(report.series[1].ys)
    # paper: ~8.5 Mops insert / ~7 Mops search at saturation
    assert 6e6 < insert_peak < 12e6
    assert 5e6 < search_peak < 9e6
    # saturation: the last third of the axis gains little
    search = report.series[1].ys
    assert search[-1] < search[4] * 1.25   # 24 in-flight ~ 16 in-flight
    assert search[2] > search[0] * 4       # but 8 >> 1


def test_fig10b_ycsb(benchmark):
    report = run_once(benchmark, run_fig10b, axis=MACHINE_AXIS, n_txns=160)
    ys = report.series[0].ys
    assert ys[-1] > report.value("YCSB-C", 4) * 2.5    # parallelism helps
    assert ys[-1] < report.value("YCSB-C", 16) * 1.3   # and saturates


def test_fig10c_neworder(benchmark):
    report = run_once(benchmark, run_fig10c, axis=MACHINE_AXIS, n_txns=120)
    ys = report.series[0].ys
    assert ys[-1] > report.value("NewOrder", 4) * 1.8  # intra-txn parallelism


def test_fig10d_payment(benchmark):
    report = run_once(benchmark, run_fig10d, axis=MACHINE_AXIS, n_txns=160)
    ys = report.series[0].ys
    # flat once every worker has ~4 slots (x=16 total): only 4 lookups
    assert ys[-1] < report.value("Payment", 16) * 1.15
