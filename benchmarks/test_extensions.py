"""Extension studies: the paper's stated future-work directions."""

from repro.bench import (
    run_cluster_scale_out, run_dynamic_scheduling, run_scale_up,
)

from conftest import run_once


def test_dynamic_scheduling_overlaps_dependent_chains(benchmark):
    report = run_once(benchmark, run_dynamic_scheduling, n_txns=100)
    static, dynamic = report.series[0].ys
    assert dynamic > static * 1.8


def test_scale_up_on_datacenter_fpga(benchmark):
    report = run_once(benchmark, run_scale_up, worker_counts=(4, 8, 16),
                      txns_per_worker=25)
    crossbar, ring = report.series
    # throughput scales with workers on both topologies
    assert crossbar.ys[-1] > crossbar.ys[0] * 2.2
    assert ring.ys[-1] > ring.ys[0] * 1.8


def test_cluster_scale_out(benchmark):
    report = run_once(benchmark, run_cluster_scale_out, n_txns_per_part=30)
    one, two = report.series[0].ys
    assert two > one * 1.6       # near-linear on partition-local work


def test_full_tpcc_mix(benchmark):
    from repro.bench import run_full_tpcc_mix
    report = run_once(benchmark, run_full_tpcc_mix, n_txns=150)
    pair, full = report.series[0].ys
    # the full mix adds heavy Delivery/StockLevel txns: slower, same order
    assert 0.2 < full / pair < 1.2
