"""Ablations of DESIGN.md's called-out design choices."""

from repro.bench import (
    run_hazard_prevention_cost, run_line_buffer_ablation,
    run_traverse_stage_sweep,
)

from conftest import run_once


def test_traverse_stages_balance_conflicted_dataflow(benchmark):
    report = run_once(benchmark, run_traverse_stage_sweep, n_ops=600)
    ys = report.series[0].ys
    assert ys[1] > ys[0] * 1.5   # 2 stages vs 1
    assert ys[2] > ys[1] * 1.2   # 4 stages vs 2


def test_hazard_prevention_cost_is_modest(benchmark):
    report = run_once(benchmark, run_hazard_prevention_cost, n_ops=600)
    on, off = report.series[0].ys
    assert on > off * 0.7        # correctness costs < 30% here


def test_line_buffer_pays_off_on_tpcc(benchmark):
    report = run_once(benchmark, run_line_buffer_ablation, n_txns=150)
    on, off = report.series[0].ys
    assert on > off * 1.2
