"""Benchmark harness: one runner per table/figure of the paper's §5."""

from .fig09 import run_fig9a, run_fig9b
from .fig10 import run_fig10a, run_fig10b, run_fig10c, run_fig10d
from .fig11 import (
    run_fig11a, run_fig11b, run_fig11c, run_fig11d, scanner_count_sweep,
)
from .fig12 import run_fig12a, run_fig12b
from .fig13 import run_fig13
from .report import FigureReport, Series
from .tables import run_power, run_table3, run_table4

__all__ = [
    "run_fig9a", "run_fig9b", "run_fig10a", "run_fig10b", "run_fig10c",
    "run_fig10d", "run_fig11a", "run_fig11b", "run_fig11c", "run_fig11d",
    "scanner_count_sweep", "run_fig12a", "run_fig12b", "run_fig13",
    "FigureReport", "Series", "run_power", "run_table3", "run_table4",
]

from .fig_latency_load import (  # noqa: E402
    measure_latency_load, run_latency_load,
)

__all__ += ["measure_latency_load", "run_latency_load"]

from .ablations import (  # noqa: E402
    run_cluster_scale_out, run_dynamic_scheduling,
    run_full_tpcc_mix, run_hazard_prevention_cost, run_line_buffer_ablation,
    run_scale_up, run_traverse_stage_sweep,
)

__all__ += [
    "run_cluster_scale_out", "run_dynamic_scheduling",
    "run_hazard_prevention_cost", "run_line_buffer_ablation", "run_scale_up",
    "run_traverse_stage_sweep", "run_full_tpcc_mix",
]

from .fig_index3 import run_index3_point, run_index3_scan  # noqa: E402
from .report import index_kv_throughput, machine_tput, silo_tput  # noqa: E402

__all__ += ["index_kv_throughput", "machine_tput", "silo_tput",
            "run_index3_point", "run_index3_scan"]
