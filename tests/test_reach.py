"""``tools/reach.py``, the reachability audit, on a one-command surface."""

import runpy
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
audit = runpy.run_path(str(ROOT / "tools" / "reach.py"))["audit"]

# the parent calls nearest_rank and a decorated method (a property);
# a forked child, which leaves through os._exit, calls by_prefix
SURFACE = (
    "python -c 'import os; "
    "from repro.core.system import RunReport; "
    "from repro.sim.stats import StatsRegistry, nearest_rank; "
    "nearest_rank([1.0], 50); "
    "RunReport(1, 1, 0, 1.0).throughput_tps; "
    "pid = os.fork(); "
    "pid or (StatsRegistry().by_prefix(\"x\"), os._exit(0)); "
    "os.waitpid(pid, 0)'"
)


def test_audit_of_a_forking_command(tmp_path):
    out = tmp_path / "unreached.txt"
    assert audit([SURFACE], out) == 0
    *rows, total = out.read_text().splitlines()
    # each row: lines, path:line of the def, qualified name
    listed = {(row.split()[1].split(":")[0], row.split()[2]) for row in rows}
    stats, system = "src/repro/sim/stats.py", "src/repro/core/system.py"
    assert (stats, "nearest_rank") not in listed               # the parent's
    assert (stats, "StatsRegistry.by_prefix") not in listed    # the child's
    assert (stats, "Counter.add") in listed                    # nobody's
    # a decorated function's code starts at its first decorator
    assert (system, "RunReport.throughput_tps") not in listed
    assert (system, "RunReport.latency_percentile_ns") in listed
    assert int(total.split()[0]) == sum(int(row.split()[0]) for row in rows)
