"""Paper-scale sweep points for the simulator.

:mod:`repro.perf.sweep` holds a registry of named, deterministically
seeded points (YCSB at 300 K rows per partition on every index kind,
TPC-C with full districts) and farms them across host processes; each
result is the run's simulated fingerprint next to its host cost.
``python -m repro.perf`` runs points and merges them into
``BENCH_sim.json``.  See ``docs/performance.md``.
"""

from .sweep import POINTS, host_metadata, run_point, run_sweep

__all__ = ["POINTS", "host_metadata", "run_point", "run_sweep"]
