"""Deterministic fault injection and the drill harness.

``repro.faults`` makes failure a first-class, *tested* behaviour of the
reproduction: a seeded :class:`FaultPlan` decides when torn writes,
bit flips, packet loss, link stalls, link partitions, node deaths and
machine crashes happen, and one :class:`Drill` harness
(:mod:`repro.faults.drill`) holds the system to it in three suites of
seeded incidents — ``single`` (§4.8 checkpoint + command-log recovery:
every acknowledged transaction survives and the recovered state matches
an uninterrupted golden run), ``cluster`` (failover, epoch fencing,
live migration, exactly-once across nodes) and ``overload`` (retry
storms, migration under load, flash crowds, slow-client storms).

Sweep every suite from the command line::

    python -m repro.faults.drill --seeds 200
"""

from .plan import (
    APPEND_BIT_FLIP, CRASH_AFTER_RENAME, CRASH_BEFORE_RENAME, FaultPlan,
    HEARTBEAT_LOSS, LINK_DROP, LINK_PARTITION, LINK_STALL, MACHINE_CRASH,
    NIC_CORRUPT, NIC_DROP, NIC_DUPLICATE, NODE_DEATH, SITES,
    STALE_EPOCH_SUBMIT, TORN_APPEND, Trigger,
)
_DRILL_NAMES = ("SUITES", "DrillConfig", "DrillResult", "Drill",
                "DrillFailure", "draw_flavor", "run_sweep")


def __getattr__(name):
    # lazy: `python -m repro.faults.drill` must not import the drill
    # module twice (runpy), and plain fault injection must not pay for
    # the workload, cluster and front-end imports the drills pull in
    if name in _DRILL_NAMES:
        from . import drill
        return getattr(drill, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "FaultPlan", "Trigger", "SITES",
    "TORN_APPEND", "APPEND_BIT_FLIP",
    "CRASH_BEFORE_RENAME", "CRASH_AFTER_RENAME",
    "NIC_DROP", "NIC_DUPLICATE", "NIC_CORRUPT",
    "LINK_DROP", "LINK_STALL", "LINK_PARTITION",
    "HEARTBEAT_LOSS", "NODE_DEATH", "STALE_EPOCH_SUBMIT",
    "MACHINE_CRASH",
    *_DRILL_NAMES,
]
