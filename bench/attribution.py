"""Where the inside of ``load`` and ``drain`` goes, by package.

A discrete-event engine inverts the call stack — every stage runs as a
callback from ``Engine.run`` — so spans around public calls cannot see
inside a drain.  The traced run therefore profiles those two calls with
``cProfile`` and sums per-function self time by the package of the
defining file.  Built-ins and the standard library have no defining
file in the program and land in ``other`` (on ``ycsb_c_paper`` that is
mostly the engine's heap pushes and pops), which is also how ROADMAP's
own profile was taken; the shares sum to 1.
"""

from __future__ import annotations

import os

import repro

from .metrics import LOAD_PACKAGES, TRACE_PACKAGES

__all__ = ["package_of", "run_shares", "load_shares"]

_ROOT = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
_SIM = {"engine.py": "sim.engine", "memory.py": "sim.memory"}
_INDEX = ("hash", "skiplist", "bptree")
_WHOLE = ("softcore", "dora", "comm", "txn", "mem", "core", "frontend")


def package_of(filename: str) -> str:
    """The ``trace.share`` bucket of the file a function is defined in."""
    if filename.startswith("<repro.compiled"):
        return "softcore"       # generated procedure code
    if not filename.startswith(_ROOT):
        return "other"
    top, _, rest = filename[len(_ROOT):].partition(os.sep)
    if top == "sim":
        return _SIM.get(rest, "sim.other")
    if top == "index":
        sub = rest.partition(os.sep)[0]
        return f"index.{sub}" if sub in _INDEX else "index.common"
    return top if top in _WHOLE else "other"


def _shares(profiler, buckets, fold) -> dict:
    profiler.create_stats()
    out = dict.fromkeys(buckets, 0.0)
    whole = sum(entry[2] for entry in profiler.stats.values())
    for (filename, _line, _fn), entry in profiler.stats.items():
        out[fold(package_of(filename))] += entry[2] / whole   # self time
    return out


def run_shares(profiler) -> dict:
    """``trace.share.<pkg>`` over everything profiled inside drains."""
    return _shares(profiler, TRACE_PACKAGES, lambda package: package)


def load_shares(profiler) -> dict:
    """``trace.load_share.<pkg>`` over everything inside ``load_many``."""
    def fold(package):
        if package.startswith("index."):
            return "index"
        return package if package in LOAD_PACKAGES else "other"
    return _shares(profiler, LOAD_PACKAGES, fold)
