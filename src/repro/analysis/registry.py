"""Name -> stored-procedure resolution for the analysis CLI.

``python -m repro.analysis report tpcc_payment`` needs to turn a
procedure name into a finalized :class:`~repro.isa.instructions.Program`
plus the schema catalog it runs against (the partition analysis is
meaningless without one).  Parameterised families use suffixes::

    tpcc_payment | tpcc_stocklevel | tpcc_orderstatus | tpcc_delivery
    tpcc_neworder_<K>      K order lines (5..15), e.g. tpcc_neworder_10
    ycsb_read_<N>          N-point-read transaction
    ycsb_rmw_<N>           N read-modify-write pairs
    ycsb_scan_<L>          one scan of length L
    ycsb_range_<L>         one bounded range scan of span L
    ycsb_mix_<R>r<U>u      R reads + U updates, e.g. ycsb_mix_3r1u
"""

from __future__ import annotations

import re
from typing import Callable, Dict, List, Tuple

from ..isa.instructions import Program
from ..mem.schema import Catalog

__all__ = ["ResolveError", "resolve", "known_names", "all_procedures"]


class ResolveError(KeyError):
    pass


def _tpcc_catalog() -> Catalog:
    from ..workloads.tpcc.schema import TpccConfig, tpcc_schemas
    return Catalog(tpcc_schemas(TpccConfig()))


def _ycsb():
    from ..workloads.ycsb import YcsbWorkload
    return YcsbWorkload()


def _fixed() -> Dict[str, Callable[[], Program]]:
    from ..workloads.tpcc import procedures as tpcc
    return {
        "tpcc_payment": tpcc.payment_procedure,
        "tpcc_stocklevel": tpcc.stocklevel_procedure,
        "tpcc_orderstatus": tpcc.orderstatus_procedure,
        "tpcc_delivery": tpcc.delivery_procedure,
    }


def resolve(name: str) -> Tuple[Program, Catalog]:
    """Resolve ``name`` to a finalized program + its schema catalog."""
    fixed = _fixed()
    if name in fixed:
        program = fixed[name]()
        program.finalize()
        return program, _tpcc_catalog()

    m = re.match(r"^tpcc_neworder_(\d+)$", name)
    if m:
        from ..workloads.tpcc.procedures import neworder_procedure
        program = neworder_procedure(int(m.group(1)))
        program.finalize()
        return program, _tpcc_catalog()

    y = None
    if (m := re.match(r"^ycsb_read_(\d+)$", name)):
        y = _ycsb()
        program = y.read_procedure(int(m.group(1)))
    elif (m := re.match(r"^ycsb_rmw_(\d+)$", name)):
        y = _ycsb()
        program = y.rmw_procedure(int(m.group(1)))
    elif (m := re.match(r"^ycsb_scan_(\d+)$", name)):
        y = _ycsb()
        program = y.scan_procedure(int(m.group(1)), y.scan_layout())
    elif (m := re.match(r"^ycsb_range_(\d+)$", name)):
        y = _ycsb()
        program = y.range_procedure(int(m.group(1)), y.range_layout())
    elif (m := re.match(r"^ycsb_mix_(\d+)r(\d+)u$", name)):
        y = _ycsb()
        program = y.mixed_procedure(int(m.group(1)), int(m.group(2)))
    if y is not None:
        program.finalize()
        return program, Catalog([y.schema()])

    raise ResolveError(
        f"unknown procedure {name!r}; try one of: {', '.join(known_names())}")


def known_names() -> List[str]:
    """Concrete resolvable names (families shown at a default size)."""
    return sorted(_fixed()) + [
        "tpcc_neworder_<K>", "ycsb_read_<N>", "ycsb_rmw_<N>",
        "ycsb_scan_<L>", "ycsb_range_<L>", "ycsb_mix_<R>r<U>u",
    ]


def all_procedures() -> List[Tuple[str, Program, Catalog]]:
    """Every shipped procedure at representative sizes — the sweep set."""
    names = (sorted(_fixed())
             + [f"tpcc_neworder_{k}" for k in (5, 10, 15)]
             + ["ycsb_read_4", "ycsb_rmw_4", "ycsb_scan_16",
                "ycsb_range_16", "ycsb_mix_3r1u", "ycsb_mix_2r2u"])
    out = []
    for name in names:
        program, catalog = resolve(name)
        out.append((name, program, catalog))
    return out
