"""A commit-order replay oracle: the Silo bodies explain BionicDB's rows.

The Silo baseline (:mod:`repro.baseline.runner`) implements every YCSB
and TPC-C NewOrder/Payment procedure a second time, as plain-Python
bodies written from the spec rather than from the ISA programs, over
the same initial rows.  If BionicDB is serialisable in commit-timestamp
order, replaying its committed transactions in that order through those
bodies must reproduce its final database exactly.

:func:`assert_commit_order_explains` does that replay on a timing-free
serial executor (a dict of dicts standing in for ``SiloTxn``) and
compares every row of :func:`~repro.host.recovery.take_checkpoint`.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.baseline import SiloTpcc, SiloYcsb
from repro.host.recovery import take_checkpoint
from repro.mem import TxnStatus
from repro.workloads import TpccConfig
from repro.workloads.tpcc import tpcc_rows
from repro.workloads.ycsb import ycsb_columns

__all__ = ["assert_commit_order_explains"]


class _SerialTxn:
    """``SiloTxn``'s read/write/insert applied at once to plain dicts:
    no cost model, no validation, nothing to abort."""

    def __init__(self, tables: Dict[int, dict]):
        self.tables = tables

    def read(self, table, key, copy_payload: bool = True):
        return self.tables[table.table_id].get(key)

    def write(self, table, key, value) -> bool:
        rows = self.tables[table.table_id]
        if key not in rows:
            return False
        rows[key] = list(value)
        return True

    def insert(self, table, key, value) -> None:
        rows = self.tables[table.table_id]
        assert key not in rows, f"replay inserts {key!r} twice"
        rows[key] = list(value)


def _population(config) -> Dict[int, dict]:
    tables: Dict[int, dict] = {}
    if isinstance(config, TpccConfig):
        rows = tpcc_rows(config)
    else:
        rows = ((table_id, key, fields)
                for table_id, keys, column in ycsb_columns(config)
                for key, fields in zip(keys, column))
    for table_id, key, fields in rows:
        tables.setdefault(table_id, {})[key] = list(fields)
    return tables


def assert_commit_order_explains(db, specs: Sequence, blocks: Sequence,
                                 config) -> None:
    """Replay the committed ``specs`` (``blocks[i]`` ran ``specs[i]``)
    in ``commit_ts`` order through the Silo bodies of the workload
    ``config`` names (a ``TpccConfig`` or a ``YcsbConfig``), and assert
    that every row of ``db`` equals the replay's.  An aborted block is
    left out; a retried one counts once, at its committing attempt."""
    assert len(specs) == len(blocks)
    runner = (SiloTpcc(config, n_cores=1) if isinstance(config, TpccConfig)
              else SiloYcsb(config, n_cores=1))
    tables = _population(config)
    for table_id in runner.silo.tables:
        tables.setdefault(table_id, {})
    txn = _SerialTxn(tables)
    committed = sorted(
        ((block.header.commit_ts, i) for i, block in enumerate(blocks)
         if block.header.status is TxnStatus.COMMITTED))
    stamps = [ts for ts, _i in committed]
    assert len(set(stamps)) == len(stamps), "two commits share a timestamp"
    for _ts, i in committed:
        runner.body_for(specs[i])(txn)

    got: Dict[int, dict] = {}
    for (table_id, _part), rows in take_checkpoint(db).rows.items():
        mine = got.setdefault(table_id, {})
        for key, fields, _write_ts in rows:
            mine[key] = list(fields)
    assert sorted(got) == sorted(tables), (sorted(got), sorted(tables))
    wrong = [(table_id, key, got[table_id].get(key), want.get(key))
             for table_id, want in sorted(tables.items())
             for key in sorted(set(want) | set(got[table_id]), key=repr)
             if got[table_id].get(key) != want.get(key)]
    assert not wrong, (
        f"{len(wrong)} row(s) differ from the commit-order replay; "
        f"first (table, key, BionicDB, replay): {wrong[:5]}")
