"""Checkpointing and recovery replay (§4.8).

Recovery: load the last checkpoint image, replay the committed command
logs in commit-timestamp order (uncommitted ones are ignored), then
re-initialise the hardware clocks past the latest commit timestamp and
resume transaction processing.
"""

from __future__ import annotations

import hashlib
import pickle
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

from ..core.system import BionicDB
from ..errors import BionicError, CorruptionError, StuckTransactionError
from ..mem.txnblock import BlockLayout, TxnStatus
from ..sim.engine import SimulationError, collector_quiesced
from .command_log import CommandLog, LogRecord
from .durable import read_frames, write_frames

__all__ = ["Checkpoint", "take_checkpoint", "partition_hashes",
           "RecoveryManager", "RecoveryError"]

#: magic for the framed on-disk checkpoint format
CKPT_MAGIC = b"BDBC"


class RecoveryError(BionicError, RuntimeError):
    pass


@dataclass
class Checkpoint:
    """A consistent snapshot: rows per (table, partition)."""

    #: (table_id, partition) -> list of (key, fields, write_ts)
    rows: Dict[Tuple[int, int], List[tuple]] = field(default_factory=dict)
    last_commit_ts: int = 0

    def save(self, path, faults=None) -> None:
        """Atomic, checksummed save: one frame for the commit timestamp
        plus one frame per (table, partition) — so a corrupt partition
        image names itself instead of poisoning the whole image.

        ``faults`` threads a :class:`~repro.faults.FaultPlan` into the
        atomic-replace path (crash before/after the rename)."""
        frames: List[tuple] = [("meta", self.last_commit_ts)]
        frames.extend(("rows", key, items)
                      for key, items in sorted(self.rows.items()))
        write_frames(path, CKPT_MAGIC, frames, faults=faults)

    @classmethod
    def load(cls, path) -> "Checkpoint":
        try:
            frames, _intact = read_frames(path, CKPT_MAGIC, strict=True)
        except CorruptionError as exc:
            if exc.details.get("expected") == CKPT_MAGIC:
                try:
                    return cls._load_legacy(path)
                except CorruptionError as legacy_exc:
                    raise CorruptionError(
                        "neither a framed checkpoint nor a readable "
                        "legacy pickle",
                        artifact=Path(path).name,
                        framed_error=str(exc),
                        legacy_error=str(legacy_exc)) from exc
            raise
        if not frames or frames[0][0] != "meta":
            raise CorruptionError("checkpoint missing meta frame",
                                  artifact=Path(path).name)
        ckpt = cls(last_commit_ts=frames[0][1])
        for frame in frames[1:]:
            if (not isinstance(frame, tuple) or len(frame) != 3
                    or frame[0] != "rows"):
                raise CorruptionError("checkpoint frame failed validation",
                                      artifact=Path(path).name)
            ckpt.rows[frame[1]] = frame[2]
        return ckpt

    @staticmethod
    def _load_legacy(path) -> "Checkpoint":
        """Read the pre-framing (rows, ts) pickle.

        Only unpickling and I/O failures are caught — and re-raised as
        :class:`CorruptionError` naming the original failure — so a
        genuine bug (e.g. a bad patch to this loader) still surfaces
        instead of being silently swallowed."""
        artifact = Path(path).name
        try:
            with open(Path(path), "rb") as f:
                obj = pickle.load(f)
        except (OSError, EOFError, pickle.UnpicklingError, AttributeError,
                ImportError, IndexError) as exc:
            # the pickle module's documented failure modes, plus OSError
            raise CorruptionError("legacy checkpoint pickle failed to load",
                                  artifact=artifact,
                                  cause=f"{type(exc).__name__}: {exc}") from exc
        try:
            rows, last_ts = obj
        except (TypeError, ValueError) as exc:
            raise CorruptionError(
                "legacy checkpoint is not a (rows, last_commit_ts) pair",
                artifact=artifact, got=type(obj).__name__) from exc
        if not isinstance(rows, dict) or not isinstance(last_ts, int):
            raise CorruptionError(
                "legacy checkpoint pair has unexpected types",
                artifact=artifact, rows_type=type(rows).__name__,
                ts_type=type(last_ts).__name__)
        return Checkpoint(rows=rows, last_commit_ts=last_ts)


def take_checkpoint(db: BionicDB) -> Checkpoint:
    """Snapshot every partition's committed rows (host-side, quiescent)."""
    ckpt = Checkpoint(last_commit_ts=db.hw_clock.current)
    for schema in db.schemas:
        for w, worker in enumerate(db.workers):
            if schema.replicated and w > 0:
                continue  # one copy is enough; restore re-replicates
            pipe = worker.pipeline_for(schema.table_id)
            ckpt.rows[(schema.table_id, w)] = list(
                pipe.checkpoint_rows(schema.table_id))
    return ckpt


def partition_hashes(db: BionicDB,
                     partitions: Optional[Set[int]] = None) -> Dict[str, str]:
    """Per-(table, partition) content hash over committed rows, for
    every partition or only those in ``partitions``.

    Hashes keys and fields only: write timestamps are regenerated by
    replay (the hardware clock restarts past the checkpoint) and so are
    not part of logical state equivalence.
    """
    out: Dict[str, str] = {}
    for (table, part), items in sorted(take_checkpoint(db).rows.items()):
        if partitions is not None and part not in partitions:
            continue
        digest = hashlib.sha256()
        for key, fields, _write_ts in sorted(items, key=lambda r: repr(r[0])):
            digest.update(repr((key, list(fields))).encode())
        out[f"t{table}.p{part}"] = digest.hexdigest()
    return out


class RecoveryManager:
    """Rebuilds a fresh BionicDB from a checkpoint + command log."""

    def __init__(self, db: BionicDB):
        self.db = db

    def restore_checkpoint(self, ckpt: Checkpoint,
                           partitions: Optional[set] = None) -> int:
        """Bulk-load the checkpoint image; returns rows restored.

        ``partitions`` restricts the restore to those partition ids —
        the failover/migration path, where a follower rebuilds only the
        partitions it is taking over (replicated tables, stored as a
        single partition-0 copy, are always restored)."""
        n = 0
        # one closing collection for the restore, not one per item list
        with collector_quiesced(collect_on_exit=True):
            for (table_id, partition), items in ckpt.rows.items():
                try:
                    schema = self.db.schemas.table(table_id)
                except Exception as exc:
                    raise RecoveryError(
                        f"checkpoint references table {table_id} which the "
                        f"target database does not define: {exc}",
                        table_id=table_id) from exc
                if (partitions is not None and partition not in partitions
                        and not schema.replicated):
                    continue
                # the image holds one item list per (table, partition):
                # its key and field columns go in as one run, homed
                # outright (a replicated table, kept as one copy, goes to
                # every partition)
                n += self.db.load_many(
                    columns=[(table_id, [item[0] for item in items],
                              [item[1] for item in items])],
                    partition=None if schema.replicated else partition)
        return n

    def replay(self, log: CommandLog, after_ts: int = 0,
               max_events_per_txn: Optional[int] = 2_000_000) -> int:
        """Re-execute committed blocks in commit-timestamp order.

        Replay is serial (one block at a time) so the re-execution
        reproduces the original serial commit order exactly; the
        hardware clock is then re-initialised past the latest commit
        timestamp (§4.8).

        ``after_ts`` skips records already captured by the checkpoint
        being recovered onto (pass ``ckpt.last_commit_ts`` when the
        checkpoint was taken mid-run), so pre-checkpoint inserts are
        not replayed into duplicate-key aborts.

        ``max_events_per_txn`` is the recovery watchdog: a
        corrupt-but-committed record whose re-execution never converges
        raises :class:`RecoveryError` instead of hanging recovery
        forever (pass ``None`` to disable — not recommended).
        """
        replayed = 0
        for record in log.committed_in_order():
            if record.commit_ts <= after_ts:
                continue
            try:
                block = self._rebuild_block(record)
                self.db.submit(block, record.home_worker)
            except BionicError as exc:
                raise RecoveryError(
                    f"cannot replay txn {record.txn_id}: {exc}",
                    txn_id=record.txn_id, proc_id=record.proc_id) from exc
            try:
                self.db.run(max_events=max_events_per_txn)
            except SimulationError as exc:
                raise RecoveryError(
                    f"replay of txn {record.txn_id} exhausted its event "
                    f"budget — corrupt record or runaway procedure",
                    txn_id=record.txn_id, proc_id=record.proc_id,
                    max_events=max_events_per_txn) from exc
            except StuckTransactionError as exc:
                raise RecoveryError(
                    f"replay of txn {record.txn_id} stranded the machine",
                    txn_id=record.txn_id, proc_id=record.proc_id) from exc
            if block.header.status is not TxnStatus.COMMITTED:
                raise RecoveryError(
                    f"replay of txn {record.txn_id} did not commit: "
                    f"{block.header.abort_reason}")
            replayed += 1
        self.db.hw_clock.reinitialize(max(log.max_commit_ts,
                                          self.db.hw_clock.current))
        return replayed

    def _rebuild_block(self, record: LogRecord):
        layout = BlockLayout(n_inputs=record.layout_inputs,
                             n_outputs=record.layout_outputs,
                             n_scratch=record.layout_scratch,
                             n_undo=record.layout_undo,
                             n_scan=record.layout_scan)
        return self.db.new_block(record.proc_id, list(record.inputs),
                                 layout=layout, worker=record.home_worker)
