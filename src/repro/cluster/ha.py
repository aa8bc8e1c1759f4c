"""Cluster high availability: replicated ownership that survives nodes.

The single-node story is already crash-safe (``repro.faults`` drills);
this module makes *the cluster* safe: partition ownership is
epoch-fenced, every owner ships its command-log frames to a follower
with bounded lag, a dead node's partitions re-open on their followers
through the stock :class:`~repro.host.recovery.RecoveryManager` replay
path, and ownership can also move *deliberately* via the
drain→transfer→re-own machine in :mod:`repro.cluster.migration`.

Model shape: each node is a full-width :class:`BionicDB` (worker *p* on
every node models partition *p*'s slot; only the owner's copy
advances), and the control plane is serial over a hand-advanced virtual
clock shared with :class:`MembershipService` — the same drill-style
host loop ``repro.faults.drill`` uses, so failover drills compose with
the existing crash drills instead of inventing a second harness.

The safety contract, enforced with typed errors and an audit trail:

* **Fail fast, typed, retryable** — a submit against a dead or lagging
  owner raises :class:`PartitionUnavailableError`; an executed-but-not-
  replicated transaction raises :class:`ReplicationStalledError` (and
  is *not* acknowledged); both are :class:`~repro.errors.RetryableError`
  so the front-end retry loop can drive them.
* **Acknowledge only replicated work** — a transaction is acked only
  once its *finalize* frame has been delivered to the follower, so an
  acked commit survives the owner's death by construction.
* **Epoch fencing** — every ownership change takes a fresh epoch from
  the membership authority; a submit claiming an older epoch is
  rejected (:class:`StaleEpochError`) before execution, and every
  execution is recorded in ``audit`` with the epoch that authorized it
  so drills (and ``repro.analysis``) can prove no stale-epoch
  execution ever happened.
* **Retries never double-execute** — :meth:`HACluster.reconcile`
  consults the authoritative log before a client re-submits, the
  contract :class:`ReplicationStalledError` documents; the drills hold
  it to that by reading every partition's log for a transaction
  committed twice, not by asking ``reconcile`` again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..core.system import BionicDB
from ..errors import (
    MigrationError, PartitionUnavailableError, ReplicationStalledError,
    StaleEpochError,
)
from ..host.command_log import CommandLog, LogRecord
from ..host.recovery import RecoveryManager, partition_hashes
from ..mem.txnblock import TxnStatus
from ..sim.stats import StatsRegistry
from .interconnect import NodeLinks
from .membership import HEARTBEAT_INTERVAL_NS, MembershipService
from .migration import (
    EST_RECORD_BYTES, EST_SNAPSHOT_HEADER_BYTES, MigrationRecord,
    MigrationState,
)

__all__ = ["HAResult", "ReplicationStream", "PartitionState", "HACluster",
           "REPLICATION_MAX_LAG", "MIGRATION_BUDGET_NS",
           "TRANSFER_NS_PER_BYTE"]

#: command-log frames an owner may buffer unreplicated before it refuses
#: new transactions for the partition (bounded lag)
REPLICATION_MAX_LAG = 64
#: per-partition bound on drain→transfer→re-own unavailability (50 ms)
MIGRATION_BUDGET_NS = 50_000_000.0
#: simulated cost of bulk state transfer (~10 GB/s links)
TRANSFER_NS_PER_BYTE = 0.1

_TERMINAL = (TxnStatus.COMMITTED.value, TxnStatus.ABORTED.value)


@dataclass
class HAResult:
    """What the router tells the client about one submission."""

    status: str                     # "acked" | "queued"
    partition: int
    epoch: int
    txn_id: Optional[int] = None
    outcome: Optional[str] = None
    ack_ns: Optional[float] = None
    tag: Optional[Any] = None


class ReplicationStream:
    """Owner→follower command-log shipping with bounded-lag accounting.

    Frames (:class:`LogRecord`) are shipped in order over the shared
    :class:`NodeLinks` lanes; a frame lost to a link fault blocks the
    stream (FIFO — delivering later frames first would let a follower
    ack a suffix whose prefix is missing) until :meth:`pump` re-ships
    it.  ``backlog()`` is the bounded-lag gauge the admission path
    checks.  With no live follower (``dst is None`` — last node
    standing) the stream degrades to single-copy mode: frames apply
    immediately and durability rests on the owner alone.
    """

    def __init__(self, partition: int, src: int, dst: Optional[int],
                 links: NodeLinks, membership: MembershipService):
        self.partition = partition
        self.src = src
        self.dst = dst
        self.links = links
        self.membership = membership
        self._queue: List[LogRecord] = []
        #: frames delivered to the follower, in ship order
        self.delivered: List[LogRecord] = []
        self._final_delivered: Set[int] = set()
        self.last_delivery_ns = 0.0
        self.shipped = 0

    def seed(self, records: Sequence[LogRecord], now_ns: float) -> None:
        """Mark ``records`` as already replicated — the bulk sync that
        establishes a fresh follower (costed as part of the failover /
        re-own transfer, not per-frame)."""
        self.delivered = list(records)
        self._final_delivered = {r.txn_id for r in self.delivered
                                 if r.status in _TERMINAL}
        self.last_delivery_ns = now_ns

    def ship(self, record: LogRecord, now_ns: float) -> Optional[float]:
        """Queue one frame and pump; returns the delivery instant of the
        last queued frame, or ``None`` while anything is stuck."""
        self._queue.append(record)
        self.shipped += 1
        return self.pump(now_ns)

    def pump(self, now_ns: float) -> Optional[float]:
        while self._queue:
            if self.dst is None:
                self._apply(self._queue.pop(0))
                self.last_delivery_ns = now_ns
                continue
            if (self.dst in self.membership.really_dead
                    or self.dst not in self.membership.alive):
                return None
            arrive = self.links.delivery(self.src, self.dst, now_ns,
                                         kind="repl")
            if arrive is None:
                return None
            self._apply(self._queue.pop(0))
            self.last_delivery_ns = arrive
        return self.last_delivery_ns

    def _apply(self, record: LogRecord) -> None:
        self.delivered.append(record)
        if record.status in _TERMINAL:
            self._final_delivered.add(record.txn_id)

    def backlog(self) -> int:
        return len(self._queue)

    def has_final(self, txn_id: int) -> bool:
        """Has the txn's finalised frame reached the follower?"""
        return self.dst is None or txn_id in self._final_delivered


@dataclass
class PartitionState:
    """The ownership ledger entry for one global partition."""

    pid: int
    owner: int
    follower: Optional[int]
    epoch: int
    status: str = "open"            # open | draining | transfer
    log: CommandLog = field(default_factory=CommandLog)
    stream: Optional[ReplicationStream] = None
    #: (spec, layout, tag) held at the router while migrating
    queue: List[tuple] = field(default_factory=list)
    migration: Optional[MigrationRecord] = None


class HACluster:
    """N full-width BionicDB nodes under one epoch-fenced control plane.

    ``build_node`` constructs one node's :class:`BionicDB` (with
    ``n_workers == n_partitions``, the global partition count);
    ``install_node`` installs schema, procedures, and the bootstrap
    data snapshot on it — every node starts from the same snapshot, so
    followers only ever need log deltas, never full state.
    """

    def __init__(self, n_nodes: int, n_partitions: int,
                 build_node: Callable[[], BionicDB],
                 install_node: Callable[[BionicDB], None],
                 faults=None,
                 max_events_per_txn: int = 2_000_000,
                 start_ns: float = 0.0,
                 step_ns: Optional[float] = None):
        if n_nodes < 2:
            raise ValueError("high availability needs at least two nodes")
        self.n_nodes = n_nodes
        self.n_partitions = n_partitions
        self.faults = faults
        self.max_events_per_txn = max_events_per_txn
        self.stats = StatsRegistry()
        self.links = NodeLinks(n_nodes, faults=faults, stats=self.stats)
        self.membership = MembershipService(n_nodes, self.links,
                                            start_ns=start_ns)
        self.membership.on_death(self._on_death)
        self.now_ns = start_ns
        #: control-plane time per submission step; heartbeats flow
        #: between transactions at this cadence
        self.step_ns = step_ns if step_ns is not None \
            else HEARTBEAT_INTERVAL_NS
        self.nodes: List[BionicDB] = []
        for i in range(n_nodes):
            db = build_node()
            install_node(db)
            # disjoint txn-id ranges per node: a partition's log mixes
            # records minted by successive owners, and CommandLog keys
            # frames by txn_id
            db._txn_counter = (i + 1) * 1_000_000_000
            self.nodes.append(db)
        self.parts: Dict[int, PartitionState] = {}
        for p in range(n_partitions):
            owner = p % n_nodes
            st = PartitionState(pid=p, owner=owner, follower=None,
                                epoch=self.membership.epoch)
            st.follower = self._pick_follower(owner)
            st.stream = ReplicationStream(p, owner, st.follower, self.links,
                                          self.membership)
            self.parts[p] = st
        #: (node, partition) -> commit-ts watermark the node's local
        #: copy of the partition reflects (0 = bootstrap snapshot)
        self._applied_ts: Dict[Tuple[int, int], int] = {}
        #: ("exec"|"reject_stale"|"failover"|"re_own"|"lost",
        #:  tag, partition, epoch, claimed_epoch, t)
        self.audit: List[tuple] = []
        #: tag -> latest execution outcome (terminal status string)
        self.results: Dict[Any, str] = {}
        #: tag -> engine-ns the owner spent executing (perf accounting)
        self.txn_engine_ns: Dict[Any, float] = {}
        #: tag -> HAResult for queued work released after a migration
        self.released: Dict[Any, HAResult] = {}
        #: (spec, layout, tag) the cluster could not place — the client
        #: must reconcile/retry these
        self.deferred: List[tuple] = []
        self.failovers: List[tuple] = []   # (partition, old, new, epoch, t)
        self.migrations: List[MigrationRecord] = []
        self._last_attempt: Dict[Any, Tuple[int, int]] = {}

    # -- topology ------------------------------------------------------------
    @property
    def routable(self) -> Set[int]:
        """Nodes both declared alive and actually running."""
        return self.membership.alive - self.membership.really_dead

    def _pick_follower(self, owner: int) -> Optional[int]:
        live = self.routable
        for k in range(1, self.n_nodes):
            cand = (owner + k) % self.n_nodes
            if cand != owner and cand in live:
                return cand
        return None

    def current_epoch(self, partition: int) -> int:
        """What a client refresh returns: the partition's live epoch."""
        return self.parts[partition].epoch

    def owner_of(self, partition: int) -> int:
        return self.parts[partition].owner

    # -- the clock -----------------------------------------------------------
    def advance(self, dt: Optional[float] = None) -> float:
        """Advance virtual time: heartbeats flow, deaths get declared
        (failing partitions over), and due migrations complete."""
        self.now_ns += dt if dt is not None else self.step_ns
        self.membership.advance_to(self.now_ns)
        self._pump_migrations()
        return self.now_ns

    def kill_node(self, node: int, now_ns: Optional[float] = None) -> None:
        """The node stops. Detection (and failover) follows from the
        heartbeat silence as time advances."""
        t = now_ns if now_ns is not None else self.now_ns
        if self.faults is not None:
            from ..faults.plan import NODE_DEATH
            if self.faults.armed(NODE_DEATH):
                self.faults.fires(NODE_DEATH, t)
        self.membership.kill(node, t)

    # -- submission ----------------------------------------------------------
    def submit_spec(self, spec, layout, client_epoch: Optional[int] = None,
                    tag: Any = None) -> HAResult:
        """Route one transaction: epoch fence, availability check,
        execute on the owner, ack after follower delivery."""
        self.advance()
        now = self.now_ns
        p = spec.home
        st = self.parts[p]
        claimed = client_epoch if client_epoch is not None else st.epoch
        injected = False
        if self.faults is not None:
            from ..faults.plan import STALE_EPOCH_SUBMIT
            if self.faults.fires(STALE_EPOCH_SUBMIT, now):
                claimed = max(0, st.epoch - 1)
                injected = True
        if st.status in ("draining", "transfer"):
            st.queue.append((spec, layout, tag))
            return HAResult(status="queued", partition=p, epoch=st.epoch,
                            tag=tag)
        if claimed != st.epoch:
            self.audit.append(("reject_stale", tag, p, st.epoch, claimed, now))
            raise StaleEpochError(
                "submit fenced: ownership epoch has advanced",
                partition=p, current_epoch=st.epoch, client_epoch=claimed,
                injected=injected)
        if st.owner not in self.routable:
            raise PartitionUnavailableError(
                "partition owner unreachable", partition=p, node=st.owner,
                reason="owner dead or failover pending")
        return self._execute_on_owner(st, spec, layout, tag, now)

    def _execute_on_owner(self, st: PartitionState, spec, layout, tag,
                          now: float,
                          claimed: Optional[int] = None) -> HAResult:
        stream = st.stream
        stream.pump(now)
        if stream.backlog() > REPLICATION_MAX_LAG:
            raise PartitionUnavailableError(
                "replication lag bound exceeded — refusing before execute",
                partition=st.pid, node=st.owner, reason="bounded lag",
                backlog=stream.backlog(),
                max_lag=REPLICATION_MAX_LAG)
        db = self.nodes[st.owner]
        block = db.new_block(spec.proc_id, list(spec.inputs), layout=layout,
                             worker=st.pid)
        self._last_attempt[tag] = (st.pid, block.txn_id)
        st.log.append_pending(block)
        stream.ship(LogRecord.from_block(block), now)
        e0 = db.engine.now
        db.submit(block, st.pid)
        db.run(max_events=self.max_events_per_txn)
        self.txn_engine_ns[tag] = db.engine.now - e0
        st.log.finalize(block)
        outcome = block.header.status.value
        self.results[tag] = outcome
        self.audit.append(("exec", tag, st.pid, st.epoch,
                           claimed if claimed is not None else st.epoch, now))
        ack_ns = stream.ship(LogRecord.from_block(block), now)
        if ack_ns is None or stream.backlog() > 0:
            raise ReplicationStalledError(
                "executed but the finalize frame did not reach the follower",
                partition=st.pid, txn_id=block.txn_id, status=outcome,
                backlog=stream.backlog())
        return HAResult(status="acked", partition=st.pid, epoch=st.epoch,
                        txn_id=block.txn_id, outcome=outcome,
                        ack_ns=max(ack_ns, now), tag=tag)

    def reconcile(self, tag: Any) -> Optional[Tuple[str, str]]:
        """Consult the authoritative log before a client retries ``tag``.

        Returns ``("acked", status)`` once the txn's finalize frame is
        safely replicated (a late ack — do not re-execute),
        ``("executed", status)`` when the live owner logged it but
        replication is still stuck (keep waiting), or ``None`` when the
        authoritative log has no trace (the execution died with its
        node — re-executing is safe and required)."""
        info = self._last_attempt.get(tag)
        if info is None:
            return None
        p, txn_id = info
        st = self.parts[p]
        if st.stream is not None:
            st.stream.pump(self.now_ns)
        status = st.log.status_of(txn_id)
        if status in _TERMINAL:
            if st.stream is not None and st.stream.has_final(txn_id):
                return ("acked", status)
            if st.owner in self.routable:
                return ("executed", status)
        return None

    def durable_status(self, partition: int, txn_id: int) -> Optional[str]:
        """The authoritative (current-owner) log's word on a txn."""
        return self.parts[partition].log.status_of(txn_id)

    def attempt_of(self, tag: Any) -> Optional[Tuple[int, int]]:
        """The (partition, txn_id) of the latest execution attempt for
        ``tag`` — what a client quotes when reconciling."""
        return self._last_attempt.get(tag)

    # -- failover ------------------------------------------------------------
    def _on_death(self, node: int, epoch: int, t: float) -> None:
        """Membership declared ``node`` dead: fail its partitions over
        to their followers and re-home any followership it held."""
        for p in sorted(self.parts):
            st = self.parts[p]
            if st.owner != node:
                continue
            if st.status != "open":
                if (st.migration is not None and st.migration.state in
                        (MigrationState.DRAINING, MigrationState.TRANSFER)):
                    st.migration.abort("owner declared dead mid-migration")
                st.status = "open"
                self.deferred.extend(st.queue)
                st.queue = []
            new_owner = st.follower
            if new_owner is None or new_owner not in self.routable:
                new_owner = self._pick_follower(node)
            if new_owner is None:
                self.audit.append(("lost", None, p, st.epoch, None, t))
                continue            # no survivor can take the partition
            delivered = st.stream.delivered if st.stream is not None else []
            new_log = CommandLog.from_records(delivered)
            watermark = self._applied_ts.get((new_owner, p), 0)
            replayed = RecoveryManager(self.nodes[new_owner]).replay(
                new_log, after_ts=watermark,
                max_events_per_txn=self.max_events_per_txn)
            self._applied_ts[(new_owner, p)] = max(watermark,
                                                   new_log.max_commit_ts)
            old_owner = st.owner
            st.owner = new_owner
            st.log = new_log
            st.epoch = self.membership.next_epoch()
            st.follower = self._pick_follower(new_owner)
            st.stream = self._seeded_stream(st)
            st.status = "open"
            self.failovers.append((p, old_owner, new_owner, st.epoch, t))
            self.audit.append(("failover", replayed, p, st.epoch, None, t))
        for p in sorted(self.parts):
            st = self.parts[p]
            if st.owner == node or st.follower != node:
                continue
            st.follower = self._pick_follower(st.owner)
            st.stream = self._seeded_stream(st)

    def _seeded_stream(self, st: PartitionState) -> ReplicationStream:
        """A fresh stream to the (new) follower, bulk-synced with the
        authoritative log so the lag gauge restarts at zero."""
        stream = ReplicationStream(st.pid, st.owner, st.follower, self.links,
                                   self.membership)
        stream.seed(st.log.records(), self.now_ns)
        return stream

    # -- live migration ------------------------------------------------------
    def begin_migration(self, partition: int, dst: int) -> MigrationRecord:
        """Start drain→transfer→re-own; completes inside :meth:`advance`
        once the transfer window has elapsed."""
        now = self.now_ns
        st = self.parts[partition]
        if st.status != "open":
            raise MigrationError("partition is already migrating",
                                 partition=partition, status=st.status)
        if dst == st.owner:
            raise MigrationError("destination already owns the partition",
                                 partition=partition, node=dst)
        if dst not in self.routable:
            raise MigrationError("destination node is not alive",
                                 partition=partition, dst=dst)
        if st.owner not in self.routable:
            raise MigrationError("source node is not alive",
                                 partition=partition, src=st.owner)
        m = MigrationRecord(partition=partition, src=st.owner, dst=dst,
                            started_ns=now, epoch_before=st.epoch)
        m.drained_ns = now + self.links.inter_latency_ns   # router barrier
        watermark = self._applied_ts.get((dst, partition), 0)
        tail = [r for r in st.log.committed_in_order()
                if r.commit_ts > watermark]
        m.tail_records = len(tail)
        m.transfer_bytes = (EST_SNAPSHOT_HEADER_BYTES
                            + EST_RECORD_BYTES * len(tail))
        done = self.links.bulk_transfer_ns(
            st.owner, dst, m.transfer_bytes, m.drained_ns,
            TRANSFER_NS_PER_BYTE)
        self.migrations.append(m)
        if done is None:
            m.abort("inter-node links cut at transfer start")
            raise MigrationError("cannot start transfer: links cut",
                                 partition=partition, src=st.owner, dst=dst)
        m.release_ns = done
        st.status = "draining"
        st.migration = m
        return m

    def _pump_migrations(self) -> None:
        for p in sorted(self.parts):
            st = self.parts[p]
            m = st.migration
            if m is None or st.status not in ("draining", "transfer"):
                continue
            if m.src in self.membership.really_dead:
                # ownership never moved; the stock failover path will
                # re-home the partition once the death is declared
                m.abort("source died mid-transfer")
                st.status = "open"
                self.deferred.extend(st.queue)
                st.queue = []
                continue
            if m.dst in self.membership.really_dead:
                m.abort("destination died mid-transfer")
                st.status = "open"
                m.queued_released = self._release_queue(st, self.now_ns)
                continue
            if st.status == "draining" and self.now_ns >= m.drained_ns:
                st.status = "transfer"
                m.state = MigrationState.TRANSFER
            if self.now_ns >= m.release_ns:
                self._complete_migration(st)

    def _complete_migration(self, st: PartitionState) -> None:
        m = st.migration
        p = st.pid
        m.state = MigrationState.RE_OWN
        watermark = self._applied_ts.get((m.dst, p), 0)
        tail_log = CommandLog.from_records(
            [r for r in st.log.committed_in_order()
             if r.commit_ts > watermark])
        m.replayed = RecoveryManager(self.nodes[m.dst]).replay(
            tail_log, after_ts=watermark,
            max_events_per_txn=self.max_events_per_txn)
        self._applied_ts[(m.dst, p)] = max(watermark, st.log.max_commit_ts)
        st.owner = m.dst
        m.epoch_after = st.epoch = self.membership.next_epoch()
        st.follower = self._pick_follower(m.dst)
        st.stream = self._seeded_stream(st)
        st.status = "open"
        m.unavailability_ns = m.release_ns - m.started_ns
        m.state = MigrationState.DONE
        self.audit.append(("re_own", None, p, st.epoch, None, m.release_ns))
        m.queued_released = self._release_queue(st,
                                                max(self.now_ns, m.release_ns))
        m.check_budget(MIGRATION_BUDGET_NS)

    def _release_queue(self, st: PartitionState, t: float) -> int:
        """Execute router-queued work on the current owner; anything
        that still cannot be placed is handed back via ``deferred``."""
        released = 0
        queue, st.queue = st.queue, []
        for idx, (spec, layout, tag) in enumerate(queue):
            try:
                res = self._execute_on_owner(st, spec, layout, tag, t)
                self.released[tag] = res
                released += 1
            except (PartitionUnavailableError, ReplicationStalledError):
                # defer the rest too: executing later queued work ahead
                # of an unplaceable predecessor would reorder the
                # partition's serial history
                self.deferred.extend(queue[idx:])
                break
        return released

    # -- state inspection ----------------------------------------------------
    def partition_hashes(self) -> Dict[str, str]:
        """Per-partition content hashes read from each partition's
        *current owner* — :func:`repro.host.recovery.partition_hashes`
        per owner, over the partitions it owns."""
        by_owner: Dict[int, Set[int]] = {}
        for p, st in self.parts.items():
            by_owner.setdefault(st.owner, set()).add(p)
        out: Dict[str, str] = {}
        for owner, pset in by_owner.items():
            out.update(partition_hashes(self.nodes[owner], pset))
        return out

    def ownership_map(self) -> Dict[int, Tuple[int, int]]:
        """partition -> (owner node, epoch); what a router caches, and
        what :class:`repro.frontend.ClusterRetryRouter` joins each
        registered procedure footprint with."""
        return {p: (st.owner, st.epoch) for p, st in self.parts.items()}
