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
advances), and the control plane is serial on the
:class:`~repro.sim.engine.Engine` its :class:`MembershipService` owns,
whose clock the replication streams and the router read too.  Each
node keeps its own machine engine, drained one transaction at a time
between two control-plane steps.

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
from ..host.recovery import (
    MAX_EVENTS_PER_TXN, RecoveryManager, partition_hashes,
)
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
    immediately and durability rests on the owner alone.  ``log`` is
    the follower's replica, the last frame of each txn winning; a
    failover takes it as the partition's authoritative log.
    """

    def __init__(self, partition: int, src: int, dst: Optional[int],
                 links: NodeLinks, membership: MembershipService):
        self.partition = partition
        self.src = src
        self.dst = dst
        self.links = links
        self.membership = membership
        self._queue: List[LogRecord] = []
        self.log = CommandLog()

    def seed(self, records: Sequence[LogRecord]) -> None:
        """Mark ``records`` as already replicated — the bulk sync that
        establishes a fresh follower (costed as part of the failover /
        re-own transfer, not per-frame)."""
        self.log = CommandLog.from_records(records)

    def ship(self, record: LogRecord) -> Optional[float]:
        """Queue one frame and pump; returns the delivery instant of the
        last queued frame, or ``None`` while anything is stuck."""
        self._queue.append(record)
        return self.pump()

    def pump(self) -> Optional[float]:
        """Ship every queued frame now; returns the last one's delivery
        instant (now, when nothing was queued), or ``None`` while one
        is stuck."""
        delivered = now_ns = self.membership.now_ns
        while self._queue:
            if self.dst is not None:
                if (self.dst in self.membership.really_dead
                        or self.dst not in self.membership.alive):
                    return None
                delivered = self.links.delivery(self.src, self.dst, now_ns,
                                                kind="repl")
                if delivered is None:
                    return None
            self.log.append_record(self._queue.pop(0))
        return delivered

    def backlog(self) -> int:
        return len(self._queue)

    def has_final(self, txn_id: int) -> bool:
        """Has the txn's finalised frame reached the follower?"""
        return self.dst is None or self.log.status_of(txn_id) in _TERMINAL


@dataclass
class PartitionState:
    """The ownership ledger entry for one global partition."""

    pid: int
    owner: int
    follower: Optional[int]
    epoch: int
    stream: ReplicationStream
    log: CommandLog = field(default_factory=CommandLog)
    #: (spec, layout, tag) held at the router while migrating
    queue: List[tuple] = field(default_factory=list)
    migration: Optional[MigrationRecord] = None

    @property
    def status(self) -> str:
        """The migration's state while it drains or transfers, else
        "open"."""
        m = self.migration
        if m is not None and m.state in (MigrationState.DRAINING,
                                         MigrationState.TRANSFER):
            return m.state.value
        return "open"


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
                 step_ns: Optional[float] = None):
        if n_nodes < 2:
            raise ValueError("high availability needs at least two nodes")
        self.n_nodes = n_nodes
        self.n_partitions = n_partitions
        self.faults = faults
        self.stats = StatsRegistry()
        self.links = NodeLinks(n_nodes, faults=faults, stats=self.stats)
        self.membership = MembershipService(n_nodes, self.links)
        self.membership.on_death(self._on_death)
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
            follower = self._pick_follower(owner)
            self.parts[p] = PartitionState(
                pid=p, owner=owner, follower=follower,
                epoch=self.membership.epoch,
                stream=ReplicationStream(p, owner, follower, self.links,
                                         self.membership))
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
    @property
    def now_ns(self) -> float:
        """The control plane's virtual time (the membership clock)."""
        return self.membership.now_ns

    def advance(self, dt: Optional[float] = None) -> None:
        """Advance virtual time: heartbeats flow, deaths get declared
        (failing partitions over), and due migrations complete."""
        self.membership.advance_to(
            self.now_ns + (dt if dt is not None else self.step_ns))
        self._pump_migrations()

    def kill_node(self, node: int) -> None:
        """The node stops. Detection (and failover) follows from the
        heartbeat silence as time advances."""
        if self.faults is not None:
            from ..faults.plan import NODE_DEATH
            if self.faults.armed(NODE_DEATH):
                self.faults.fires(NODE_DEATH, self.now_ns)
        self.membership.kill(node)

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
        return self._execute_on_owner(st, spec, layout, tag)

    def _execute_on_owner(self, st: PartitionState, spec, layout,
                          tag) -> HAResult:
        now = self.now_ns
        stream = st.stream
        stream.pump()
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
        stream.ship(LogRecord.from_block(block))
        e0 = db.engine.now
        db.submit(block, st.pid)
        db.run(max_events=MAX_EVENTS_PER_TXN)
        self.txn_engine_ns[tag] = db.engine.now - e0
        st.log.finalize(block)
        outcome = block.header.status.value
        self.results[tag] = outcome
        self.audit.append(("exec", tag, st.pid, st.epoch, st.epoch, now))
        ack_ns = stream.ship(LogRecord.from_block(block))
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
        st.stream.pump()
        status = st.log.status_of(txn_id)
        if status in _TERMINAL:
            if st.stream.has_final(txn_id):
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
                st.migration.abort("owner declared dead mid-migration")
                self.deferred.extend(st.queue)
                st.queue = []
            new_owner = st.follower
            if new_owner is None or new_owner not in self.routable:
                new_owner = self._pick_follower(node)
            if new_owner is None:
                self.audit.append(("lost", None, p, st.epoch, None, t))
                continue            # no survivor can take the partition
            replayed = self._reown(st, new_owner, st.stream.log)
            self.failovers.append((p, node, new_owner, st.epoch, t))
            self.audit.append(("failover", replayed, p, st.epoch, None, t))
        for p in sorted(self.parts):
            st = self.parts[p]
            if st.owner == node or st.follower != node:
                continue
            st.follower = self._pick_follower(st.owner)
            st.stream = self._seeded_stream(st)

    def _reown(self, st: PartitionState, node: int, log: CommandLog) -> int:
        """Hand ``st`` to ``node``: replay ``log`` past the node's
        watermark, take it as the authoritative log under a fresh
        epoch and open a seeded stream to a new follower.  Returns the
        number of records replayed."""
        watermark = self._applied_ts.get((node, st.pid), 0)
        replayed = RecoveryManager(self.nodes[node]).replay(
            log, after_ts=watermark)
        self._applied_ts[(node, st.pid)] = max(watermark, log.max_commit_ts)
        st.owner = node
        st.log = log
        st.epoch = self.membership.next_epoch()
        st.follower = self._pick_follower(node)
        st.stream = self._seeded_stream(st)
        return replayed

    def _seeded_stream(self, st: PartitionState) -> ReplicationStream:
        """A fresh stream to the (new) follower, bulk-synced with the
        authoritative log so the lag gauge restarts at zero."""
        stream = ReplicationStream(st.pid, st.owner, st.follower, self.links,
                                   self.membership)
        stream.seed(st.log.records())
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
        st.migration = m
        return m

    def _pump_migrations(self) -> None:
        for p in sorted(self.parts):
            st = self.parts[p]
            if st.status == "open":
                continue
            m = st.migration
            if m.src in self.membership.really_dead:
                # ownership never moved; the stock failover path will
                # re-home the partition once the death is declared
                m.abort("source died mid-transfer")
                self.deferred.extend(st.queue)
                st.queue = []
                continue
            if m.dst in self.membership.really_dead:
                m.abort("destination died mid-transfer")
                m.queued_released = self._release_queue(st)
                continue
            if st.status == "draining" and self.now_ns >= m.drained_ns:
                m.state = MigrationState.TRANSFER
            if self.now_ns >= m.release_ns:
                self._complete_migration(st)

    def _complete_migration(self, st: PartitionState) -> None:
        m = st.migration
        m.state = MigrationState.RE_OWN
        m.replayed = self._reown(st, m.dst, st.log)
        m.epoch_after = st.epoch
        m.unavailability_ns = m.release_ns - m.started_ns
        m.state = MigrationState.DONE
        self.audit.append(("re_own", None, st.pid, st.epoch, None,
                           m.release_ns))
        m.queued_released = self._release_queue(st)
        m.check_budget(MIGRATION_BUDGET_NS)

    def _release_queue(self, st: PartitionState) -> int:
        """Execute router-queued work on the current owner; anything
        that still cannot be placed is handed back via ``deferred``."""
        released = 0
        queue, st.queue = st.queue, []
        for idx, (spec, layout, tag) in enumerate(queue):
            try:
                res = self._execute_on_owner(st, spec, layout, tag)
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
        what :class:`repro.cluster.router.ClusterRetryRouter` joins each
        registered procedure footprint with."""
        return {p: (st.owner, st.epoch) for p, st in self.parts.items()}
