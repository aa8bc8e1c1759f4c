"""Multi-node BionicDB: shared-nothing scale-out (§4.6 future work).

The multi-node machine itself is ``repro.core.BionicDB(config,
n_nodes=k)`` — one engine, ``k`` chips; this package holds what joins
the chips (:mod:`repro.cluster.interconnect`: per-chip fabrics under
inter-node links, read-only across nodes) and the HA control plane —
membership, epoch-fenced ownership, failover, live migration — in
:mod:`repro.cluster.ha` / :mod:`repro.cluster.membership` /
:mod:`repro.cluster.migration`, plus the client-side planner in front
of it, :class:`~repro.cluster.router.ClusterRetryRouter` with its
per-partition circuit breakers (:mod:`repro.cluster.router`).
"""

from importlib import import_module

from .interconnect import ClusterError, HierarchicalInterconnect, NodeLinks
from .membership import MembershipService, MembershipView
from .migration import MigrationRecord, MigrationState

__all__ = [
    "ClusterError", "HierarchicalInterconnect", "NodeLinks",
    "MembershipService", "MembershipView",
    "MigrationRecord", "MigrationState",
    "HACluster", "HAResult", "ReplicationStream", "PartitionState",
    "ClusterRetryRouter",
]

_LAZY = {"HACluster": "ha", "HAResult": "ha", "ReplicationStream": "ha",
         "PartitionState": "ha", "ClusterRetryRouter": "router"}


def __getattr__(name):
    # lazy: repro.cluster.ha pulls in the host recovery stack and
    # repro.cluster.router the front end; plain data-plane users should
    # not pay for either
    if name in _LAZY:
        return getattr(import_module(f".{_LAZY[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
