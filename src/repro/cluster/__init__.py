"""Multi-node BionicDB: shared-nothing scale-out (§4.6 future work).

The multi-node machine itself is ``repro.core.BionicDB(config,
n_nodes=k)`` — one engine, ``k`` chips; this package holds what joins
the chips (:mod:`repro.cluster.interconnect`: per-chip fabrics under
inter-node links, read-only across nodes) and the HA control plane —
membership, epoch-fenced ownership, failover, live migration — in
:mod:`repro.cluster.ha` / :mod:`repro.cluster.membership` /
:mod:`repro.cluster.migration`.
"""

from .interconnect import ClusterError, HierarchicalInterconnect, NodeLinks
from .membership import MembershipService, MembershipView
from .migration import MigrationRecord, MigrationState

__all__ = [
    "ClusterError", "HierarchicalInterconnect", "NodeLinks",
    "MembershipService", "MembershipView",
    "MigrationRecord", "MigrationState",
    "HACluster", "HAResult", "ReplicationStream", "PartitionState",
]

_HA_NAMES = ("HACluster", "HAResult", "ReplicationStream", "PartitionState")


def __getattr__(name):
    # lazy: repro.cluster.ha pulls in the host recovery stack; plain
    # data-plane users should not pay for it
    if name in _HA_NAMES:
        from . import ha
        return getattr(ha, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
