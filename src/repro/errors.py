"""The BionicDB error taxonomy.

Every exception the library raises deliberately derives from
:class:`BionicError`, so callers can catch one root instead of a grab
bag of ``ValueError``/``RuntimeError``/``KeyError``.  Each domain error
*also* keeps its historical stdlib base (``SchemaError`` is still a
``ValueError``, ``SimulationError`` still a ``RuntimeError``, …) so
existing ``except`` clauses keep working.

The hierarchy::

    BionicError
    ├── ConfigError            bad BionicConfig / SoftcoreConfig knobs
    ├── ValidationError        rejected at a host API boundary
    │   ├── SubmissionError    bad submit()/new_block()/load() arguments
    │   │   └── CrossNodeTransactionError   block homed on another node
    │   └── ProcedureNotFoundError   (also a KeyError)
    ├── VerificationError      static ISA program verification failed
    ├── WorkloadError          bad workload generator parameters
    ├── CorruptionError        durable artifact failed its integrity check
    ├── StuckTransactionError  simulation drained with live transactions
    ├── FrontendError          network front-end misuse (double attach, …)
    ├── FaultError             fault-injection plan misuse (unknown site, …)
    ├── SimulatedCrash         an injected failure killed the simulated machine
    ├── PartitionUnavailableError   [retryable] owner node dead / unreachable
    ├── StaleEpochError             [retryable] submit tagged with an old epoch
    ├── ReplicationStalledError     [retryable] executed but not safely acked
    ├── MigrationError         live-migration misuse or budget violation
    ├── HeapAddressError       store outside the heap's allocated range
    └── (rebased domain errors: IsaError, SchemaError, SimulationError,
         ExecutionError, RecoveryError, ClusterError)

Errors carry an optional structured ``details`` dict (keyword arguments
to the constructor) that is appended to the message and kept
machine-readable on the instance — useful for tests and for operators
triaging a rejected batch.

Errors additionally marked :class:`RetryableError` (a mixin, not a
``BionicError`` subclass) describe transient cluster conditions: the
request was *not* durably executed-and-acknowledged, and a client that
refreshes its routing state and retries with backoff is expected to
succeed — the contract :class:`repro.cluster.router.ClusterRetryRouter`
relies on.
"""

from __future__ import annotations

__all__ = [
    "BionicError",
    "ConfigError",
    "ValidationError",
    "SubmissionError",
    "CrossNodeTransactionError",
    "ProcedureNotFoundError",
    "VerificationError",
    "WorkloadError",
    "CorruptionError",
    "StuckTransactionError",
    "FrontendError",
    "FaultError",
    "SimulatedCrash",
    "RetryableError",
    "PartitionUnavailableError",
    "StaleEpochError",
    "ReplicationStalledError",
    "MigrationError",
    "HeapAddressError",
]


class BionicError(Exception):
    """Root of every deliberate BionicDB error.

    ``details`` keyword arguments are stored on the instance and
    rendered into the message::

        raise SubmissionError("worker out of range", worker=9, n_workers=4)
    """

    def __init__(self, message: str = "", **details):
        self.details = details
        if details:
            rendered = ", ".join(f"{k}={v!r}" for k, v in details.items())
            message = f"{message} [{rendered}]" if message else f"[{rendered}]"
        super().__init__(message)


class ConfigError(BionicError, ValueError):
    """A configuration object failed validation."""


class ValidationError(BionicError, ValueError):
    """An operation was rejected at a host API boundary."""


class SubmissionError(ValidationError):
    """A transaction block (or load/lookup) was rejected at admission."""


class CrossNodeTransactionError(SubmissionError):
    """A transaction block was submitted to a worker on a node other
    than the one whose DRAM holds the block.

    Carries the block's home-node set (``home_nodes``) and the global
    partitions involved (``partitions``) so a router can re-plan the
    transaction — re-home it, split it, or queue it for the owning
    node — instead of string-matching an error message."""


class ProcedureNotFoundError(ValidationError, KeyError):
    """No stored procedure is registered under the requested id."""

    def __str__(self) -> str:  # KeyError quotes its arg; keep the message
        return BionicError.__str__(self)


class VerificationError(BionicError, ValueError):
    """Static verification of an ISA program found fatal defects."""


class WorkloadError(BionicError, ValueError):
    """A workload generator was configured with invalid parameters."""


class CorruptionError(BionicError, RuntimeError):
    """A durable artifact (command log, checkpoint) failed its
    integrity check — truncated, bit-flipped, or structurally bogus."""


class StuckTransactionError(BionicError, RuntimeError):
    """The event heap drained while submitted transactions were still
    live — a silent hang (e.g. a RET on a CP register no DB instruction
    ever writes) that must not masquerade as a quiet run."""


class FrontendError(BionicError, RuntimeError):
    """The network front-end was misused: attaching a second front-end
    to a system that already has one, dispatching through a detached
    front-end, and similar host-side wiring mistakes."""


class FaultError(BionicError, ValueError):
    """A fault-injection plan was misconfigured: unknown injection
    site, invalid trigger predicate, appender reuse after close, …"""


class SimulatedCrash(BionicError, RuntimeError):
    """An injected fault killed the simulated machine.

    Raised by fault-injection hooks (:mod:`repro.faults`) at the instant
    the configured crash fires — mid-append, before/after an atomic
    rename, at an engine event count.  Once a machine has crashed, every
    subsequent durable write on that machine re-raises this (the disk is
    gone along with the host); harnesses catch it at the top level and
    move on to recovery."""


class RetryableError(Exception):
    """Mixin marking transient cluster errors safe to retry — catchable
    as a class of its own (``except RetryableError``).

    Not a :class:`BionicError` itself — concrete errors inherit both.
    The guarantee a retryable error makes: the request was **not**
    executed-and-acknowledged, so retrying (after refreshing routing
    state) cannot double-apply it.  Only
    :class:`~repro.cluster.ha.HACluster` raises them; its client,
    :class:`~repro.cluster.router.ClusterRetryRouter`, refreshes,
    reconciles or retries them under per-partition breakers and a retry
    budget."""


class PartitionUnavailableError(BionicError, RetryableError, RuntimeError):
    """The partition's owner node is dead, unreachable, or not yet
    failed over — fail fast instead of hanging on a dead link.  Details
    name the ``partition``, the ``node`` last known to own it, and why
    (``reason``)."""


class StaleEpochError(BionicError, RetryableError, RuntimeError):
    """A submit was tagged with an ownership epoch older than the
    partition's current one.  The transaction was **not** executed:
    accepting it could apply writes on a node that no longer owns the
    partition (the split-brain window after a failover or migration).
    The client must refresh its membership view and resubmit."""


class ReplicationStalledError(BionicError, RetryableError, RuntimeError):
    """The transaction executed on the owner but its command-log record
    could not be replicated within the bounded lag window, so it was
    not acknowledged.  A retry consults the owner's log first and never
    re-executes a committed transaction."""


class MigrationError(BionicError, RuntimeError):
    """Live partition migration misuse or failure: illegal state
    transition, migrating a partition already in motion, or blowing the
    configured unavailability budget."""


class HeapAddressError(BionicError, IndexError):
    """A store addressed a simulated-DRAM cell the bump allocator never
    handed out — a wild pointer in a pipeline, loader or test, caught
    instead of silently materialising a cell.  Details carry the
    ``addr`` and the allocator's current ``limit``."""
