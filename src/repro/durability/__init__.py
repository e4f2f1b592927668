"""Durable engine sessions: checkpoint stores, segments and the WAL.

This package turns the engine's persistence from "one big pickle per
``save()``" into a database-grade lifecycle (the Cambridge Report's
log-structured durability, applied to streaming decomposition state):

* :class:`CheckpointStore` -- the storage contract: an atomic manifest,
  per-cohort state segments, and an appendable write-ahead log;
* :class:`DirectoryCheckpointStore` -- the directory-backed
  implementation (tmp-write + rename everywhere, CRC-framed WAL);
* :class:`SingleSnapshotStore` -- the one-file store behind the legacy
  ``save``/``load`` API, now atomic;
* the format layer -- versioned manifest schema, segment/WAL codecs and
  the v1 snapshot migration;
* :mod:`repro.durability.recovery` -- the one reader of a store, drained
  by ``store.verify()`` and ``MultiSeriesEngine.open`` alike so the scrub
  and recovery cannot disagree about what is damage;
* error types that always say which file, what was found and what was
  expected.

The session API itself lives on the engine:
``MultiSeriesEngine.open(store, spec=...)`` opens (or crash-recovers) a
durable session, ``engine.checkpoint()`` writes only dirty cohorts, and
every ingested batch is WAL-appended before state advances -- see
:mod:`repro.streaming.engine`.
"""

from repro.durability.directory import DirectoryCheckpointStore
from repro.durability.errors import (
    CheckpointError,
    CheckpointVersionError,
    CorruptCheckpointError,
    StoreLockedError,
)
from repro.durability.lock import StoreLock
from repro.durability.format import (
    CHECKPOINT_FORMAT_VERSION,
    CheckpointSummary,
    migrate_snapshot_payload,
)
from repro.durability.scrub import (
    RECOVERY_POLICIES,
    QuarantinedCohort,
    QuarantinedWalSuffix,
    RecoveryReport,
    ScrubFinding,
    ScrubReport,
)
from repro.durability.store import (
    CheckpointStore,
    SingleSnapshotStore,
    atomic_write_bytes,
)

__all__ = [
    "CHECKPOINT_FORMAT_VERSION",
    "CheckpointError",
    "CheckpointStore",
    "CheckpointSummary",
    "CheckpointVersionError",
    "CorruptCheckpointError",
    "DirectoryCheckpointStore",
    "QuarantinedCohort",
    "QuarantinedWalSuffix",
    "RECOVERY_POLICIES",
    "RecoveryReport",
    "ScrubFinding",
    "ScrubReport",
    "SingleSnapshotStore",
    "StoreLock",
    "StoreLockedError",
    "atomic_write_bytes",
    "migrate_snapshot_payload",
]
