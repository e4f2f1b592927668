"""Durable engine sessions: checkpoint stores, segments and the WAL.

This package is the engine's one persistence format, run as a
database-grade lifecycle (the Cambridge Report's log-structured
durability, applied to streaming decomposition state):

* :class:`CheckpointStore` -- the storage contract: an atomic manifest,
  per-cohort state segments, and an appendable write-ahead log;
* :class:`DirectoryCheckpointStore` -- the directory-backed
  implementation (tmp-write + rename everywhere, CRC-framed WAL);
* the format layer -- versioned manifest schema and the segment / WAL
  codecs (:mod:`repro.durability.segment` owns a segment's byte layout,
  which is also what a shard handoff ships);
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
from repro.durability.format import CHECKPOINT_FORMAT_VERSION, CheckpointSummary
from repro.durability.scrub import (
    RECOVERY_POLICIES,
    QuarantinedCohort,
    QuarantinedWalSuffix,
    RecoveryReport,
    ScrubFinding,
    ScrubReport,
)
from repro.durability.store import CheckpointStore, atomic_write_bytes

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
    "StoreLock",
    "StoreLockedError",
    "atomic_write_bytes",
]
