"""On-disk checkpoint format: versioning, manifest schema, record codecs.

One format version covers every durable artifact the engine writes:

* the **single-file snapshot** (``MultiSeriesEngine.save``): a pickle of
  ``{format_version, engine_spec, series, generation}``;
* the **store manifest** (``MANIFEST.json`` of a directory store): JSON of
  ``{format_version, generation, engine_spec, cohorts, wal}`` -- the root
  of a durable session, naming the per-cohort segment files and the WAL
  chain that together reconstruct the engine (the chain continues, by
  :func:`next_wal_name`, through every rotated part that exists; only
  its final part may be torn or absent).  The manifest carries no
  checksum of its own: :func:`validate_manifest` checks its shape and
  its names, and a valid manifest is the store's truth;
* **cohort segments**: one cohort of series, as the state arrays of the
  members that live in kernel columns plus a pickle of ``{key: per-series
  state}`` for the members that do not
  (:mod:`repro.durability.segment` owns the byte layout;
  :func:`encode_segment` / :func:`decode_segment` here are the
  scalar-state codec of that fallback section);
* **WAL records**: a pickle of one ingested batch in columnar form,
  appended *before* the engine advances its state.

Version history
---------------
1
    PR 2's single-file snapshot: ``{format_version, engine_spec, series}``.
2
    Adds the durable-session artifacts (manifest / segments / WAL) and a
    ``generation`` lineage counter to the single-file snapshot.  Version-1
    snapshots are migrated on read (:func:`migrate_snapshot_payload`):
    the per-series state is unchanged, so migration only stamps the new
    fields.
3
    The manifest's ``wal`` entry becomes an ordered *chain* of WAL
    segment names (size-based rotation seals a segment and opens the
    next part), and WAL file names gain a part suffix
    (``wal-GGGGGGGG-PPPP.log``).  Version-2 manifests and snapshots are
    migrated on read: the single WAL name is wrapped into a length-1
    chain; per-series and per-cohort state is unchanged.
4
    A cohort segment is the columns themselves.  Series absorbed into
    the fleet kernel are written as a gathered copy of their kernel
    state -- a magic, a JSON header (per kernel group: pipeline spec,
    resolved hyper-parameters, keys in column order, one ``{name, dtype,
    shape}`` per array) and the raw little-endian arrays -- with no
    scalar object built and no pickle on the way out, and read back with
    ``np.frombuffer``.  Series that are not columns (warming, not
    kernel-eligible, in too small a cohort) ride behind the arrays in a
    fallback section: the version-3 pickle of ``{key: per-series
    state}``, unchanged.  Segments **self-identify** by their first
    bytes, because a version-4 manifest legitimately names version-3
    segments (cohorts that were clean at the first version-4 checkpoint
    keep their file byte for byte).  A version-3 store is therefore read
    as a store whose every segment is all fallback: no upgrade step, no
    second reader; its series re-enter the kernel at their first batch
    and the next checkpoint writes them as columns.  Manifests, WAL
    records and single-file snapshots are unchanged and migrate by
    stamping the version.

The codecs here are pure data-plumbing -- they know nothing about the
engine -- so the streaming layer can evolve independently of the bytes on
disk, and a future sharding router can read manifests without importing
the engine at all.  Reading a *store* with them -- which artifacts, in
which order, and what counts as damage -- is
:mod:`repro.durability.recovery`.
"""

from __future__ import annotations

import os
import pickle
import re
from dataclasses import dataclass
from typing import Any, Mapping

from repro.durability.errors import CheckpointVersionError, CorruptCheckpointError

__all__ = [
    "CHECKPOINT_FORMAT_VERSION",
    "MIGRATABLE_FORMAT_VERSIONS",
    "CheckpointSummary",
    "build_manifest",
    "decode_segment",
    "decode_wal_record",
    "encode_segment",
    "encode_wal_record",
    "migrate_snapshot_payload",
    "next_wal_name",
    "segment_name",
    "validate_manifest",
    "wal_name",
    "wal_position",
]

#: version stamp written into (and required from) every durable artifact
CHECKPOINT_FORMAT_VERSION = 4

#: older artifact versions that migrate transparently on read
MIGRATABLE_FORMAT_VERSIONS = (1, 2, 3)

#: manifest keys required by :func:`validate_manifest`
_MANIFEST_KEYS = ("format_version", "generation", "engine_spec", "cohorts", "wal")


@dataclass(frozen=True)
class CheckpointSummary:
    """What one ``engine.checkpoint()`` call actually wrote.

    ``cohorts_written``/``series_written`` cover only *dirty* cohorts --
    on a mostly-idle fleet they are a small fraction of
    ``cohorts_total``/``series_total``, which is the whole point of
    incremental checkpoints.
    """

    generation: int
    cohorts_total: int
    cohorts_written: int
    series_total: int
    series_written: int


def segment_name(generation: int, cohort_id: int) -> str:
    """Canonical file name of one cohort's segment at one generation."""
    return f"seg-{generation:08d}-{cohort_id:06d}.seg"


def wal_name(generation: int, part: int = 0) -> str:
    """Canonical file name of WAL part ``part`` following ``generation``."""
    return f"wal-{generation:08d}-{part:04d}.log"


#: both WAL name shapes: v3 ``wal-GGGGGGGG-PPPP.log`` and the legacy v2
#: ``wal-GGGGGGGG.log`` (a rotation of a legacy name continues at part 1)
_WAL_NAME = re.compile(r"^wal-(\d{8})(?:-(\d{4}))?\.log$")


def wal_position(name: str) -> tuple[int, int] | None:
    """``(generation, part)`` of a WAL part name; ``None`` for any other file."""
    match = _WAL_NAME.match(name)
    if match is None:
        return None
    return int(match.group(1)), int(match.group(2) or 0)


def next_wal_name(name: str) -> str:
    """Name of the WAL part that follows ``name`` after a rotation."""
    position = wal_position(name)
    if position is None:
        raise ValueError(f"not a WAL segment name: {name!r}")
    return wal_name(position[0], position[1] + 1)


# ---------------------------------------------------------------- snapshots


def migrate_snapshot_payload(payload: Any, source: object) -> dict:
    """Validate a single-file snapshot payload, migrating old versions.

    Returns a payload at :data:`CHECKPOINT_FORMAT_VERSION`.  Raises
    :class:`CorruptCheckpointError` when the payload is not a snapshot at
    all, and :class:`CheckpointVersionError` when it comes from a version
    this build neither speaks nor migrates -- both naming ``source``.
    """
    if not isinstance(payload, Mapping) or "format_version" not in payload:
        found = (
            f"keys {sorted(payload)}"
            if isinstance(payload, Mapping)
            else f"a {type(payload).__name__}"
        )
        raise CorruptCheckpointError(
            f"{source}: not a MultiSeriesEngine checkpoint (missing "
            f"format_version; found {found})"
        )
    version = payload["format_version"]
    if version == CHECKPOINT_FORMAT_VERSION:
        return dict(payload)
    if version in MIGRATABLE_FORMAT_VERSIONS:
        # Older -> current: the per-series state is unchanged; stamp the
        # lineage counter (a v1 snapshot predates generations).  The WAL
        # chain and columnar segments live only in directory stores, so
        # single-file snapshots need nothing else.
        migrated = dict(payload)
        migrated["format_version"] = CHECKPOINT_FORMAT_VERSION
        migrated.setdefault("generation", 0)
        return migrated
    raise CheckpointVersionError(
        source,
        version,
        CHECKPOINT_FORMAT_VERSION,
        detail=(
            f"migratable older versions: {list(MIGRATABLE_FORMAT_VERSIONS)}; "
            "re-save the checkpoint with a matching build"
        ),
    )


# ----------------------------------------------------------------- manifest


def build_manifest(
    generation: int,
    engine_spec: dict,
    cohorts: list[dict],
    wal: str | list[str],
) -> dict:
    """Assemble a manifest document (plain JSON-able data).

    ``wal`` is the ordered chain of WAL segment names to replay; a bare
    string is normalized into a length-1 chain.
    """
    chain = [wal] if isinstance(wal, str) else list(wal)
    return {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "generation": int(generation),
        "engine_spec": engine_spec,
        "cohorts": cohorts,
        "wal": chain,
    }


def validate_manifest(manifest: Any, source: object) -> dict:
    """Check a decoded manifest's shape; raise with file context if bad."""
    if not isinstance(manifest, Mapping):
        raise CorruptCheckpointError(
            f"{source}: manifest must be a JSON object, found "
            f"{type(manifest).__name__}"
        )
    missing = [key for key in _MANIFEST_KEYS if key not in manifest]
    if missing:
        raise CorruptCheckpointError(
            f"{source}: manifest is missing required keys {missing} "
            f"(expected {list(_MANIFEST_KEYS)}, found {sorted(manifest)})"
        )
    version = manifest["format_version"]
    if version != CHECKPOINT_FORMAT_VERSION and version not in (
        MIGRATABLE_FORMAT_VERSIONS
    ):
        raise CheckpointVersionError(source, version, CHECKPOINT_FORMAT_VERSION)
    cohorts = manifest["cohorts"]
    if not isinstance(cohorts, list) or not all(
        isinstance(cohort, Mapping)
        and "id" in cohort
        and isinstance(segment := cohort.get("segment"), str)
        and os.path.basename(segment) == segment
        for cohort in cohorts
    ):
        raise CorruptCheckpointError(
            f"{source}: manifest 'cohorts' must be a list of "
            "{id, segment, ...} objects naming bare segment files"
        )
    validated = dict(manifest)
    # v2 -> v3: the single WAL name becomes a length-1 chain.
    wal = validated["wal"]
    chain = [wal] if isinstance(wal, str) else wal
    if not (
        isinstance(chain, list)
        and chain
        and all(isinstance(name, str) and wal_position(name) for name in chain)
    ):
        raise CorruptCheckpointError(
            f"{source}: manifest 'wal' must be a non-empty ordered list of "
            f"WAL segment names, found {wal!r}"
        )
    validated["wal"] = chain
    validated["format_version"] = CHECKPOINT_FORMAT_VERSION
    return validated


# ----------------------------------------------------------------- segments


def encode_segment(states: dict) -> bytes:
    """Serialize a ``{key: per-series state}`` mapping (the scalar-state
    codec: a whole segment before format 4, the fallback section since)."""
    return pickle.dumps(states, protocol=pickle.HIGHEST_PROTOCOL)


def decode_segment(payload: bytes, source: object) -> dict:
    """Deserialize a cohort segment, raising with file context if bad."""
    try:
        states = pickle.loads(payload)
    except Exception as error:
        raise CorruptCheckpointError(
            f"{source}: cohort segment is not a readable pickle ({error})",
            problem="undecodable",
        ) from error
    if not isinstance(states, dict):
        raise CorruptCheckpointError(
            f"{source}: cohort segment must decode to a dict of per-series "
            f"state, found {type(states).__name__}",
            problem="undecodable",
        )
    return states


# -------------------------------------------------------------- WAL records


def encode_wal_record(kind: str, *parts: object) -> bytes:
    """Serialize one WAL record: an ingested batch in columnar form."""
    return pickle.dumps((kind, *parts), protocol=pickle.HIGHEST_PROTOCOL)


def decode_wal_record(payload: bytes, source: object) -> tuple:
    """Deserialize a WAL record, raising with file context if bad."""
    try:
        record = pickle.loads(payload)
    except Exception as error:
        raise CorruptCheckpointError(
            f"{source}: WAL record is not a readable pickle ({error})",
            problem="undecodable",
        ) from error
    if not isinstance(record, tuple) or not record or not isinstance(record[0], str):
        raise CorruptCheckpointError(
            f"{source}: WAL record must decode to a (kind, ...) tuple, "
            f"found {type(record).__name__}",
            problem="undecodable",
        )
    return record
