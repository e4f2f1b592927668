"""On-disk checkpoint format: versioning, manifest schema, record codecs.

One format version covers every durable artifact the engine writes:

* the **store manifest** (``MANIFEST.json`` of a directory store): JSON of
  ``{format_version, generation, engine_spec, cohorts, wal}`` -- the root
  of a durable session, naming the per-cohort segment files and the
  generation's one WAL file that together reconstruct the engine (the
  file may be torn at its end or absent).  The manifest carries no
  checksum of its own: :func:`validate_manifest` checks its shape, its
  types, its names and the shape of its engine spec, and a valid
  manifest is the store's truth;
* **cohort segments**: one cohort of series, as the state arrays of the
  members that live in kernel columns plus a pickle of ``{key: per-series
  state}`` for the members that do not
  (:mod:`repro.durability.segment` owns the byte layout;
  :func:`encode_segment` / :func:`decode_segment` here are the
  scalar-state codec of that fallback section).  The same bytes move a
  series between engines (``extract_series`` / ``adopt_series``);
* **WAL records**: a pickle of one ingested batch in columnar form,
  appended *before* the engine advances its state.

Version history
---------------
1, 2
    A one-file pickled snapshot and a manifest naming one WAL file
    (``wal-GGGGGGGG.log``).  No longer read: such an artifact is a
    :class:`CheckpointVersionError` naming the found and the expected
    version, and nothing on disk is touched.
3
    The manifest's ``wal`` entry is a list of WAL part names
    (``wal-GGGGGGGG-PPPP.log``) and every build names one part,
    :func:`wal_name` of the manifest's generation: the ``PPPP`` field is
    always ``0000``.  (Builds of format 3 and 4 could rotate the log into
    further parts of one generation when asked to; this build refuses a
    store holding such a part, see :mod:`repro.durability.recovery`.)
    Every segment is a pickle of ``{key: per-series state}`` --
    version 4's fallback section, read by the same code -- and the WAL
    may hold ``raw_rows`` records, which still replay.  The oldest store that opens.  A solver
    pickled in the dense form that preceded the Schur form (a state
    carrying ``_incremental``) is refused as undecodable, not replayed.
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
    and the next checkpoint writes them as columns.  Manifests and WAL
    records are unchanged; a version-3 manifest reads by stamping the
    version.  The first version-4 builds also wrote each column's latency
    ring, as two more sections per group (``latency_counts``,
    ``latency_values``); latency is a measurement, not state, so those
    sections are read and dropped, and no segment written since carries
    them.

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
from repro.specs import EngineSpec

__all__ = [
    "CHECKPOINT_FORMAT_VERSION",
    "MIGRATABLE_FORMAT_VERSIONS",
    "CheckpointSummary",
    "build_manifest",
    "decode_segment",
    "decode_wal_record",
    "encode_segment",
    "encode_wal_record",
    "segment_name",
    "validate_manifest",
    "wal_name",
    "wal_position",
]

#: version stamp written into (and required from) every durable artifact
CHECKPOINT_FORMAT_VERSION = 4

#: older store versions that open as they are
MIGRATABLE_FORMAT_VERSIONS = (3,)

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


def wal_name(generation: int) -> str:
    """File name of the WAL that follows checkpoint ``generation``."""
    return f"wal-{generation:08d}-0000.log"


_WAL_NAME = re.compile(r"^wal-(\d{8})-(\d{4})\.log$")


def wal_position(name: str) -> tuple[int, int] | None:
    """``(generation, part)`` of a WAL file name; ``None`` for any other file.

    This build writes part 0 alone; a later part is what an older build
    that rotated the log left behind.
    """
    match = _WAL_NAME.match(name)
    if match is None:
        return None
    return int(match.group(1)), int(match.group(2))


# ----------------------------------------------------------------- manifest


def build_manifest(
    generation: int,
    engine_spec: dict,
    cohorts: list[dict],
) -> dict:
    """Assemble a manifest document (plain JSON-able data)."""
    return {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "generation": int(generation),
        "engine_spec": engine_spec,
        "cohorts": cohorts,
        "wal": [wal_name(generation)],
    }


def _is_count(value: Any) -> bool:
    """Whether ``value`` is an integer >= 0 (a ``bool`` is not one)."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def validate_manifest(manifest: Any, source: object) -> dict:
    """Check a decoded manifest; raise with file context if it is bad.

    What recovery reads as a number is one (``format_version``,
    ``generation``, cohort ``id`` and, when present, ``series`` and
    ``crc``: integers >= 0), cohort ids are unique, ``wal`` names the
    generation's one WAL file and ``engine_spec`` decodes to an
    :class:`~repro.specs.EngineSpec`, so a manifest that passes opens and
    keeps every series through its next checkpoint.  That the components
    the spec names are registered is checked later, once the segments are
    read (:func:`repro.durability.recovery.check_components`).  A version
    this build does not read is :class:`CheckpointVersionError`.
    """
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
    for field in ("format_version", "generation"):
        if not _is_count(manifest[field]):
            raise CorruptCheckpointError(
                f"{source}: manifest {field!r} must be an integer >= 0, "
                f"found {manifest[field]!r}"
            )
    version = manifest["format_version"]
    if version != CHECKPOINT_FORMAT_VERSION and version not in (
        MIGRATABLE_FORMAT_VERSIONS
    ):
        raise CheckpointVersionError(source, version, CHECKPOINT_FORMAT_VERSION)
    cohorts = manifest["cohorts"]
    if not isinstance(cohorts, list) or not all(
        isinstance(cohort, Mapping)
        and _is_count(cohort.get("id"))
        and all(_is_count(cohort[name]) for name in ("series", "crc") if name in cohort)
        and isinstance(segment := cohort.get("segment"), str)
        and os.path.basename(segment) == segment
        for cohort in cohorts
    ):
        raise CorruptCheckpointError(
            f"{source}: manifest 'cohorts' must be a list of {{id, segment, "
            "...}} objects with integer ids >= 0 (and integer series / crc "
            "when present) naming bare segment files"
        )
    ids = [cohort["id"] for cohort in cohorts]
    if len(set(ids)) != len(ids):
        raise CorruptCheckpointError(
            f"{source}: manifest cohort ids must be unique, found {ids}"
        )
    expected = [wal_name(manifest["generation"])]
    if manifest["wal"] != expected:
        raise CorruptCheckpointError(
            f"{source}: manifest 'wal' must name its generation's one WAL "
            f"file, {expected!r}, found {manifest['wal']!r}"
        )
    try:
        EngineSpec.from_dict(manifest["engine_spec"])
    except (ValueError, TypeError, KeyError, AttributeError) as error:
        raise CorruptCheckpointError(
            f"{source}: manifest 'engine_spec' is not an engine spec "
            f"({type(error).__name__}: {error})"
        ) from error
    validated = dict(manifest)
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
