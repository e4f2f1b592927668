"""The one reader of a durable store: cohort segments, then the WAL.

A series' state is the product of *every* point in order, so a log
replayed with a hole in it yields state the algorithm never produces.
What a store holds, and where it stops being readable, is therefore
decided only here, and both consumers drain it:
``DirectoryCheckpointStore.verify`` files what the reader reports as
:class:`~repro.durability.scrub.ScrubFinding` rows, and
``MultiSeriesEngine.open`` applies the records it yields and lets the
``strict | truncate | quarantine`` policy decide what to do about a
cohort error or a :class:`WalStop`.  ``ScrubReport.ok`` ("a strict
recovery would succeed") holds because the two cannot walk differently.

* A cohort is its segment's bytes, checked against the manifest's CRC
  and split (:func:`repro.durability.segment.split_segment`) into the
  array sections of its column groups, whose structure is checked, not
  unpickled, and a fallback section, which is unpickled and (when the
  caller names a type) type-checked per series.  A segment of format 3
  is all fallback, and a shard handoff payload is a segment without a
  manifest; there is no second reader.
* Once the cohorts are read, every component the manifest's engine spec
  names must be registered (:func:`check_components`).
* A generation's WAL is one file, :func:`~repro.durability.format.wal_name`
  of its generation.  Unread bytes after its last readable frame are
  crash debris (a kill mid-append) -- unless, from some later byte,
  CRC-valid frames run exactly to the end of the file: a crash tears only
  the end, so those were acknowledged after a damaged frame (its length
  field included), and the walk stops at it.  So it does at a frame that
  passes its CRC but does not decode.  A whole last frame that fails its
  CRC is debris too, but it was acknowledged: one record lost.
* A later part of the same generation (:func:`stray_wal_parts`) can only
  have been left by a build that rotated the log and crashed before its
  next checkpoint.  Its records follow the file's, so no policy replays
  the file without them: the store is refused, whatever the policy.

The reader never repairs, moves or truncates anything.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterator, Mapping

from repro.durability.errors import CorruptCheckpointError
from repro.durability.format import (
    decode_segment,
    decode_wal_record,
    wal_position,
)
from repro.durability.segment import SEGMENT_MAGIC, ColumnGroup, split_segment
from repro.specs import EngineSpec

if TYPE_CHECKING:  # the store imports this module
    from repro.durability.directory import DirectoryCheckpointStore

__all__ = [
    "STRAY_PART",
    "WalStop",
    "WalWalk",
    "check_components",
    "read_cohort",
    "stray_wal_parts",
    "unpack_cohort",
]


def unpack_cohort(
    payload: bytes, source: object, state_type: type | None = None
) -> tuple[list[ColumnGroup], dict]:
    """``(column groups, {key: state})`` of a segment's bytes (a store's,
    once its CRC passed, or a handoff payload), or raise
    ``CorruptCheckpointError(problem="undecodable")``.

    The groups are array sections (views of the bytes, structurally
    checked; what they must hold to be a kernel is the engine's check),
    the mapping the unpickled fallback section, type-checked when
    ``state_type`` is named.
    """
    groups, fallback = split_segment(payload, source)
    # A columnar payload says what it holds; anything else is one pickle.
    columnar = payload[: len(SEGMENT_MAGIC)] == SEGMENT_MAGIC
    states = decode_segment(fallback, source) if fallback or not columnar else {}
    if state_type is not None:
        for key, state in states.items():
            if not isinstance(state, state_type):
                raise CorruptCheckpointError(
                    f"{source}: checkpoint per-series state is malformed "
                    f"(key {key!r} holds a {type(state).__name__}, "
                    f"expected {state_type.__name__})",
                    problem="undecodable",
                )
    return groups, states


def read_cohort(
    store: DirectoryCheckpointStore,
    cohort: Mapping[str, Any],
    decode: bool = True,
    state_type: type | None = None,
) -> tuple[list[ColumnGroup], dict] | None:
    """One manifest cohort's ``(column groups, {key: state})``, or raise
    saying what is wrong.

    The segment's bytes are checked against the manifest's CRC, then
    decoded by :func:`unpack_cohort`.  Every failure is a
    :class:`CorruptCheckpointError` whose ``problem`` is ``missing``,
    ``crc_mismatch`` or ``undecodable``.  ``decode=False`` stops after
    the CRC (a shallow scrub) and returns ``None``.
    """
    name = cohort["segment"]
    source = f"{store.root}/{name}"
    payload = store.read_segment(name)
    expected = cohort.get("crc")
    if expected is not None and zlib.crc32(payload) != expected:
        raise CorruptCheckpointError(
            f"{source}: segment bytes fail their manifest CRC (found "
            f"{zlib.crc32(payload)}, manifest says {expected})",
            problem="crc_mismatch",
        )
    if not decode:
        return None
    return unpack_cohort(payload, source, state_type)


def check_components(manifest: Mapping[str, Any], source: object) -> None:
    """Raise ``CorruptCheckpointError`` unless every component a validated
    manifest's engine spec names -- overrides included -- is registered.

    Both readers call it once the cohorts are decoded, before the WAL: a
    fallback section's unpickling imports the modules its states' classes
    live in, and a module that registers a plugin component does so on
    import, so a store whose spec names a plugin the reading process has
    not imported yet still reads.
    """
    spec = EngineSpec.from_dict(manifest["engine_spec"])
    try:
        for pipeline in (spec.pipeline, *spec.overrides.values()):
            pipeline.decomposer.component_class()
            pipeline.detector.component_class()
    except KeyError as error:
        raise CorruptCheckpointError(
            f"{source}: manifest 'engine_spec' names a component this "
            f"process has not registered ({error})"
        ) from error


#: what is wrong with a part :func:`stray_wal_parts` names
STRAY_PART = (
    "a WAL part past its generation's one file: a build that rotated the "
    "log left it, and every recovery policy refuses the store unchanged "
    "(open and checkpoint it with that build first)"
)


def stray_wal_parts(store: DirectoryCheckpointStore, generation: int) -> list[str]:
    """Names of the WAL parts of ``generation`` past its one file, sorted."""
    return [
        name
        for name in store.list_wals()
        if (position := wal_position(name)) is not None
        and position[0] == generation
        and position[1] > 0
    ]


@dataclass(frozen=True, slots=True)
class WalStop:
    """Where the WAL stopped being readable.

    ``frames_lost`` counts what can no longer be replayed: the
    damaged frame and the readable ones after it.
    """

    segment: str
    offset: int
    problem: str
    reason: str
    frames_lost: int


class WalWalk:
    """One in-order pass over the WAL file ``name``.

    Iterating yields each record (decoded, or the raw payload with
    ``decode=False``) up to the end of the file or its first damaged
    frame -- one that does not decode, or one that does not read while
    CRC-valid frames run from a later byte to the end of the file
    (``DirectoryCheckpointStore.wal_resync``).  Afterwards ``stop`` says
    where and why the walk ended early (``None``: it did not), ``torn``
    is the ``(name, offset, n_bytes, frames_lost)`` of crash debris after
    the last readable frame -- ``frames_lost`` 1 when the debris is a
    whole frame that fails its CRC, else 0 -- and ``frames`` the number
    of records yielded.  An absent file holds nothing: it is the window
    between a checkpoint's manifest swap and the new file's creation.
    """

    def __init__(
        self, store: DirectoryCheckpointStore, name: str, decode: bool = True
    ):
        self.store = store
        self.name = name
        self.decode = decode
        self.stop: WalStop | None = None
        self.torn: tuple[str, int, int, int] | None = None
        self.frames = 0

    def __iter__(self) -> Iterator[Any]:
        name = self.name
        offset = 0
        frames = self.store.wal_frames(name)
        for payload, end in frames:
            record: Any = payload
            if self.decode:
                try:
                    record = decode_wal_record(payload, f"{self.store.root}/{name}")
                except CorruptCheckpointError as error:
                    lost = 1 + sum(1 for _ in frames)
                    self.stop = WalStop(name, offset, error.problem, str(error), lost)
                    return
            self.frames += 1
            offset = end
            yield record
        unread = (self.store.wal_size(name) or 0) - offset
        if not unread:
            return
        # Whatever of the frame is damaged -- its length field included --
        # frames that read on to the end of the file were acknowledged
        # after it: damage, not a torn last append.
        resync = self.store.wal_resync(name, offset)
        if resync is not None:
            start, later = resync
            reason = (
                f"the frame at byte offset {offset} does not read (its CRC "
                f"or its length is damaged) and {later} readable frame(s) "
                f"from byte {start} run to the end of the file after it"
            )
            self.stop = WalStop(name, offset, "crc_mismatch", reason, 1 + later)
        else:
            whole = self.store.wal_frame_end(name, offset) is not None
            self.torn = (name, offset, unread, int(whole))
