"""The one reader of a durable store: cohort segments, then the WAL chain.

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
* The chain is the manifest's parts extended by every rotated successor
  that *exists* -- a crash can land between opening a part and its first
  append, so record counts would miss the live tail.
* Unread bytes after the last complete frame are crash debris on the
  chain's *final* part and damage anywhere else; so is a sealed part
  that is empty or absent (rotation only seals a part that holds a
  frame), and a frame that passes its CRC but does not decode.

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
    next_wal_name,
    wal_position,
)
from repro.durability.segment import SEGMENT_MAGIC, ColumnGroup, split_segment
from repro.specs import EngineSpec

if TYPE_CHECKING:  # the store imports this module
    from repro.durability.directory import DirectoryCheckpointStore

__all__ = [
    "WalStop",
    "WalWalk",
    "check_components",
    "read_cohort",
    "unpack_cohort",
    "wal_chain",
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


def wal_chain(
    store: DirectoryCheckpointStore, manifest_chain: list[str]
) -> tuple[list[str], list[str]]:
    """``(chain, stranded)``: the parts to replay, and those past a gap.

    ``stranded`` are parts of the chain's generation that exist beyond
    its last member; when there are any, the absent part they follow
    joins ``chain``, so the walk ends *on the gap* instead of taking the
    part before it for the live tail.
    """
    chain = list(manifest_chain)
    while True:
        successor = next_wal_name(chain[-1])
        if not store.wal_exists(successor):
            break
        chain.append(successor)
    tail = wal_position(chain[-1])
    stranded = sorted(
        name
        for name in store.list_wals()
        if (position := wal_position(name)) is not None
        and tail is not None
        and position[0] == tail[0]
        and position[1] > tail[1]
    )
    if stranded:
        chain.append(successor)
    return chain, stranded


@dataclass(frozen=True, slots=True)
class WalStop:
    """Where a chain stopped being readable, and what lies beyond.

    ``later`` are the parts after ``segment`` that exist on disk.
    ``frames_lost`` counts what can no longer be replayed: an undecodable
    frame and the complete ones after it, or one for a run of unreadable
    bytes (a lower bound), plus every complete frame of the later parts.
    """

    segment: str
    offset: int
    problem: str
    reason: str
    frames_lost: int
    later: tuple[str, ...]


class WalWalk:
    """One in-order pass over a store's WAL chain.

    Iterating yields each record (decoded, or the raw payload with
    ``decode=False``) up to the end of the chain or the first damage;
    afterwards ``stop`` says where and why the walk ended early (``None``:
    it did not), ``torn`` is the ``(segment, offset, n_bytes)`` of crash
    debris on the final part, ``frames`` the number of records yielded
    and ``parts`` the number of chain parts found on disk.
    """

    def __init__(
        self,
        store: DirectoryCheckpointStore,
        manifest_chain: list[str],
        decode: bool = True,
    ):
        self.store = store
        self.decode = decode
        self.chain, self.stranded = wal_chain(store, manifest_chain)
        self.stop: WalStop | None = None
        self.torn: tuple[str, int, int] | None = None
        self.frames = 0
        self.parts = 0

    def __iter__(self) -> Iterator[Any]:
        source = self.store.root
        final = len(self.chain) - 1 if not self.stranded else -1
        for position, name in enumerate(self.chain):
            offset = 0
            frames = self.store.wal_frames(name)
            for payload, end in frames:
                record: Any = payload
                if self.decode:
                    try:
                        record = decode_wal_record(payload, f"{source}/{name}")
                    except CorruptCheckpointError as error:
                        lost = 1 + sum(1 for _ in frames)
                        self._stopped(position, offset, error.problem, str(error), lost)
                        return
                self.frames += 1
                offset = end
                yield record
            size = self.store.wal_size(name)
            self.parts += size is not None
            unread = (size or 0) - offset
            if position == final:
                if unread:
                    self.torn = (name, offset, unread)
            elif unread:
                reason = (
                    f"{unread} unreadable bytes at offset {offset} of a "
                    "non-final chain part"
                )
                self._stopped(position, offset, "trailing_bytes", reason, 1)
                return
            elif not offset:
                # rotation only seals a part after an append
                problem = "missing" if size is None else "empty"
                reason = "a sealed chain part holds no record: the chain has a gap"
                self._stopped(position, 0, problem, reason, 0)
                return

    def _stopped(
        self, position: int, offset: int, problem: str, reason: str, lost: int
    ) -> None:
        later = tuple(
            name
            for name in (*self.chain[position + 1 :], *self.stranded)
            if self.store.wal_exists(name)
        )
        lost += sum(1 for name in later for _ in self.store.wal_frames(name))
        self.stop = WalStop(
            self.chain[position], offset, problem, reason, lost, later
        )
