"""Directory-backed checkpoint store: manifest + segments + WAL files.

Layout under the root directory::

    MANIFEST.json            -- JSON manifest (the commit point)
    segments/seg-*           -- per-cohort state blobs (``.seg``; a
                                cohort untouched since a format-3 build
                                wrote it keeps its ``.pkl`` file)
    wal/wal-*.log            -- the write-ahead log, one file per
                                checkpoint generation

Durability model
----------------
* **Manifest and segments** are written with tmp-file + ``fsync`` +
  ``os.replace`` + directory fsync, so each file is atomically either its
  old or its new content after a crash.  The manifest rename is the commit
  point of a checkpoint: segments referenced only by an un-renamed
  manifest are garbage, never half-adopted state.
* **WAL appends** are length- and CRC-framed.  Reading a part stops at
  the first incomplete or checksum-failing frame, so a crash mid-append
  costs at most the in-flight record and can never corrupt recovery.
  Appends are flushed to the OS on every record (surviving a process
  crash); pass ``wal_sync=True`` to also ``fsync`` per append and survive
  host power loss at a substantial throughput cost.
* **Group commit**: :meth:`wal_append_many` frames a whole batch of
  records up front and writes it with *one* ``flush`` (and one ``fsync``
  when ``wal_sync=True``).  Framing is identical to per-record appends,
  so replay cannot tell the difference; a crash mid-batch loses only a
  suffix of the batch (each surviving record is complete).
* **One file per generation**: the WAL grows until the next checkpoint,
  which starts ``format.wal_name(generation)`` and prunes the old one,
  so replay after a crash is bounded by the data since the last
  checkpoint.

Fault injection
---------------
``fault_hook`` (``None`` by default) is called with a symbolic kill-point
name at every interesting moment -- ``wal.append.before/torn/after``
(once per batch for group commits; the torn simulation persists half the
*batch*, i.e. some complete frames then a torn one),
``segment.write.before/tmp/after``,
``manifest.swap.before/tmp/after``, ``delete.before`` -- and may raise to
simulate a crash at exactly that window.  The durability oracle tests
drive recovery through every one of these points; the hook costs one
attribute load per operation in production.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from pathlib import Path
from typing import BinaryIO, Callable, Iterator

import numpy as np

from repro.durability.errors import CheckpointError, CorruptCheckpointError
from repro.durability.format import validate_manifest, wal_name
from repro.durability.lock import DEFAULT_STALE_AFTER, LOCK_FILE_NAME, StoreLock
from repro.durability.recovery import (
    STRAY_PART,
    WalWalk,
    check_components,
    read_cohort,
    stray_wal_parts,
)
from repro.durability.scrub import ScrubFinding, ScrubReport
from repro.durability.store import atomic_write_bytes, fsync_directory
from repro.specs import EngineSpec

__all__ = ["DirectoryCheckpointStore"]

#: WAL frame header: payload length + CRC32 of the payload
_FRAME_HEADER = struct.Struct("<II")

_MANIFEST_FILE = "MANIFEST.json"
_SEGMENT_DIRECTORY = "segments"
_WAL_DIRECTORY = "wal"
_QUARANTINE_DIRECTORY = "quarantine"


def _file_names(directory: Path) -> list[str]:
    """Sorted names of the finished files in ``directory`` (no ``*.tmp``)."""
    return sorted(
        entry.name
        for entry in directory.iterdir()
        if entry.is_file() and not entry.name.endswith(".tmp")
    )


class DirectoryCheckpointStore:
    """A durable session's store: one manifest, cohort segments and a WAL.

    Parameters
    ----------
    root:
        Directory holding the session (created if missing, parents too).
        Accepts any :class:`os.PathLike`.
    wal_sync:
        ``False`` (default): WAL appends are flushed to the OS page cache
        per record -- they survive a killed process, which is the failure
        mode the recovery oracle pins down.  ``True``: additionally
        ``fsync`` every append, trading throughput for power-loss safety.
    exclusive:
        ``True``: take the store's ownership lease (a ``LOCK`` file in the
        root) before touching anything, raising
        :class:`~repro.durability.errors.StoreLockedError` when another
        live process holds it.  A lease whose holder pid is dead or whose
        heartbeat mtime is older than ``stale_after`` is taken over -- the
        checkpoint-handoff failover path.  Sharding workers always open
        their store exclusively.
    stale_after:
        Heartbeat-staleness horizon in seconds for ``exclusive`` mode
        (``None`` disables the mtime horizon; only a provably dead holder
        is then stale).
    """

    def __init__(
        self,
        root: str | os.PathLike,
        wal_sync: bool = False,
        exclusive: bool = False,
        stale_after: float | None = DEFAULT_STALE_AFTER,
    ):
        self.root = Path(os.fspath(root))
        self.wal_sync = bool(wal_sync)
        self._segments = self.root / _SEGMENT_DIRECTORY
        self._wals = self.root / _WAL_DIRECTORY
        self._wals.mkdir(parents=True, exist_ok=True)
        self._segments.mkdir(parents=True, exist_ok=True)
        # The ownership lease must be held before the tmp sweep below:
        # sweeping while another process is mid-checkpoint would delete
        # its in-flight tmp files out from under it.
        self.lock: StoreLock | None = None
        if exclusive:
            self.lock = StoreLock(
                self.root / LOCK_FILE_NAME, stale_after=stale_after
            ).acquire()
        # A crash between an atomic write's fsync and its rename leaves a
        # *.tmp file that nothing references (segment/WAL names embed the
        # generation, so the same tmp name never gets rewritten); sweep
        # them on open so crashed checkpoints cannot leak disk forever.
        # Only the store's own artifact names are touched -- the root may
        # be a pre-existing directory holding unrelated files -- and
        # exclusive ownership (the lease above, or the caller's own
        # single-process discipline) means nothing can be mid-write here.
        sweeps = [
            (self.root, _MANIFEST_FILE + ".tmp"),
            (self._segments, "*.tmp"),
            (self._wals, "*.tmp"),
        ]
        for directory, pattern in sweeps:
            for leftover in directory.glob(pattern):
                try:
                    leftover.unlink()
                except OSError:
                    pass
        self._wal_handle: BinaryIO | None = None
        self._wal_open_name: str | None = None
        #: last segment written through this store instance (fault
        #: injectors use it to target "the segment just checkpointed")
        self.last_segment_name: str | None = None
        #: byte offset of the last complete frame in the open WAL segment,
        #: and whether a failed append may have left torn bytes after it
        self._wal_good_offset = 0
        self._wal_torn = False
        #: test-only kill-point hook: ``hook(point_name)`` may raise to
        #: simulate a crash at that exact window
        self.fault_hook: Callable[[str], None] | None = None

    def _fault(self, point: str) -> None:
        hook = self.fault_hook
        if hook is not None:
            hook(point)

    def heartbeat(self) -> None:
        """Refresh the ownership lease mtime (no-op without a lock)."""
        if self.lock is not None:
            self.lock.heartbeat()

    # ------------------------------------------------------------- manifest

    @property
    def manifest_path(self) -> Path:
        return self.root / _MANIFEST_FILE

    def read_manifest(self) -> dict | None:
        """The current manifest document, or ``None`` for an empty store."""
        try:
            text = self.manifest_path.read_text()
        except FileNotFoundError:
            return None
        try:
            return json.loads(text)
        except ValueError as error:
            raise CorruptCheckpointError(
                f"{self.manifest_path}: manifest is not valid JSON ({error}); "
                "expected a MANIFEST.json written by engine.checkpoint()"
            ) from error

    def write_manifest(self, manifest: dict) -> None:
        """Atomically replace the manifest (the checkpoint commit point)."""
        self._fault("manifest.swap.before")
        atomic_write_bytes(
            self.manifest_path,
            json.dumps(manifest, indent=2, sort_keys=True).encode(),
            pre_replace_hook=lambda: self._fault("manifest.swap.tmp"),
        )
        self._fault("manifest.swap.after")

    # ------------------------------------------------------------- segments

    def _segment_path(self, name: str) -> Path:
        path = self._segments / name
        if path.parent != self._segments:
            raise ValueError(f"segment name {name!r} must be a bare file name")
        return path

    def write_segment(self, name: str, payload: bytes) -> None:
        """Atomically write one cohort segment under ``name``."""
        self._fault("segment.write.before")
        atomic_write_bytes(
            self._segment_path(name),
            payload,
            pre_replace_hook=lambda: self._fault("segment.write.tmp"),
        )
        self.last_segment_name = name
        self._fault("segment.write.after")

    def read_segment(self, name: str) -> bytes:
        """One segment's bytes (``CorruptCheckpointError`` if absent)."""
        path = self._segment_path(name)
        try:
            return path.read_bytes()
        except FileNotFoundError:
            raise CorruptCheckpointError(
                f"{path}: cohort segment named by the manifest is missing; "
                "the store has been tampered with or partially copied",
                problem="missing",
            ) from None

    def delete_segment(self, name: str) -> None:
        """Delete one segment (a missing one is ignored)."""
        self._fault("delete.before")
        try:
            self._segment_path(name).unlink()
        except FileNotFoundError:
            pass

    def list_segments(self) -> list[str]:
        """Names of every stored segment, sorted."""
        return _file_names(self._segments)

    # ------------------------------------------------------------------ WAL

    def _wal_path(self, name: str) -> Path:
        path = self._wals / name
        if path.parent != self._wals:
            raise ValueError(f"WAL name {name!r} must be a bare file name")
        return path

    def wal_start(self, name: str) -> None:
        """Open WAL part ``name`` for appending (created if missing).

        Any previously open part is closed first.  Appending to an
        existing part continues after its last complete record.  Under
        ``wal_sync`` the truncation of a torn tail is fsynced, and so is
        ``wal/`` when the part is created: an fsynced append survives a
        power cut only if the directory entry of its file does too.
        """
        self.close_wal()
        path = self._wal_path(name)
        # Drop a torn tail left by a crash mid-append *before* appending:
        # frames written after torn bytes would sit beyond the readable
        # prefix and be silently lost on the next recovery.
        keep = 0
        for _payload, keep in self.wal_frames(name):
            pass
        size = self.wal_size(name)
        if keep < (size or 0):
            with open(path, "r+b") as handle:
                handle.truncate(keep)
                if self.wal_sync:
                    os.fsync(handle.fileno())
        self._wal_handle = open(path, "ab")
        if size is None and self.wal_sync:
            fsync_directory(self._wals)
        self._wal_open_name = name
        self._wal_good_offset = keep
        self._wal_torn = False

    def wal_append(self, record: bytes) -> None:
        """Append one record to the open WAL part and flush it."""
        self.wal_append_many([record])

    def wal_append_many(self, records: list[bytes]) -> None:
        """Group-commit: frame every record, then one write/flush/fsync.

        Framing is byte-identical to ``len(records)`` individual appends
        (``wal_append`` *is* a group of one); only the I/O cadence
        changes.  The ``wal.append.*`` fault points fire once per
        *batch*, and the torn simulation persists half of the
        concatenated batch -- some complete leading frames, then a torn
        one -- which is exactly the mid-batch crash window.
        """
        if not records:
            return
        if self._wal_handle is None:
            raise RuntimeError(
                "no WAL segment is open for appending; call wal_start() first"
            )
        if self._wal_torn:
            # A previous append failed mid-frame (I/O error, simulated
            # crash survived by the caller): drop the torn bytes before
            # writing anything new, or every later frame would sit beyond
            # the readable prefix and be silently lost at recovery.
            name = self._wal_open_name
            self._wal_handle.close()
            with open(self._wal_path(name), "r+b") as handle:
                handle.truncate(self._wal_good_offset)
            self._wal_handle = open(self._wal_path(name), "ab")
            self._wal_torn = False
        batch = b"".join(
            _FRAME_HEADER.pack(len(record), zlib.crc32(record)) + record
            for record in records
        )
        self._fault("wal.append.before")
        try:
            self._fault("wal.append.torn")
        except BaseException:
            # Simulated crash mid-write: persist a torn half-batch exactly
            # like a real kill between write() and completion would.
            self._wal_torn = True
            self._wal_handle.write(batch[: max(1, len(batch) // 2)])
            self._wal_handle.flush()
            raise
        try:
            self._wal_handle.write(batch)
            self._wal_handle.flush()
            if self.wal_sync:
                os.fsync(self._wal_handle.fileno())
        except BaseException:
            # write()/flush() may have persisted part of the batch.
            self._wal_torn = True
            raise
        self._wal_good_offset += len(batch)
        self._fault("wal.append.after")

    def wal_frames(self, name: str, start: int = 0) -> Iterator[tuple[bytes, int]]:
        """Stream ``(payload, end_offset)`` per complete frame of part ``name``.

        The walk begins at byte ``start``, which must be a frame boundary.
        One frame is read at a time: a long WAL is never loaded whole.
        It ends silently at the first incomplete or damaged frame, and a
        missing part yields nothing: whether that is damage is
        :mod:`repro.durability.recovery`'s call.
        """
        try:
            handle = open(self._wal_path(name), "rb")
        except FileNotFoundError:
            return
        header_size = _FRAME_HEADER.size
        offset = start
        with handle:
            handle.seek(start)
            while True:
                header = handle.read(header_size)
                if len(header) < header_size:
                    return
                length, checksum = _FRAME_HEADER.unpack(header)
                payload = handle.read(length)
                if len(payload) < length or checksum != zlib.crc32(payload):
                    return
                offset += header_size + length
                yield payload, offset

    def wal_frame_end(self, name: str, offset: int) -> int | None:
        """End offset of the frame whose header starts at byte ``offset``.

        ``None`` unless part ``name`` holds that frame's header and all
        of its payload; its CRC is not checked.
        """
        header_size = _FRAME_HEADER.size
        try:
            with open(self._wal_path(name), "rb") as handle:
                handle.seek(offset)
                header = handle.read(header_size)
                size = os.fstat(handle.fileno()).st_size
        except FileNotFoundError:
            return None
        if len(header) < header_size:
            return None
        end = offset + header_size + _FRAME_HEADER.unpack(header)[0]
        return end if end <= size else None

    def wal_resync(self, name: str, offset: int) -> tuple[int, int] | None:
        """``(start, frames)``: the first byte past ``offset`` of part
        ``name`` from which ``frames`` CRC-valid frames run exactly to its
        end, else ``None``.

        An empty frame is no record (every record encodes to bytes), so a
        run of zero bytes never counts.  Only the damage path asks -- the
        frame at ``offset`` does not read -- so the rest of the part is
        read whole, once, and every later byte tried as a frame start.
        """
        try:
            with open(self._wal_path(name), "rb") as handle:
                handle.seek(offset)
                rest = memoryview(handle.read())
        except FileNotFoundError:
            return None
        header_size = _FRAME_HEADER.size
        size = len(rest)
        # The length field read at every byte: a start whose frame would be
        # empty or run past the end is no start, and most are not.
        count = max(size - header_size, 0)
        lengths = np.ndarray((count,), "<u4", rest, 1, (1,))
        room = size - header_size - np.arange(1, count + 1)
        for start in (np.flatnonzero((lengths > 0) & (lengths <= room)) + 1).tolist():
            at = start
            frames = 0
            while at + header_size <= size:
                length, checksum = _FRAME_HEADER.unpack_from(rest, at)
                end = at + header_size + length
                payload = rest[at + header_size : end]
                if not length or end > size or checksum != zlib.crc32(payload):
                    break
                at = end
                frames += 1
            if frames and at == size:
                return offset + start, frames
        return None

    def wal_size(self, name: str) -> int | None:
        """Bytes stored in part ``name``, debris included; ``None`` if absent."""
        try:
            return self._wal_path(name).stat().st_size
        except FileNotFoundError:
            return None

    def wal_exists(self, name: str) -> bool:
        """Whether WAL part ``name`` is present (even if empty)."""
        return self.wal_size(name) is not None

    def wal_tail(self, name: str) -> tuple[int, int, int]:
        """``(frames, good_offset, total_bytes)`` of one WAL segment.

        ``good_offset`` is the end of the readable frame prefix;
        ``good_offset < total_bytes`` means the segment carries torn or
        corrupt bytes after it.  Raises :class:`FileNotFoundError` for a
        missing segment.
        """
        if name == self._wal_open_name and self._wal_handle is not None:
            self._wal_handle.flush()
        frames = 0
        good = 0
        for _payload, good in self.wal_frames(name):
            frames += 1
        return frames, good, self._wal_path(name).stat().st_size

    def list_wals(self) -> list[str]:
        """Names of every WAL part present, sorted."""
        return _file_names(self._wals)

    def wal_delete(self, name: str) -> None:
        """Delete one WAL part other than the open one (missing: ignored)."""
        if name == self._wal_open_name:
            raise ValueError(f"refusing to delete the open WAL segment {name!r}")
        self._fault("delete.before")
        try:
            self._wal_path(name).unlink()
        except FileNotFoundError:
            pass

    # ----------------------------------------------------------- quarantine

    @property
    def quarantine_dir(self) -> Path:
        """Directory damaged artifacts are moved into (created lazily).

        Outside ``segments/`` and ``wal/``, so quarantined files are
        invisible to :meth:`list_segments` / :meth:`list_wals` and
        survive checkpoint pruning -- the forensic evidence is kept, the
        recovery path never trips over it again.
        """
        return self.root / _QUARANTINE_DIRECTORY

    def _quarantine_target(self, name: str) -> Path:
        directory = self.quarantine_dir
        directory.mkdir(parents=True, exist_ok=True)
        target = directory / name
        suffix = 1
        while target.exists():
            target = directory / f"{name}.{suffix}"
            suffix += 1
        return target

    def quarantine_segment(self, name: str) -> Path:
        """Move a damaged cohort segment aside; returns its new path."""
        target = self._quarantine_target(name)
        os.replace(self._segment_path(name), target)
        return target

    def quarantine_wal_suffix(self, name: str, from_offset: int) -> int:
        """Move a WAL part's bytes from ``from_offset`` on aside.

        From offset 0 the whole file moves, under its own name.  Past it
        the readable prefix stays in place (its frames replayed fine);
        the damaged suffix is copied to quarantine and truncated away so
        later appends cannot sit beyond unreadable bytes.  Returns the
        number of bytes quarantined.
        """
        if name == self._wal_open_name:
            raise ValueError(
                f"refusing to edit the open WAL segment {name!r}"
            )
        path = self._wal_path(name)
        if from_offset == 0:
            size = path.stat().st_size
            os.replace(path, self._quarantine_target(name))
            return size
        with open(path, "rb") as handle:
            handle.seek(from_offset)
            suffix = handle.read()
        if suffix:
            target = self._quarantine_target(f"{name}.suffix@{from_offset}")
            target.write_bytes(suffix)
            with open(path, "r+b") as handle:
                handle.truncate(from_offset)
        return len(suffix)

    def list_quarantined(self) -> list[str]:
        """Names of every quarantined artifact (empty when dir absent)."""
        try:
            return _file_names(self.quarantine_dir)
        except FileNotFoundError:
            return []

    # ----------------------------------------------------------------- scrub

    def verify(self, deep: bool = True) -> ScrubReport:
        """Scrub manifest -> segments -> WAL; report every problem.

        Read-only: nothing is repaired or quarantined.  The walk is
        :mod:`repro.durability.recovery`'s, the one ``open()`` recovers
        through, so a fatal finding is exactly what a strict recovery
        raises on; a torn tail on the WAL is reported non-fatal --
        ordinary crash debris that recovery truncates silently.  ``deep``
        also decodes what the CRCs cover (a CRC cannot catch bytes
        written corrupt): a cohort segment's header
        and array sections are checked structurally -- lengths against
        shapes, dtypes, names -- only its fallback section and the WAL
        records are unpickled, and the components the manifest's engine
        spec names must then be registered; the column groups are decoded
        and installed, as ``open()`` does, by a scratch engine of that spec.
        """
        try:
            manifest = self.read_manifest()
            if manifest is not None:
                manifest = validate_manifest(manifest, self.manifest_path)
        except CheckpointError as error:
            return ScrubReport((ScrubFinding("manifest", "invalid", str(error)),))
        if manifest is None:
            return ScrubReport()
        findings: list[ScrubFinding] = []
        if deep:
            from repro.streaming.engine import MultiSeriesEngine  # imports us

            spec = EngineSpec.from_dict(manifest["engine_spec"])
            engine = MultiSeriesEngine(spec=spec)
        for cohort in manifest["cohorts"]:
            try:
                read = read_cohort(self, cohort, decode=deep)
                if deep:
                    source = f"{self.root}/{cohort['segment']}"
                    decoded = engine._decode_cohort(source, *read, engine._groups)
                    engine._install(*decoded, read[1])
            except CorruptCheckpointError as error:
                findings.append(
                    ScrubFinding(cohort["segment"], error.problem, str(error))
                )
        if deep:
            try:
                check_components(manifest, self.manifest_path)
            except CorruptCheckpointError as error:
                findings.append(ScrubFinding("manifest", error.problem, str(error)))
        missing = sum(finding.problem == "missing" for finding in findings)
        generation = manifest["generation"]
        for name in stray_wal_parts(self, generation):
            findings.append(ScrubFinding(name, "stray_part", STRAY_PART))
        walk = WalWalk(self, wal_name(generation), decode=deep)
        for _record in walk:
            pass
        if walk.stop is not None:
            findings.append(
                ScrubFinding(walk.stop.segment, walk.stop.problem, walk.stop.reason)
            )
        if walk.torn is not None:
            name, offset, unread, lost = walk.torn
            detail = (
                f"{unread} torn bytes after the last readable frame (offset "
                f"{offset}) -- crash debris, repaired on next recovery"
            )
            if lost:
                detail += "; they hold a whole frame that fails its CRC: 1 record lost"
            findings.append(ScrubFinding(name, "torn_tail", detail, fatal=False))
        return ScrubReport(
            findings=tuple(findings),
            segments_checked=len(manifest["cohorts"]) - missing,
            wal_segments_checked=int(self.wal_exists(walk.name)),
            wal_frames_checked=walk.frames,
        )

    def close_wal(self) -> None:
        """Close the open WAL segment handle (if any)."""
        if self._wal_handle is not None:
            try:
                self._wal_handle.close()
            finally:
                self._wal_handle = None
                self._wal_open_name = None
                self._wal_good_offset = 0
                self._wal_torn = False

    def close(self) -> None:
        """Close the WAL and release the lease (idempotent)."""
        self.close_wal()
        if self.lock is not None:
            self.lock.release()
