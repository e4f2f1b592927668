"""Checkpoint storage abstraction and its atomic-write primitive.

:class:`CheckpointStore` is the contract a durable engine session is
written against: a small namespaced blob store (one **manifest**, many
**cohort segments**) plus an appendable **write-ahead log**.  An engine
whose full lifecycle -- open, ingest, checkpoint, crash, recover -- goes
through this interface can be rebuilt on any worker from data alone, which
is exactly what the sharding roadmap needs.  The directory-backed
implementation lives in :mod:`repro.durability.directory`; alternative
backends (object stores, replicated logs) only need to honour two
invariants:

* :meth:`write_manifest` and :meth:`write_segment` are **atomic**: after a
  crash at any moment a reader sees either the complete old artifact or
  the complete new one, never a torn mixture;
* the WAL **chain** (the manifest's parts, then every rotated successor
  that exists) reads back as the longest **complete prefix** of appended
  records: a crash mid-append may lose the in-flight record, but never
  yields a damaged one and never drops an earlier record.  Only the
  chain's *final* part may therefore be torn or absent; anywhere else
  that is damage, and :mod:`repro.durability.recovery` (the one reader
  of a store) ends the chain there.  :meth:`wal_frames` reads one part
  and judges nothing.
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from pathlib import Path
from typing import Callable, Iterator

__all__ = [
    "CheckpointStore",
    "atomic_write_bytes",
    "fsync_directory",
]


def fsync_directory(directory: Path) -> None:
    """Flush a directory entry so a just-renamed file survives a crash.

    ``os.replace`` makes the rename atomic, but on POSIX the *directory*
    holding the new name must itself be fsynced for the rename to be
    durable.  Platforms whose directory handles cannot be fsynced (e.g.
    Windows) simply skip this -- the rename is still atomic there.
    """
    try:
        handle = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(handle)
    except OSError:
        pass
    finally:
        os.close(handle)


def atomic_write_bytes(
    path: Path,
    data: bytes,
    pre_replace_hook: Callable[[], None] | None = None,
) -> None:
    """Write ``data`` to ``path`` atomically: tmp + fsync + ``os.replace``.

    A crash at any moment leaves either the previous content of ``path``
    or the new content -- never a truncated file.  ``pre_replace_hook``
    (test-only) runs after the tmp file is durable but before the rename,
    which is the interesting crash window.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as stream:
        stream.write(data)
        stream.flush()
        os.fsync(stream.fileno())
    if pre_replace_hook is not None:
        pre_replace_hook()
    os.replace(tmp, path)
    fsync_directory(path.parent)


class CheckpointStore(ABC):
    """Storage contract of a durable engine session (manifest/segments/WAL)."""

    @abstractmethod
    def describe(self) -> str:
        """Human-readable location of the store (for error messages)."""

    # ------------------------------------------------------------- manifest

    @abstractmethod
    def read_manifest(self) -> dict | None:
        """The current manifest document, or ``None`` for an empty store."""

    @abstractmethod
    def write_manifest(self, manifest: dict) -> None:
        """Atomically replace the manifest (the checkpoint commit point)."""

    # ------------------------------------------------------------- segments

    @abstractmethod
    def write_segment(self, name: str, payload: bytes) -> None:
        """Atomically write one cohort segment blob under ``name``."""

    @abstractmethod
    def read_segment(self, name: str) -> bytes:
        """Read one segment blob (raises ``CorruptCheckpointError`` if absent)."""

    @abstractmethod
    def delete_segment(self, name: str) -> None:
        """Delete one segment blob (missing blobs are ignored)."""

    @abstractmethod
    def list_segments(self) -> list[str]:
        """Names of every stored segment blob (any order)."""

    # ------------------------------------------------------------------ WAL

    @abstractmethod
    def wal_start(self, name: str) -> None:
        """Open WAL segment ``name`` for appending (created if missing).

        Any previously open WAL segment is closed first.  Appending to an
        existing segment continues after its last complete record.
        """

    def wal_append(self, record: bytes) -> None:
        """Append one record to the open WAL segment and flush it."""
        self.wal_append_many([record])

    @abstractmethod
    def wal_append_many(self, records: list[bytes]) -> None:
        """Append a batch of records with one flush (a group commit).

        Each record is framed on its own, so replay cannot tell a group
        commit from individual appends, and a crash mid-batch loses only
        a suffix of the batch.
        """

    @abstractmethod
    def wal_frames(self, name: str) -> Iterator[tuple[bytes, int]]:
        """Yield ``(record, end_offset)`` for each complete record of part ``name``.

        Iteration ends silently at the first incomplete or damaged
        record, and a missing part yields nothing: whether that is crash
        debris or damage depends on the part's place in the chain
        (``end_offset`` against :meth:`wal_size` says what was left unread).
        """

    @abstractmethod
    def wal_size(self, name: str) -> int | None:
        """Bytes stored in part ``name``, debris included; ``None`` if absent."""

    @abstractmethod
    def list_wals(self) -> list[str]:
        """Names of every WAL segment present (any order)."""

    @abstractmethod
    def wal_delete(self, name: str) -> None:
        """Delete one WAL segment (missing segments are ignored)."""

    def wal_exists(self, name: str) -> bool:
        """Whether WAL segment ``name`` is present (even if empty)."""
        return self.wal_size(name) is not None

    def close(self) -> None:
        """Release any open handles (idempotent)."""
