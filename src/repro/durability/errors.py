"""Checkpoint-store error types.

All durability errors subclass :class:`ValueError` so callers that guard
``open`` with ``except ValueError`` keep working, but the finer-grained
classes let new code distinguish "this file is from a different format
era" (:class:`CheckpointVersionError` -- open it with a build that reads
that version) from "this file is damaged"
(:class:`CorruptCheckpointError` -- fall back to an older generation or a
backup).

Every message names the file (or store) involved, what was found and what
was expected: a checkpoint error usually surfaces on an operator's console
during an incident, far from the code that wrote the file.
"""

from __future__ import annotations

__all__ = [
    "CheckpointError",
    "CheckpointVersionError",
    "CorruptCheckpointError",
    "StoreLockedError",
]


class CheckpointError(ValueError):
    """Base class for checkpoint-store failures (a :class:`ValueError`)."""


class CorruptCheckpointError(CheckpointError):
    """A checkpoint artifact exists but cannot be decoded.

    Raised for unreadable pickles, invalid manifest JSON, malformed
    sections and checksum mismatches.  The message always names the
    offending file and what was found there; ``problem`` is the stable
    slug a scrub finding files the damage under (``missing``,
    ``crc_mismatch``, ``undecodable``, ``trailing_bytes``, ``empty``, or
    ``invalid`` when the raiser named none).
    """

    def __init__(self, message: str, problem: str = "invalid"):
        super().__init__(message)
        self.problem = problem


class StoreLockedError(CheckpointError):
    """Another live process holds the store's ownership lease.

    Carries the lease ``path`` and the ``holder`` document (``pid``,
    ``host``, ``acquired_at``) read from it, so an operator can decide
    whether to wait, kill the holder, or point the new session elsewhere.
    Raised only for a *live* holder -- leases whose pid is gone or whose
    heartbeat is stale are taken over silently.
    """

    def __init__(self, path: object, holder: dict):
        self.path = str(path)
        self.holder = dict(holder)
        pid = self.holder.get("pid", "?")
        host = self.holder.get("host", "")
        where = f" on {host}" if host else ""
        super().__init__(
            f"{self.path}: store is locked by live process {pid}{where}; "
            "close that session (or wait for its lease to go stale) before "
            "opening this store for writing"
        )


class CheckpointVersionError(CheckpointError):
    """A checkpoint artifact comes from an unsupported format version.

    Carries the offending ``source`` (file or store), the ``found``
    version and the ``expected`` version so tooling can say which build
    reads it.
    """

    def __init__(
        self, source: object, found: object, expected: object, detail: str = ""
    ):
        self.source = str(source)
        self.found = found
        self.expected = expected
        message = (
            f"{self.source}: checkpoint format_version {found!r} is not "
            f"supported by this build (expected {expected!r})"
        )
        if detail:
            message = f"{message}; {detail}"
        super().__init__(message)
