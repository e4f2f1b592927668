"""The atomic-write primitives every durable artifact is written with.

:func:`atomic_write_bytes` (tmp + ``fsync`` + ``os.replace``) makes the
manifest and every cohort segment either its old or its new content after
a crash, and :func:`fsync_directory` makes the rename itself durable.
The store they serve is :class:`repro.durability.DirectoryCheckpointStore`.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Callable

__all__ = [
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

