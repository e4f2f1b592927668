"""Build and load the fleet kernel's native run routines (``advance_run.c``).

:func:`load` finds a C compiler, compiles the one source file beside this
module into a per-user cache directory and opens the result with
:mod:`ctypes` -- no ``Python.h``, no build step at install time, nothing
downloaded.  It reports instead of raising: a machine without a compiler,
a compile error or an unloadable library all come back as ``(None,
reason)`` and the caller (:func:`repro.core.fleet.kernel_backend`, the one
place that decides which body runs) stays on the NumPy wavefront.

A run crosses into C as two pointers, to the structures declared here
beside their C declarations: a :class:`Side` -- one orientation of a
kernel's state, its arrays' addresses, capacities and strides and its
configuration, which a kernel builds twice (one per side of its
ping-pong) and keeps until its arrays are replaced -- and a :class:`Run`,
the run's rounds, width, columns and planes.  ``advance_run`` solves the
run, runs the residual monitor over it, searches the candidate shifts of
every point that trips the monitor and, unless a round fails its screen,
commits it: a run is one call, tripped or not.
``python -m repro.analysis`` holds every prototype and both layouts to
these declarations (rule HP007): a mismatch would corrupt memory, not
raise.

A warm start spawns no process (a child of a large process would count
into its peak memory): the cache key hashes the source, the flags, the
machine and the compiler *binary's* identity -- resolved path, size and
modification time -- rather than asking it for ``--version``.  The library
is built under a temporary name and moved into place with ``os.replace``,
so any number of processes starting against an empty cache (shard workers,
router, HTTP server) each load a complete file and leave exactly one.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import stat
import subprocess
import tempfile
from pathlib import Path

__all__ = ["COMPILERS", "FLAGS", "ROUTINES", "STRUCTS", "SOURCE", "Run", "Side", "load"]

#: the one native source, shipped beside this module as package data
SOURCE = Path(__file__).with_name("advance_run.c")
#: candidates for ``shutil.which``, first found wins
COMPILERS = ("cc", "gcc", "clang")
#: fixed flags (rule HP006 reads this tuple): optimisation may reorder
#: nothing observable -- no contraction of ``a - b * c`` into an fma (in
#: every ISA clone the source declares), no value-changing math flags, no
#: ``-march``: the source's own clones are picked at load from ``cpuid``,
#: so one cached library runs on every CPU of its architecture
FLAGS = (
    "-O2",
    "-ftree-vectorize",
    "-funroll-loops",
    "-ffp-contract=off",
    "-fPIC",
    "-shared",
    "-pthread",
)

_POINTER = ctypes.c_void_p
_INT = ctypes.c_int64
_DOUBLE = ctypes.c_double


class Side(ctypes.Structure):
    """``struct advance_side``: one orientation of a kernel's state."""

    _fields_ = [
        ("blocks_in", _POINTER),  # committed blocks / rhs, working blocks / rhs
        ("rhs_in", _POINTER),
        ("blocks_out", _POINTER),
        ("rhs_out", _POINTER),
        ("capacity", _INT),  # their column capacity
        ("pairs_in", _POINTER),  # trend pairs, committed and working
        ("pairs_out", _POINTER),
        ("pair_capacity", _INT),
        ("seasonal_buffer", _POINTER),
        ("seasonal_stride", _INT),  # its row stride, in doubles
        ("period", _INT),
        ("global_index", _POINTER),
        ("points_processed", _POINTER),
        ("last_detection_residual", _POINTER),
        ("last_applied_shift", _POINTER),  # written by a non-zero winner
        ("monitor_mean", _POINTER),  # the monitor's moments, updated in place
        ("monitor_m2", _POINTER),
        ("saved_moments", _POINTER),  # a run's pre-run mean and m2
        ("scratch", _POINTER),
        ("iterations", _INT),
        ("members", _INT),  # the kernel's columns: a run this wide flips
        ("searching", _INT),  # whether tripped columns are searched
        ("shifts", _POINTER),  # the int64 candidate shifts, 0 first
        ("shift_count", _INT),
        ("lambda1", _DOUBLE),
        ("lambda2", _DOUBLE),
        ("epsilon", _DOUBLE),
        ("minimum_std", _DOUBLE),
        ("threshold", _DOUBLE),
    ]


class Run(ctypes.Structure):
    """``struct advance_run_args``: one run of a kernel."""

    _fields_ = [
        ("rounds", _INT),
        ("width", _INT),
        ("columns", _POINTER),  # the run's int64 kernel columns
        ("planes", _POINTER),  # the six planes at the run's first round
        ("plane_stride", _INT),  # in doubles
        ("row_stride", _INT),
    ]


#: what ``advance_run`` returns for a run it committed: a subset, or a
#: full-width run whose sides the caller flips
COMMITTED, FLIP = -1, -2
_RUN = (_POINTER, _POINTER)  # a Side, a Run
#: every routine of :data:`SOURCE` this module calls, as ``name: (restype,
#: argtypes)``, and every structure they take, as ``C tag: class``;
#: ``python -m repro.analysis`` holds each to its C declaration (rule
#: HP007): a mismatch would corrupt memory, not raise
ROUTINES = {
    "advance_run": (_INT, _RUN),
    "advance_run_scratch": (_INT, (_INT,)),
    "advance_run_helped": (_INT, ()),
    "advance_run_vector": (ctypes.c_char_p, ()),
}
STRUCTS = {"advance_side": Side, "advance_run_args": Run}


def _private_directory(path: Path) -> bool:
    """Create ``path`` (0o700) if needed; whether it is ours alone to write."""
    try:
        path.mkdir(mode=0o700, parents=True, exist_ok=True)
        status = path.stat()
    except OSError:
        return False
    # Ownership cannot be told without a uid (Windows): not private, so
    # the caller builds in a fresh temporary directory instead.
    effective_uid = getattr(os, "geteuid", None)
    return (
        effective_uid is not None
        and status.st_uid == effective_uid()
        and not status.st_mode & (stat.S_IWGRP | stat.S_IWOTH)
        and os.access(path, os.W_OK | os.X_OK)
    )


def _cache_directory() -> Path | None:
    """The per-user build cache, or None when no private one can be had.

    Never a fixed path under a shared ``/tmp``: a library another user
    could plant there would be loaded into this process.
    """
    base = os.environ.get("XDG_CACHE_HOME")
    try:
        root = Path(base) if base else Path.home() / ".cache"
    except RuntimeError:  # no home directory can be determined
        return None
    directory = root / "repro-oneshotstl"
    return directory if _private_directory(directory) else None


def _cache_key(compiler: str) -> str:
    binary = Path(compiler).resolve()
    status = binary.stat()
    identity = "\0".join(
        (
            *FLAGS,
            str(binary),
            str(status.st_size),
            str(status.st_mtime_ns),
            platform.machine(),
            platform.system(),
        )
    )
    digest = hashlib.sha256(SOURCE.read_bytes())
    digest.update(identity.encode())
    return digest.hexdigest()[:20]


def _build(compiler: str, library: Path) -> str | None:
    """Compile into ``library`` atomically; the failure as text, else None."""
    descriptor, scratch = tempfile.mkstemp(
        dir=library.parent, prefix=library.stem + ".", suffix=".tmp"
    )
    os.close(descriptor)
    name = Path(compiler).name
    try:
        # Run beside the source so diagnostics name it without its path.
        result = subprocess.run(
            [compiler, *FLAGS, "-o", scratch, SOURCE.name],
            cwd=SOURCE.parent,
            capture_output=True,
            text=True,
        )
        if result.returncode != 0:
            return f"{name} failed: {result.stderr.strip()[-400:]}"
        os.replace(scratch, library)
        return None
    except OSError as error:
        return f"{name} could not run: {error.strerror or type(error).__name__}"
    finally:
        if os.path.exists(scratch):
            os.unlink(scratch)


def _open(library: Path) -> tuple[tuple, str]:
    """``((advance_run, scratch_doubles, helped), vector)`` of a built
    library.

    ``vector`` names the clone of ``advance_run`` the dynamic loader
    dispatched to on this CPU; ``helped()`` counts the chunks the
    routine's helper thread has run in this process (-1: it has none).
    OSError or AttributeError if the file is not a complete library of
    this source.
    """
    handle = ctypes.CDLL(str(library))
    for name, (restype, argtypes) in ROUTINES.items():
        routine = getattr(handle, name)
        routine.restype, routine.argtypes = restype, argtypes
    routines = (
        handle.advance_run,
        handle.advance_run_scratch,
        handle.advance_run_helped,
    )
    return routines, handle.advance_run_vector().decode()


def load() -> tuple[tuple | None, dict]:
    """Build (once per cache) and load the native routines.

    Returns ``(routines, report)``: ``routines`` is ``(advance_run,
    scratch_doubles, helped)`` -- the ``ctypes`` functions of
    ``advance_run.c`` -- or None, and ``report`` says why in ``{"reason", "compiler",
    "flags", "vector"}`` -- ``vector`` the clone this CPU runs
    (``"avx512f"``, ``"avx2"`` or ``"default"``), None without a library.
    Never raises for anything the machine lacks.  The report
    is served on an unauthenticated ``/health``, so it names the compiler
    and the library (whose name carries the cache key) without the
    directories they live in.
    """
    report = {"reason": "", "compiler": None, "flags": list(FLAGS), "vector": None}
    compiler = next(filter(None, map(shutil.which, COMPILERS)), None)
    if compiler is None:
        report["reason"] = f"no C compiler on PATH (tried {', '.join(COMPILERS)})"
        return None, report
    report["compiler"] = Path(compiler).name
    try:
        name = f"advance_run-{_cache_key(compiler)}.so"
    except OSError as error:
        report["reason"] = (
            f"cannot read the source or the compiler: {error.strerror}"
        )
        return None, report
    directory = _cache_directory()
    if directory is None:
        # No private cache: build in a private temporary directory and
        # drop it once loaded (the mapping outlives the file).
        with tempfile.TemporaryDirectory(prefix="repro-oneshotstl-") as scratch:
            return _load_from(compiler, Path(scratch) / name, report)
    return _load_from(compiler, directory / name, report)


def _load_from(compiler: str, library: Path, report: dict) -> tuple[tuple | None, dict]:
    if library.exists():
        try:
            routines, vector = _open(library)
        except (OSError, AttributeError):
            pass  # truncated or foreign file: rebuild over it
        else:
            report["reason"] = f"loaded {library.name}"
            report["vector"] = vector
            return routines, report
    failure = _build(compiler, library)
    if failure is None:
        try:
            routines, vector = _open(library)
        except (OSError, AttributeError) as error:
            where = str(library.parent) + os.sep
            failure = f"built library does not load: {str(error).replace(where, '')}"
        else:
            report["reason"] = f"compiled {library.name}"
            report["vector"] = vector
            return routines, report
    report["reason"] = failure
    return None, report
