"""Columnar cohort segments: JSON header, raw array sections, fallback bytes.

The byte layout of a format-4 cohort segment, decided here and nowhere
else.  It is the serving layer's RCW1 idiom (:mod:`repro.serving.protocol`)
applied to state -- ship the arrays in the layout they are computed on:

.. code-block:: text

    +--------+----------------+---------------------+----------+----------+
    | "RCS4" | header length  | header (UTF-8 JSON) | sections | fallback |
    | 4 bytes| uint32, LE     | header-length bytes | raw, LE  | opaque   |
    +--------+----------------+---------------------+----------+----------+

    header = {"format": 4,
              "groups": [{"meta": {...},
                          "sections": [{"name", "dtype", "shape"}, ...]},
                         ...],
              "fallback": <byte count>}

A *group* is a set of named arrays with one JSON ``meta`` object saying
what they are; its sections' bytes follow the header in header order, C
contiguous, every dtype an explicit little-endian code (``<f8`` or
``<i8``).  The *fallback* is an opaque byte string carried behind the
last section.  What the groups mean (kernel columns of a cohort's
absorbed series) and what the fallback holds (the scalar-state codec's
bytes, :func:`repro.durability.format.encode_segment`, for the series
that are not columns) is the engine's business: this module knows nothing
about it.

The section names are the engine's too.  Earlier builds wrote sections
no later one writes -- a per-column latency ring (``latency_counts``,
``latency_values``) and the detector's moments (``scorer_*``, with a
``meta["scorer"]``) -- which the engine reads and drops, the moments once
checked against ``monitor_*`` byte for byte; the layout is the same.

A segment says what it is by its first bytes, so a reader needs no
version from outside: :func:`split_segment` hands back the groups and
the fallback of a columnar segment, and treats any other payload as
*all fallback* -- which is exactly what a segment written by format 3 is
(a pickle starts with ``\\x80``, never with the magic).  The same bytes,
without a manifest around them, are how a series moves between engines
(``MultiSeriesEngine.extract_series`` / ``adopt_series``).

Decoding allocates nothing the payload does not back: the header is
checked against the payload's length -- every section's byte count from
its declared shape, their sum plus the fallback equal to what follows
the header -- *before* any array is built, and the arrays are
``np.frombuffer`` views of the payload.  Everything wrong is a
:class:`~repro.durability.errors.CorruptCheckpointError` with
``problem="undecodable"``.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from typing import Any, Mapping, NoReturn, Sequence

import numpy as np

from repro.durability.errors import CorruptCheckpointError

__all__ = [
    "SEGMENT_MAGIC",
    "ColumnGroup",
    "encode_columnar_segment",
    "split_segment",
]

#: first bytes of a columnar segment ("repro columnar segment", format 4)
SEGMENT_MAGIC = b"RCS4"
_FORMAT = 4
_LENGTH = struct.Struct("<I")
_PREFIX = len(SEGMENT_MAGIC) + _LENGTH.size

#: section dtypes: wire code by NumPy kind, and the item size of each code
_CODE_OF_KIND = {"f": "<f8", "i": "<i8"}
_ITEM_BYTES = {"<f8": 8, "<i8": 8}


@dataclass(frozen=True, slots=True)
class ColumnGroup:
    """Named arrays plus the JSON ``meta`` that says what they are."""

    meta: dict
    arrays: dict[str, np.ndarray]


def encode_columnar_segment(
    groups: Sequence[ColumnGroup], fallback: bytes = b""
) -> bytes:
    """Serialize ``groups`` and the opaque ``fallback`` as one segment.

    Arrays must be float or signed-integer typed; they are written as
    ``<f8`` / ``<i8`` in C order, in each group's mapping order.
    """
    described = []
    parts: list[Any] = []
    for group in groups:
        sections = []
        for name, array in group.arrays.items():
            code = _CODE_OF_KIND.get(array.dtype.kind)
            if code is None:
                raise TypeError(
                    f"section {name!r} has dtype {array.dtype}; a segment "
                    "carries float64 and int64 arrays only"
                )
            sections.append(
                {"name": name, "dtype": code, "shape": list(array.shape)}
            )
            parts.append(np.asarray(array, dtype=code).tobytes())  # C order
        described.append({"meta": group.meta, "sections": sections})
    header = json.dumps(
        {"format": _FORMAT, "groups": described, "fallback": len(fallback)},
        separators=(",", ":"),
    ).encode("utf-8")
    return b"".join(
        (SEGMENT_MAGIC, _LENGTH.pack(len(header)), header, *parts, fallback)
    )


def split_segment(payload: bytes, source: object) -> tuple[list[ColumnGroup], bytes]:
    """``(groups, fallback)`` of any cohort segment.

    A payload that does not open with :data:`SEGMENT_MAGIC` is a segment
    of format 3 -- all fallback, no groups.  The arrays of a
    columnar segment are read-only views of ``payload``.
    """
    if payload[: len(SEGMENT_MAGIC)] != SEGMENT_MAGIC:
        return [], payload
    header, body = _header(payload, source)
    fallback_bytes = _count(header.get("fallback"), "fallback", source)
    described = header.get("groups")
    if not isinstance(described, list):
        _undecodable(source, "header field 'groups' must be a list")
    # First pass: every section's extent, from the header alone.
    layout: list[tuple[dict, list[tuple[str, str, tuple[int, ...], int]]]] = []
    total = fallback_bytes
    for entry in described:
        if not isinstance(entry, Mapping) or not isinstance(entry.get("meta"), dict):
            _undecodable(source, "a group must be a {meta, sections} object")
        sections = entry.get("sections")
        if not isinstance(sections, list):
            _undecodable(source, "a group's 'sections' must be a list")
        extents = []
        names: set[str] = set()
        for section in sections:
            name, code, shape = _section(section, source)
            if name in names:
                _undecodable(source, f"section {name!r} appears twice in a group")
            names.add(name)
            n_bytes = math.prod(shape) * _ITEM_BYTES[code]
            total += n_bytes
            extents.append((name, code, shape, n_bytes))
        layout.append((entry["meta"], extents))
    if total != len(body):
        _undecodable(
            source,
            f"header describes {total} bytes of sections and fallback but "
            f"{len(body)} follow it",
        )
    # Second pass: views, now that the payload is known to back them all.
    groups = []
    offset = 0
    for meta, extents in layout:
        arrays = {}
        for name, code, shape, n_bytes in extents:
            flat = np.frombuffer(body[offset : offset + n_bytes], dtype=code)
            arrays[name] = flat.reshape(shape)
            offset += n_bytes
        groups.append(ColumnGroup(meta, arrays))
    return groups, bytes(body[offset:])


def _undecodable(source: object, detail: str) -> NoReturn:
    raise CorruptCheckpointError(
        f"{source}: columnar segment is malformed: {detail}",
        problem="undecodable",
    )


def _header(payload: bytes, source: object) -> tuple[dict, memoryview]:
    """The decoded header object and a view of everything behind it."""
    if len(payload) < _PREFIX:
        _undecodable(source, "cut short inside its length prefix")
    (header_length,) = _LENGTH.unpack_from(payload, len(SEGMENT_MAGIC))
    end = _PREFIX + header_length
    if end > len(payload):
        _undecodable(
            source,
            f"header claims {header_length} bytes but only "
            f"{len(payload) - _PREFIX} follow",
        )
    try:
        header = json.loads(payload[_PREFIX:end].decode("utf-8"))
    except (UnicodeDecodeError, ValueError, RecursionError) as error:
        _undecodable(source, f"header is not JSON ({error})")
    if not isinstance(header, dict) or header.get("format") != _FORMAT:
        _undecodable(source, f"header must be a JSON object of format {_FORMAT}")
    return header, memoryview(payload)[end:]


def _count(value: Any, what: str, source: object) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        _undecodable(source, f"{what} must be an integer >= 0, found {value!r}")
    return value


def _section(section: Any, source: object) -> tuple[str, str, tuple[int, ...]]:
    """A checked ``(name, dtype code, shape)`` of one header section entry."""
    if not isinstance(section, Mapping):
        _undecodable(source, "a section must be a {name, dtype, shape} object")
    name = section.get("name")
    code = section.get("dtype")
    shape = section.get("shape")
    if not isinstance(name, str):
        _undecodable(source, f"section name must be a string, found {name!r}")
    if not isinstance(code, str) or code not in _ITEM_BYTES:
        _undecodable(
            source,
            f"section {name!r} has dtype {code!r}; known: {sorted(_ITEM_BYTES)}",
        )
    if not isinstance(shape, list) or len(shape) > 8:
        _undecodable(source, f"section {name!r} has a malformed shape {shape!r}")
    extents = tuple(
        _count(extent, f"section {name!r} extent", source) for extent in shape
    )
    return name, code, extents
