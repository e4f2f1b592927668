"""Scrub reports, quarantine records, and the manifest key codec.

Pure data types shared by :meth:`DirectoryCheckpointStore.verify` (the
offline scrub) and the engine's recovery (the ``strict | truncate |
quarantine`` policy of ``MultiSeriesEngine.open``).  Nothing here reads
or judges a store -- that is :mod:`repro.durability.recovery`, the one
walk both of them drain; these are the *vocabulary* they use to say
exactly what was damaged and what was done about it, down to the series
keys affected, so "degraded" is never silent.

The manifest key codec at the bottom exists because quarantine must name
a corrupt cohort's keys *without decoding its segment* (the segment is
the thing that is corrupt).  Checkpoints therefore write each cohort's
key list into the JSON manifest; since series keys are arbitrary
hashables (tuples, bytes, ...), the codec maps them losslessly onto
JSON-able shapes and back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Hashable, Iterable

__all__ = [
    "QuarantinedCohort",
    "QuarantinedWalSuffix",
    "RECOVERY_POLICIES",
    "RecoveryReport",
    "ScrubFinding",
    "ScrubReport",
    "decode_manifest_keys",
    "encode_manifest_keys",
]

#: recovery policies accepted by ``MultiSeriesEngine.open(recovery=...)``
#: -- ``strict`` raises on any damage ``store.verify()`` calls fatal,
#: ``truncate`` ends WAL replay where the log stops being readable but
#: still raises on segment damage, ``quarantine`` moves damaged artifacts
#: aside and serves every unaffected series.
RECOVERY_POLICIES = ("strict", "truncate", "quarantine")


# ------------------------------------------------------------------ scrubbing


@dataclass(frozen=True, slots=True)
class ScrubFinding:
    """One problem ``store.verify()`` found.

    ``artifact`` is the file (or ``"manifest"``); ``problem`` is a stable
    machine-readable slug (``missing``, ``crc_mismatch``, ``undecodable``,
    ``stray_part``, ``torn_tail``, ``invalid``); ``detail`` is the human
    sentence.  ``fatal`` findings mean a strict recovery of this store
    raises; a non-fatal finding (the WAL's torn tail) is ordinary crash
    debris that recovery repairs silently.
    """

    artifact: str
    problem: str
    detail: str
    fatal: bool = True


@dataclass(frozen=True, slots=True)
class ScrubReport:
    """Everything ``store.verify()`` checked and everything it found."""

    findings: tuple[ScrubFinding, ...] = ()
    segments_checked: int = 0
    wal_segments_checked: int = 0
    wal_frames_checked: int = 0

    @property
    def ok(self) -> bool:
        """True when a strict recovery of this store would succeed."""
        return not any(finding.fatal for finding in self.findings)

    def __str__(self) -> str:
        status = "ok" if self.ok else "CORRUPT"
        summary = (
            f"scrub {status}: {self.segments_checked} segments, "
            f"{self.wal_segments_checked} WAL segments "
            f"({self.wal_frames_checked} frames)"
        )
        if not self.findings:
            return summary
        lines = [summary] + [
            f"  [{'FATAL' if finding.fatal else 'note'}] "
            f"{finding.artifact}: {finding.problem} -- {finding.detail}"
            for finding in self.findings
        ]
        return "\n".join(lines)


# ----------------------------------------------------------------- quarantine


@dataclass(frozen=True, slots=True)
class QuarantinedCohort:
    """One cohort whose segment was moved aside instead of loaded.

    ``keys`` are the series keys that cohort held (decoded from the
    manifest's key list); they are the exact set of series missing from
    the recovered engine.
    """

    cohort_id: int
    segment: str
    keys: tuple[Hashable, ...]
    reason: str


@dataclass(frozen=True, slots=True)
class QuarantinedWalSuffix:
    """A WAL suffix (the undecodable frame onward) moved aside instead of
    replayed.

    ``from_offset`` is the byte offset of that frame in ``segment``;
    everything before it replayed normally.
    """

    segment: str
    from_offset: int
    bytes_quarantined: int
    reason: str


@dataclass(frozen=True, slots=True)
class RecoveryReport:
    """What a non-strict recovery actually did.

    Attached to the recovered engine as ``engine.last_recovery`` and
    surfaced through the shard worker's ready info so the router's
    ``health()`` can name every affected key.  ``clean`` recoveries (the
    overwhelmingly common case) get a report with empty tuples.
    """

    policy: str
    quarantined_cohorts: tuple[QuarantinedCohort, ...] = ()
    quarantined_wal: tuple[QuarantinedWalSuffix, ...] = ()
    wal_records_replayed: int = 0
    wal_records_lost: int = 0
    findings: tuple[ScrubFinding, ...] = field(default=())

    @property
    def clean(self) -> bool:
        return not (
            self.quarantined_cohorts or self.quarantined_wal or self.findings
        )

    @property
    def affected_keys(self) -> tuple[Hashable, ...]:
        """Every series key named by a quarantined cohort, in order."""
        seen: dict[Hashable, None] = {}
        for cohort in self.quarantined_cohorts:
            for key in cohort.keys:
                seen.setdefault(key, None)
        return tuple(seen)

    def to_dict(self) -> dict:
        """JSON/pickle-able summary for crossing the worker pipe."""
        encoded_keys = []
        for key in self.affected_keys:
            one = encode_manifest_keys([key])
            if one is not None:
                encoded_keys.append(one[0])
        return {
            "policy": self.policy,
            "clean": self.clean,
            "affected_keys": encoded_keys,
            "quarantined_cohorts": [
                {
                    "cohort_id": cohort.cohort_id,
                    "segment": cohort.segment,
                    "reason": cohort.reason,
                }
                for cohort in self.quarantined_cohorts
            ],
            "quarantined_wal": [
                {
                    "segment": suffix.segment,
                    "from_offset": suffix.from_offset,
                    "bytes_quarantined": suffix.bytes_quarantined,
                    "reason": suffix.reason,
                }
                for suffix in self.quarantined_wal
            ],
            "wal_records_replayed": self.wal_records_replayed,
            "wal_records_lost": self.wal_records_lost,
        }


# ----------------------------------------------------------- manifest key codec
#
# Series keys are arbitrary hashables; JSON is not.  The codec maps the
# hashable shapes the engine actually sees (str/int/bool/None, finite
# floats, bytes, and tuples thereof) onto unambiguous JSON:
#
#   str/int/bool/None/finite float  ->  themselves
#   tuple                           ->  {"t": [encoded elements]}
#   bytes                           ->  {"b": "<hex>"}
#
# A key outside that family (a custom object, a NaN) is *not encodable*:
# encode_manifest_keys returns None for the whole cohort, the manifest
# carries no key list, and quarantine for that cohort degrades from
# "named keys" to "cohort N, keys unknown" -- visible, never wrong.


def _encode_key(key: Any) -> Any:
    if key is None or isinstance(key, (str, bool, int)):
        return key
    if isinstance(key, float):
        if not math.isfinite(key):
            raise ValueError("non-finite float key")
        return key
    if isinstance(key, bytes):
        return {"b": key.hex()}
    if isinstance(key, tuple):
        return {"t": [_encode_key(element) for element in key]}
    raise ValueError(f"unencodable key type {type(key).__name__}")


def encode_manifest_keys(keys: Iterable[Hashable]) -> list | None:
    """Encode a cohort's key list for the JSON manifest.

    Returns ``None`` when any key falls outside the encodable family --
    the cohort is then listed without keys rather than with wrong ones.
    """
    try:
        return [_encode_key(key) for key in keys]
    except ValueError:
        return None


def _decode_key(encoded: Any) -> Hashable:
    if isinstance(encoded, dict):
        if "b" in encoded:
            return bytes.fromhex(encoded["b"])
        if "t" in encoded:
            return tuple(_decode_key(element) for element in encoded["t"])
        raise ValueError(f"unknown encoded key shape {sorted(encoded)}")
    return encoded


def decode_manifest_keys(encoded: Any) -> tuple[Hashable, ...] | None:
    """Inverse of :func:`encode_manifest_keys`; ``None`` passes through."""
    if encoded is None:
        return None
    if not isinstance(encoded, list):
        raise ValueError(
            f"manifest cohort 'keys' must be a list, found "
            f"{type(encoded).__name__}"
        )
    return tuple(_decode_key(element) for element in encoded)
