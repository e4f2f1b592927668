"""Consistent hashing: stable key-to-shard assignment with minimal remap.

The router must send every observation for one series key to the same
shard across processes, restarts and host reboots -- which rules out
Python's builtin ``hash`` (salted per process by ``PYTHONHASHSEED``) and
motivates the classic consistent-hash ring: each shard owns
``virtual_nodes`` pseudo-random points on a 64-bit ring, a key maps to
the first shard point at or after its own hash (wrapping), and adding or
removing one shard remaps only the keys that fall into that shard's arcs
(about ``1/n`` of the space) instead of reshuffling everything -- the
property live shard migration depends on.

Tokens come from ``blake2b`` (stdlib, keyed-hash-quality dispersion,
stable everywhere); both shard points and keys hash through it.  Key
bytes are canonicalized per type (``str``/``bytes``/``int`` and a
``repr`` fallback) so equal keys always land on the same shard while
``"1"`` and ``1`` stay distinct: ``1``, ``1.0`` and ``True`` are one
dict key in an engine, so they are one key here.

A fleet routes the same keys batch after batch, so the ring remembers
each key's owner: one dict entry per key ever routed (the workers hold
state for every one of them anyway), dropped whole whenever a shard
joins or leaves.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from typing import Hashable, Iterable, Sequence

__all__ = ["ConsistentHashRing"]

#: default virtual nodes per shard: at 64 points each, the max/mean load
#: imbalance across 4-16 shards stays within a few percent.
DEFAULT_VIRTUAL_NODES = 64


def _token(data: bytes) -> int:
    """64-bit ring position of ``data`` (blake2b -- process-independent)."""
    return int.from_bytes(
        hashlib.blake2b(data, digest_size=8).digest(), "big"
    )


def _key_bytes(key: Hashable) -> bytes:
    """Canonical byte form of a series key (equal keys, equal bytes)."""
    if isinstance(key, str):
        return b"s:" + key.encode("utf-8", "surrogatepass")
    if isinstance(key, bytes):
        return b"b:" + key
    if isinstance(key, bool):
        # True == 1 as a dict key, so they must land on the same shard.
        return b"i:" + str(int(key)).encode()
    if isinstance(key, int):
        return b"i:" + str(key).encode()
    if isinstance(key, float) and key.is_integer():
        # 1.0 == 1 as a dict key too (and the owner memo would otherwise
        # hand whichever form came first to both).
        return b"i:" + str(int(key)).encode()
    return b"r:" + repr(key).encode("utf-8", "backslashreplace")


class ConsistentHashRing:
    """A consistent-hash ring over string shard ids.

    Parameters
    ----------
    shard_ids:
        Initial shards (order-independent: the ring layout depends only
        on the id strings).
    virtual_nodes:
        Ring points per shard; more points smooth the load distribution
        at a small memory/lookup cost.
    """

    def __init__(
        self,
        shard_ids: Iterable[str] = (),
        virtual_nodes: int = DEFAULT_VIRTUAL_NODES,
    ):
        self.virtual_nodes = int(virtual_nodes)
        if self.virtual_nodes < 1:
            raise ValueError("virtual_nodes must be >= 1")
        self._shards: set[str] = set()
        #: sorted ring tokens and the shard owning each, kept parallel
        self._tokens: list[int] = []
        self._owners: list[str] = []
        #: key -> owning shard, for the ring as it stands
        self._memo: dict[Hashable, str] = {}
        for shard_id in shard_ids:
            self.add_shard(shard_id)

    # ------------------------------------------------------------ membership

    @property
    def shard_ids(self) -> list[str]:
        """Current shards, sorted."""
        return sorted(self._shards)

    def __len__(self) -> int:
        return len(self._shards)

    def __contains__(self, shard_id: str) -> bool:
        return shard_id in self._shards

    def _shard_tokens(self, shard_id: str) -> list[int]:
        return [
            _token(f"{shard_id}#{point}".encode())
            for point in range(self.virtual_nodes)
        ]

    def add_shard(self, shard_id: str) -> None:
        if not isinstance(shard_id, str) or not shard_id:
            raise ValueError("shard_id must be a non-empty string")
        if shard_id in self._shards:
            raise ValueError(f"shard {shard_id!r} is already on the ring")
        self._shards.add(shard_id)
        self._memo = {}
        for token in self._shard_tokens(shard_id):
            at = bisect_right(self._tokens, token)
            self._tokens.insert(at, token)
            self._owners.insert(at, shard_id)

    def remove_shard(self, shard_id: str) -> None:
        if shard_id not in self._shards:
            raise ValueError(f"shard {shard_id!r} is not on the ring")
        self._shards.remove(shard_id)
        self._memo = {}
        keep = [
            (token, owner)
            for token, owner in zip(self._tokens, self._owners)
            if owner != shard_id
        ]
        self._tokens = [token for token, _owner in keep]
        self._owners = [owner for _token, owner in keep]

    # --------------------------------------------------------------- routing

    def shard_for(self, key: Hashable) -> str:
        """The shard owning ``key`` (first ring point at/after its hash)."""
        owner = self._memo.get(key)
        if owner is None:
            if not self._tokens:
                raise ValueError("cannot route on an empty ring (no shards)")
            at = bisect_right(self._tokens, _token(_key_bytes(key)))
            if at == len(self._tokens):
                at = 0
            owner = self._memo[key] = self._owners[at]
        return owner

    def assignments(self, keys: Sequence[Hashable]) -> dict[str, list[int]]:
        """Partition key *positions* by owning shard.

        Returns ``{shard_id: [position, ...]}`` covering every position in
        ``keys`` exactly once, positions in input order -- the shape the
        router needs to slice a columnar batch per shard.
        """
        parts: dict[str, list[int]] = {}
        shard_for = self.shard_for
        for position, key in enumerate(keys):
            parts.setdefault(shard_for(key), []).append(position)
        return parts
