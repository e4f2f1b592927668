"""Deterministic fault injection and supervision policies.

The durability layer (PR 5) grew injectable *kill points* -- the store's
``fault_hook`` fires a symbolic name at every interesting I/O boundary --
and the sharding tier (PR 7) used them to arm one hard-coded failure
mode: SIGKILL at a WAL/manifest boundary.  This package generalizes that
into a composable harness plus the policies that survive it:

* :class:`FaultInjector` / :class:`FaultPlan` -- a *plan* of named
  injectors (``sigkill``, ``raise`` -- an ``OSError`` such as ENOSPC,
  ``torn`` partial writes, ``bit_flip`` on-disk corruption, fixed
  ``hang``, ``drop``/``delay`` of a worker reply) bound to boundary
  names and **counter-based trigger windows**.  No randomness anywhere:
  the N-th hit of a boundary fires, every run reproduces the same
  failure at the same byte.  Plans are JSON-able so the router can ship
  them into worker processes.
* :class:`RetryPolicy` -- bounded exponential backoff for transient
  errors, used by the shard router's supervision layer and usable
  standalone around any callable.

Boundary names come from two layers: the checkpoint store's kill points
(``wal.append.before/torn/after``, ``segment.write.*``,
``manifest.swap.*``, ``delete.before``) and the shard
worker's command loop (:data:`WORKER_RECV`, :data:`WORKER_REPLY`).
"""

from repro.faults.plan import (
    FaultInjector,
    FaultPlan,
    WORKER_RECV,
    WORKER_REPLY,
)
from repro.faults.retry import RetryPolicy

__all__ = [
    "FaultInjector",
    "FaultPlan",
    "RetryPolicy",
    "WORKER_RECV",
    "WORKER_REPLY",
]
