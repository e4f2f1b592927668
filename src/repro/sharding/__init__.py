"""Sharded multi-process serving tier: route a keyed fleet across workers.

A durable engine is plain data -- a spec in the manifest plus segments
and a WAL -- rebuildable on any worker from its store directory
(:class:`~repro.durability.DirectoryCheckpointStore`) alone.  This
package is the thing that contract was built for:

* :class:`ConsistentHashRing` -- process-independent (``blake2b``)
  consistent hashing of series keys onto shard ids, minimal remap on
  membership change;
* :class:`ShardSpec` / :class:`ClusterSpec` -- the tier as JSON-able
  data, mirroring :mod:`repro.specs`;
* the :mod:`worker <repro.sharding.worker>` -- one process, one durable
  engine session over one exclusively-locked store, serving a batched
  command loop (one message per shard per batch, never per-point IPC);
* :class:`ShardRouter` -- the front door: columnar fan-out/fan-in over
  the workers, checkpoint-handoff failover (a SIGKILLed worker's store
  is reopened by a replacement that replays the surviving WAL prefix
  bit-identically), and live shard add/remove by drain-and-adopt
  migration.

Start to finish::

    from repro.sharding import ClusterSpec, ShardRouter

    cluster = ClusterSpec.for_root(engine_spec, "/var/lib/fleet", n_shards=4)
    with ShardRouter(cluster) as router:
        result = router.ingest({key: values for ...})   # one msg per shard
        router.stats()                                   # aggregated fleet
"""

from repro.sharding.errors import (
    ShardDownError,
    ShardFailoverError,
    ShardingError,
    WorkerCrashError,
)
from repro.sharding.hashring import ConsistentHashRing
from repro.sharding.router import (
    ClusterStats,
    DegradedResult,
    FailoverReport,
    ShardHealth,
    ShardRouter,
)
from repro.sharding.spec import ClusterSpec, ShardSpec

__all__ = [
    "ClusterSpec",
    "ClusterStats",
    "ConsistentHashRing",
    "DegradedResult",
    "FailoverReport",
    "ShardDownError",
    "ShardFailoverError",
    "ShardHealth",
    "ShardRouter",
    "ShardSpec",
    "ShardingError",
    "WorkerCrashError",
]
