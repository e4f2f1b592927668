"""Shard router: consistent-hash fan-out over supervised worker processes.

:class:`ShardRouter` is the serving tier's front door.  It spawns one
:mod:`worker <repro.sharding.worker>` process per
:class:`~repro.sharding.ShardSpec`, each running a durable
:class:`~repro.streaming.MultiSeriesEngine` session over its own
exclusively-locked :class:`~repro.durability.DirectoryCheckpointStore`,
and routes by consistent hashing on the series key
(:class:`~repro.sharding.ConsistentHashRing` -- process-independent
``blake2b`` tokens, so the same key always reaches the same shard across
restarts).

**The hot path stays batched end to end.**  ``ingest`` takes the same
columnar forms the engine does, partitions the *columns* of a
``{key: values}`` grid by shard, and sends each worker exactly one
message per batch -- its keys plus its ``(L, k)`` sub-grid -- then fans
the per-shard :class:`~repro.streaming.IngestResult` arrays back into
one combined result with a few strided scatters.  No per-point IPC
anywhere.

**The router is a supervisor, not just a dispatcher.**  Failure handling
is layered by how much actually went wrong:

* *Transient errors* (a worker replying ``OSError`` -- full disk, EINTR,
  an injected ENOSPC) retry in place under a bounded exponential-backoff
  :class:`~repro.faults.RetryPolicy`.  Mutating retries are made safe
  first: the router verifies the worker's durable point count did not
  advance, then has it checkpoint (a fresh WAL generation discards a
  possibly-appended-but-unapplied record) before re-sending -- a blind
  re-send after a failure *between* WAL append and state advance would
  double-apply on the next crash recovery.
* *Deaths* trigger checkpoint-handoff failover: a dead worker (SIGKILL
  included) leaves a store whose ownership lease reads stale by dead
  pid; the replacement takes the lease over, rebuilds from the last
  manifest and replays the surviving WAL prefix bit-identically.  A
  death detected mid-ingest recovers first and then raises
  :class:`~repro.sharding.ShardFailoverError` telling the caller -- via
  WAL arithmetic, not guesswork -- whether the in-flight batch survived
  into the log (don't re-send) or was lost before its append (re-send).
* *Hangs* are distinguished from crashes by a watchdog: a worker that is
  alive but silent past ``request_timeout`` is SIGKILLed by the router
  and failed over like a crash, with the resulting error's ``cause``
  set to ``"hang"``.
* *Crash loops* trip a circuit breaker: ``circuit_threshold``
  consecutive deaths with no intervening successful reply mark the shard
  ``down`` -- no more respawn attempts, its process reaped -- until an
  operator :meth:`~ShardRouter.failover` succeeds and resets the
  breaker.
* *Degraded service* is explicit: ``ingest``/``stats``/``keys`` accept
  ``allow_partial=True`` to serve the surviving shards and report
  exactly which keys/shards were skipped instead of raising
  :class:`~repro.sharding.ShardDownError`.  :meth:`health` reports every
  shard's state (``up | degraded | down``), restart count, last error
  and any series keys its recovery quarantined.

**Shards are elastic.**  :meth:`add_shard` / :meth:`remove_shard`
migrate exactly the keys the ring reassigns (about ``1/n`` of the space)
by drain-and-adopt: the source engine extracts and commits, the target
adopts and commits, both via the engine's
``extract_series``/``adopt_series`` handoff, which ships the series as
the bytes of a store segment -- the moved series continue
bit-identically on their new shard, as kernel columns.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass, field
from typing import Any, Hashable, Sequence

import numpy as np

from repro.durability.scrub import RECOVERY_POLICIES, decode_manifest_keys
from repro.faults import FaultPlan, RetryPolicy
from repro.sharding.errors import (
    ShardDownError,
    ShardFailoverError,
    ShardingError,
    WorkerCrashError,
)
from repro.sharding.hashring import ConsistentHashRing
from repro.sharding.spec import ClusterSpec, ShardSpec
from repro.sharding.worker import worker_main
from repro.streaming.engine import (
    FleetStats,
    IngestResult,
    batch_record,
    grid_record,
)

__all__ = [
    "ClusterStats",
    "DegradedResult",
    "FailoverReport",
    "ShardHealth",
    "ShardRouter",
]

#: worker-reported exception kinds treated as transient (retry in place);
#: everything else either maps to a local exception type or is a bug.
_TRANSIENT_KINDS = frozenset(
    {"OSError", "IOError", "TimeoutError", "InterruptedError", "BlockingIOError"}
)

#: error kinds re-raised locally as the same exception type
_KNOWN_KINDS = {
    "ValueError": ValueError,
    "TypeError": TypeError,
    "KeyError": KeyError,
    "RuntimeError": RuntimeError,
}

#: the default supervision retry policy (three attempts, 50 ms -> 200 ms)
_DEFAULT_RETRY = RetryPolicy()

#: grace seconds :meth:`ShardRouter.close` gives each worker to
#: checkpoint and exit before escalating to SIGKILL
_CLOSE_TIMEOUT = 30.0


@dataclass(frozen=True, slots=True)
class FailoverReport:
    """Outcome of one shard failover (replacement already serving)."""

    shard_id: str
    recovered_points: int
    duration_seconds: float


@dataclass(frozen=True, slots=True)
class ShardHealth:
    """One shard's supervision state, as :meth:`ShardRouter.health` reports it.

    ``state`` is ``"up"`` (serving, no recent trouble), ``"degraded"``
    (serving, but with unresolved trouble: consecutive failures below the
    breaker threshold, or recovery quarantined some of its series), or
    ``"down"`` (circuit breaker open; requests raise or skip it until an
    operator :meth:`~ShardRouter.failover` succeeds).  ``restarts``
    counts successful failovers over the router's lifetime;
    ``consecutive_failures`` is the breaker's current count (reset by any
    successful reply).  ``quarantined_keys`` names series the shard's
    last recovery had to quarantine (empty when recovery was clean).
    ``kernel`` is the worker's :func:`repro.core.fleet.kernel_backend`
    report -- which body its fleet kernels run, and why -- as of its start.
    """

    shard_id: str
    state: str
    pid: int | None
    restarts: int
    consecutive_failures: int
    points_confirmed: int
    last_error: str | None = None
    last_failure_cause: str | None = None
    quarantined_keys: tuple = ()
    kernel: dict | None = None


@dataclass(frozen=True, slots=True)
class ClusterStats:
    """Fleet statistics aggregated across every shard.

    ``down_shards`` names shards skipped by an ``allow_partial=True``
    aggregation (their series are *not* in the totals); it is always
    empty for strict calls, which raise instead.
    """

    series_total: int
    series_live: int
    series_warming: int
    points_total: int
    anomalies_total: int
    shards: dict = field(default_factory=dict)
    down_shards: tuple = ()


@dataclass(frozen=True, slots=True)
class DegradedResult:
    """An ``allow_partial=True`` ingest outcome: the result plus the gaps.

    ``result`` holds the combined arrays for every key that was actually
    served.  ``skipped_keys`` names the keys whose results are **not**
    in ``result`` -- keys routed to a down shard, or to a shard that
    died mid-batch (its reply was lost with it even when its state
    advanced).  ``down_shards`` lists shards whose breaker is open after
    this call.  ``failovers`` maps each shard that died mid-batch and
    was brought back to whether its slice survived into the WAL
    (``True``: state advanced, do not re-send those keys; ``False``:
    re-send them).
    """

    result: IngestResult
    skipped_keys: tuple = ()
    down_shards: tuple = ()
    failovers: dict = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        """True when nothing was skipped -- the result covers every key."""
        return not self.skipped_keys and not self.down_shards


class _WorkerDied(Exception):
    """Internal: the peer process died mid-conversation.

    ``cause`` is ``"crash"`` (found dead / pipe broke) or ``"hang"``
    (alive but silent past the deadline; the watchdog SIGKILLed it).
    """

    def __init__(self, cause: str = "crash"):
        super().__init__(cause)
        self.cause = cause


class _TransientShardError(Exception):
    """Internal: a worker replied with a transient (retryable) error."""

    def __init__(self, shard_id: str, kind: str, message: str):
        super().__init__(f"shard {shard_id!r}: {kind}: {message}")
        self.shard_id = shard_id
        self.kind = kind
        self.message = message


class _ShardHealthState:
    """Mutable per-shard supervision bookkeeping (router-side only)."""

    __slots__ = (
        "restarts",
        "consecutive_failures",
        "last_error",
        "last_failure_cause",
        "down",
        "quarantined_keys",
    )

    def __init__(self) -> None:
        self.restarts = 0
        #: deaths (crash/hang/send-failure) since the last successful
        #: reply; this is the circuit breaker's counter.
        self.consecutive_failures = 0
        self.last_error: str | None = None
        self.last_failure_cause: str | None = None
        self.down = False
        self.quarantined_keys: tuple = ()


class _ShardWorker:
    """Router-side handle of one worker process."""

    __slots__ = ("spec", "process", "conn", "points_confirmed", "ready_info")

    def __init__(
        self, spec: ShardSpec, process: Any, conn: Any, points: int, info: dict
    ):
        self.spec = spec
        self.process = process
        self.conn = conn
        #: observations this worker has durably applied (WAL-appended and
        #: advanced), from its ready report plus confirmed ingest replies.
        #: The failover arithmetic compares a replacement's recovered
        #: count against this to decide whether an in-flight batch
        #: survived into the WAL.
        self.points_confirmed = points
        self.ready_info = info


class ShardRouter:
    """Route a keyed fleet across supervised durable worker processes.

    Parameters
    ----------
    cluster:
        The :class:`~repro.sharding.ClusterSpec` to serve.  Worker
        processes start immediately (recovering any existing store
        state); the router is ready when the constructor returns.
    wal_sync:
        Forwarded to every worker's store (``fsync`` per WAL append).
    auto_recover:
        ``True`` (default): a worker death detected mid-request triggers
        failover before the error surfaces, and the raised
        :class:`~repro.sharding.ShardFailoverError` says whether to
        re-send.  ``False``: the death raises
        :class:`~repro.sharding.WorkerCrashError` and the shard stays
        down until :meth:`failover` is called; the hang watchdog is also
        off (a silent worker raises instead of being killed).
    checkpoint_interval:
        Per-worker auto-checkpoint cadence in WAL records (``None``:
        checkpoint only on :meth:`checkpoint`/:meth:`close` -- between
        those, durability rides on the WAL, which is the fast and still
        crash-safe default).
    request_timeout / spawn_timeout:
        Seconds to wait for a reply / for a worker to report ready
        (recovery of a large store happens inside the spawn window).
        ``request_timeout`` is also the hang watchdog's deadline.
    stale_after:
        Store-lease staleness horizon, forwarded to workers.
    retry:
        The :class:`~repro.faults.RetryPolicy` for transient worker
        errors (default: three attempts, exponential backoff).  ``None``
        disables retries -- transient errors surface immediately as
        :class:`~repro.sharding.ShardingError`.
    circuit_threshold:
        Consecutive deaths (with no successful reply in between) after
        which a shard's breaker opens and it is marked ``down`` instead
        of respawned again.  Must be >= 1.
    recovery:
        Corruption policy forwarded to every worker's engine ``open``
        (``strict | truncate | quarantine``).  The router defaults to
        ``"quarantine"`` -- a serving tier should come up degraded and
        *say so* (see :meth:`health`) rather than refuse to start; the
        engine API itself defaults to ``"strict"``.
    fault_plans:
        Tests only: ``{shard_id: FaultPlan | dict | [FaultInjector]}``
        arms that worker with a deterministic
        :class:`~repro.faults.FaultPlan`.  Consumed at spawn; after a
        failover the replacement is re-armed with only the plan's
        ``persist=True`` injectors (the crash-loop shape), so one-shot
        faults do not repeat.
    """

    def __init__(
        self,
        cluster: ClusterSpec,
        *,
        wal_sync: bool = False,
        auto_recover: bool = True,
        checkpoint_interval: int | None = None,
        request_timeout: float = 300.0,
        spawn_timeout: float = 600.0,
        stale_after: float | None = None,
        retry: RetryPolicy | None = _DEFAULT_RETRY,
        circuit_threshold: int = 3,
        recovery: str = "quarantine",
        fault_plans: dict | None = None,
    ):
        if not isinstance(cluster, ClusterSpec):
            raise TypeError(
                f"cluster must be a ClusterSpec, got {type(cluster).__name__}"
            )
        if retry is not None and not isinstance(retry, RetryPolicy):
            raise TypeError(
                f"retry must be a RetryPolicy or None, got {type(retry).__name__}"
            )
        if int(circuit_threshold) < 1:
            raise ValueError(
                f"circuit_threshold must be >= 1, got {circuit_threshold}"
            )
        if recovery not in RECOVERY_POLICIES:
            raise ValueError(
                f"recovery must be one of {RECOVERY_POLICIES}, got {recovery!r}"
            )
        self.cluster = cluster
        self.auto_recover = bool(auto_recover)
        self.request_timeout = float(request_timeout)
        self.spawn_timeout = float(spawn_timeout)
        self._wal_sync = bool(wal_sync)
        self._checkpoint_interval = checkpoint_interval
        self._stale_after = stale_after
        self._retry = retry
        self._circuit_threshold = int(circuit_threshold)
        self._recovery = str(recovery)
        #: plans waiting to be shipped at the next spawn of their shard
        self._fault_plans: dict[str, Any] = dict(fault_plans or {})
        #: the plan currently armed in each live worker (for survivor
        #: re-arming on failover)
        self._armed_plans: dict[str, FaultPlan] = {}
        self._spec_dict = cluster.engine.to_dict()
        try:
            self._ctx = multiprocessing.get_context("fork")
        except ValueError:  # platform without fork: spawn works too
            self._ctx = multiprocessing.get_context()
        self._ring = ConsistentHashRing(
            (shard.shard_id for shard in cluster.shards),
            virtual_nodes=cluster.virtual_nodes,
        )
        self._workers: dict[str, _ShardWorker] = {}
        self._health: dict[str, _ShardHealthState] = {}
        self._closed = False
        try:
            for shard in cluster.shards:
                self._workers[shard.shard_id] = self._spawn(shard)
        except BaseException:
            self.close(checkpoint=False)
            raise

    # ------------------------------------------------------- worker lifecycle

    def _worker_options(self, shard_id: str) -> dict:
        options: dict = {"wal_sync": self._wal_sync, "recovery": self._recovery}
        if self._checkpoint_interval is not None:
            options["checkpoint_interval"] = self._checkpoint_interval
        if self._stale_after is not None:
            options["stale_after"] = self._stale_after
        pending = self._fault_plans.pop(shard_id, None)
        if pending is not None:
            plan = FaultPlan.coerce(pending)
            if plan:
                options["fault_plan"] = plan.to_dict()
                self._armed_plans[shard_id] = plan
            else:
                self._armed_plans.pop(shard_id, None)
        return options

    def _spawn(self, spec: ShardSpec) -> _ShardWorker:
        """Start (or restart) the worker serving ``spec`` and await ready."""
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=worker_main,
            args=(
                child_conn,
                spec.shard_id,
                spec.store_path,
                self._spec_dict,
                self._worker_options(spec.shard_id),
            ),
            name=f"repro-shard-{spec.shard_id}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        deadline = time.monotonic() + self.spawn_timeout
        try:
            while not parent_conn.poll(0.05):
                if not process.is_alive():
                    raise WorkerCrashError(
                        spec.shard_id,
                        "worker process died before reporting ready (store "
                        "locked by a live process, or recovery failed; check "
                        "its stderr)",
                    )
                if time.monotonic() > deadline:
                    process.kill()
                    process.join(timeout=5.0)
                    raise WorkerCrashError(
                        spec.shard_id,
                        f"worker did not report ready within "
                        f"{self.spawn_timeout}s",
                    )
            status, info = parent_conn.recv()
            if status != "ready":
                # A fatal report means the worker is about to re-raise and
                # exit; reap it, escalating if it lingers.
                process.join(timeout=5.0)
                if process.is_alive():
                    process.terminate()
                    process.join(timeout=5.0)
                    if process.is_alive():
                        process.kill()
                        process.join(timeout=5.0)
                raise WorkerCrashError(
                    spec.shard_id, f"worker failed to start: {info}"
                )
        except BaseException:
            # Never leak the parent pipe end of a failed spawn.
            parent_conn.close()
            raise
        worker = _ShardWorker(
            spec, process, parent_conn, int(info["points_total"]), dict(info)
        )
        health = self._health.setdefault(spec.shard_id, _ShardHealthState())
        recovery = info.get("recovery")
        if recovery:
            decoded = decode_manifest_keys(recovery.get("affected_keys") or [])
            health.quarantined_keys = tuple(decoded or ())
        return worker

    def _recv(self, worker: _ShardWorker) -> tuple[str, Any]:
        """Await one reply, raising :class:`_WorkerDied` on death or hang.

        The hang watchdog lives here: a worker still alive but silent
        past ``request_timeout`` gets a router-side SIGKILL and is then
        treated exactly like a crash (stale lease, failover handoff) --
        except the eventual error says ``cause="hang"``.  With
        ``auto_recover`` off the watchdog is off too, and a hang raises
        :class:`WorkerCrashError` leaving the process alone.
        """
        shard_id = worker.spec.shard_id
        deadline = time.monotonic() + self.request_timeout
        try:
            while not worker.conn.poll(0.05):
                if not worker.process.is_alive():
                    raise _WorkerDied("crash")
                if time.monotonic() > deadline:
                    if not self.auto_recover:
                        raise WorkerCrashError(
                            shard_id,
                            f"no reply within {self.request_timeout}s "
                            "(worker alive but stuck)",
                        )
                    worker.process.kill()
                    worker.process.join(timeout=5.0)
                    raise _WorkerDied("hang")
            reply = worker.conn.recv()
        except (EOFError, OSError):
            raise _WorkerDied("crash") from None
        health = self._health.get(shard_id)
        if health is not None:
            # Any successful reply closes the breaker's counting window.
            health.consecutive_failures = 0
        return reply

    def _request(self, worker: _ShardWorker, command: str, payload: Any) -> Any:
        """One synchronous command round-trip, errors re-raised locally."""
        try:
            worker.conn.send((command, payload))
        except (BrokenPipeError, OSError):
            raise _WorkerDied("crash") from None
        return self._request_reply(worker)

    def _request_reply(self, worker: _ShardWorker) -> Any:
        """Receive one already-sent request's reply (shared error mapping).

        Transient kinds raise :class:`_TransientShardError` for the
        retry layer; known value/usage kinds re-raise as the same local
        type; anything else is a :class:`ShardingError` carrying the
        worker's traceback.
        """
        status, reply = self._recv(worker)
        if status == "error":
            kind, message = str(reply[0]), str(reply[1])
            trace = reply[2] if len(reply) > 2 else None
            if kind in _TRANSIENT_KINDS:
                raise _TransientShardError(worker.spec.shard_id, kind, message)
            exception_type = _KNOWN_KINDS.get(kind)
            if exception_type is not None:
                raise exception_type(
                    f"shard {worker.spec.shard_id!r}: {message}"
                )
            detail = f"shard {worker.spec.shard_id!r}: {kind}: {message}"
            if trace:
                detail += f"\n--- worker traceback ---\n{trace}"
            raise ShardingError(detail)
        return reply

    def _alive(self, shard_id: str, allow_down: bool = False) -> _ShardWorker:
        if self._closed:
            raise ShardingError("router is closed")
        worker = self._workers.get(shard_id)
        if worker is None:
            raise ShardingError(f"no shard {shard_id!r} in this cluster")
        health = self._health.get(shard_id)
        if not allow_down and health is not None and health.down:
            raise ShardDownError(
                shard_id, health.last_error or "circuit breaker open"
            )
        return worker

    def failover(self, shard_id: str) -> FailoverReport:
        """Replace a dead (or down) worker: reopen its store and serve on.

        The replacement takes over the dead process' stale store lease,
        rebuilds from the last committed manifest and replays the
        surviving WAL prefix -- state continues bit-identically with the
        log.  This is also the operator's lever against an open circuit
        breaker: a successful call resets the breaker, clears any armed
        fault plan, and marks the shard up again.  Raises
        :class:`~repro.sharding.ShardingError` if the worker is still
        alive (kill it first; live workers are drained with
        :meth:`remove_shard`, not failed over).
        """
        worker = self._alive(shard_id, allow_down=True)
        health = self._health[shard_id]
        if not health.down:
            # A killed worker's pipe hits EOF an instant before the
            # process is reapable (fds close before the exit
            # notification), so a caller reacting to the EOF can land
            # here while ``is_alive()`` still says yes; a short join
            # closes that window without masking a worker that is
            # genuinely serving.
            worker.process.join(timeout=1.0)
            if worker.process.is_alive():
                raise ShardingError(
                    f"shard {shard_id!r}: worker pid {worker.process.pid} is "
                    "alive; failover replaces dead workers only (use "
                    "remove_shard() to drain a live one)"
                )
        start = time.perf_counter()
        try:
            worker.conn.close()
        except OSError:
            pass
        worker.process.join()
        # An operator restart starts clean: no re-armed faults, and a
        # success closes the breaker.
        self._fault_plans.pop(shard_id, None)
        self._armed_plans.pop(shard_id, None)
        replacement = self._spawn(worker.spec)
        self._workers[shard_id] = replacement
        health.down = False
        health.consecutive_failures = 0
        health.restarts += 1
        return FailoverReport(
            shard_id=shard_id,
            recovered_points=replacement.points_confirmed,
            duration_seconds=time.perf_counter() - start,
        )

    def _auto_failover(
        self, shard_id: str, cause: str, detail: str
    ) -> _ShardWorker | None:
        """Supervision failover: respawn unless the breaker trips.

        Returns the replacement worker, or ``None`` when the shard was
        marked down instead (breaker threshold reached, or the respawn
        itself failed).  Re-arms only the ``persist=True`` injectors of
        any armed fault plan, so deterministic one-shot faults do not
        kill the replacement too.
        """
        health = self._health[shard_id]
        health.consecutive_failures += 1
        health.last_error = detail
        health.last_failure_cause = cause
        if health.consecutive_failures >= self._circuit_threshold:
            self._mark_down(
                shard_id,
                f"{health.consecutive_failures} consecutive failures "
                f"(last: {detail})",
            )
            return None
        armed = self._armed_plans.get(shard_id)
        if armed is not None:
            survivors = armed.survivors()
            if survivors:
                self._fault_plans[shard_id] = survivors
            else:
                self._armed_plans.pop(shard_id, None)
        worker = self._workers[shard_id]
        try:
            worker.conn.close()
        except OSError:
            pass
        worker.process.join()
        try:
            replacement = self._spawn(worker.spec)
        except ShardingError as error:
            self._mark_down(shard_id, f"failover respawn failed: {error}")
            return None
        self._workers[shard_id] = replacement
        health.restarts += 1
        return replacement

    def _mark_down(self, shard_id: str, detail: str) -> None:
        """Open the circuit breaker: reap the worker, stop respawning."""
        health = self._health[shard_id]
        health.down = True
        health.last_error = detail
        worker = self._workers[shard_id]
        process = worker.process
        if process.is_alive():
            process.terminate()
            process.join(timeout=5.0)
            if process.is_alive():
                process.kill()
                process.join(timeout=5.0)
        else:
            process.join(timeout=5.0)
        try:
            worker.conn.close()
        except OSError:
            pass

    def health(self) -> dict[str, ShardHealth]:
        """Every shard's supervision state, router-side (no worker IPC)."""
        report: dict[str, ShardHealth] = {}
        for shard_id in sorted(self._workers):
            worker = self._workers[shard_id]
            health = self._health.get(shard_id)
            if health is None:
                health = _ShardHealthState()
            if health.down:
                state = "down"
            elif health.consecutive_failures or health.quarantined_keys:
                state = "degraded"
            else:
                state = "up"
            report[shard_id] = ShardHealth(
                shard_id=shard_id,
                state=state,
                pid=None if health.down else worker.process.pid,
                restarts=health.restarts,
                consecutive_failures=health.consecutive_failures,
                points_confirmed=worker.points_confirmed,
                last_error=health.last_error,
                last_failure_cause=health.last_failure_cause,
                quarantined_keys=health.quarantined_keys,
                kernel=worker.ready_info.get("kernel"),
            )
        return report

    # ------------------------------------------------------------- retry layer

    def _retry_request(
        self,
        worker: _ShardWorker,
        message: tuple,
        first: _TransientShardError,
        mutating: bool,
    ) -> Any:
        """Re-send a command under the retry policy after a transient error.

        An idempotent command is simply sent again.  A *mutating* one
        (``ingest`` / ``ingest_rows``) is not safe to re-send blind: the
        failure can land *between* the worker's WAL append and its state
        advance, leaving the record in the log with the state (and confirmed
        count) unchanged -- a blind re-send would then apply the slice
        twice on the next crash recovery.  So each mutating retry first
        verifies the worker's durable count did not move (if it did,
        something half-applied: raise rather than guess), then has the
        worker checkpoint -- a fresh WAL generation discards the
        ambiguous tail -- and only then re-sends.
        """
        shard_id = worker.spec.shard_id
        if self._retry is None:
            raise ShardingError(
                f"shard {shard_id!r}: {first.kind}: {first.message} "
                "(retry disabled)"
            ) from None
        last = first
        for pause in self._retry.delays():
            time.sleep(pause)
            try:
                if mutating:
                    points = int(self._request(worker, "points_total", None))
                    if points != worker.points_confirmed:
                        worker.points_confirmed = points
                        raise ShardingError(
                            f"shard {shard_id!r}: durable point count moved "
                            f"during a failed request ({last.kind}: "
                            f"{last.message}); a partial apply happened, "
                            "not re-sending"
                        )
                    self._request(worker, "checkpoint", None)
                return self._request(worker, message[0], message[1])
            except _TransientShardError as error:
                last = error
        raise ShardingError(
            f"shard {shard_id!r}: transient {last.kind} persisted through "
            f"{self._retry.attempts} attempts: {last.message}"
        ) from None

    def _request_supervised(
        self,
        shard_id: str,
        command: str,
        payload: Any = None,
        in_flight: bool = False,
    ) -> Any:
        """Idempotent command with transient retry and one failover retry.

        Used by the reads (``series_stats``, ``forecast`` and the
        fleet-wide ``stats`` / ``keys``) and ``checkpoint``: a worker death
        during one of these is recovered in place (failover, then one
        re-send to the replacement) instead of surfacing an internal
        exception.
        ``in_flight`` says the command is already on the worker's pipe
        (:meth:`_request_fleet` sends to every shard before it waits):
        the first attempt then only awaits the reply.
        """
        retried_death = False
        while True:
            worker = self._alive(shard_id)
            try:
                try:
                    if in_flight:
                        in_flight = False
                        return self._request_reply(worker)
                    return self._request(worker, command, payload)
                except _TransientShardError as error:
                    return self._retry_request(worker, (command, payload), error, False)
            except _WorkerDied as died:
                if not self.auto_recover:
                    raise WorkerCrashError(
                        shard_id,
                        f"worker died during {command!r} and auto_recover "
                        "is off; call failover() to bring the shard back",
                    ) from None
                if retried_death:
                    raise WorkerCrashError(
                        shard_id,
                        f"worker died during {command!r} twice in a row "
                        "(the replacement died too)",
                    ) from None
                detail = (
                    "worker hung past its deadline (watchdog-killed) "
                    f"during {command!r}"
                    if died.cause == "hang"
                    else f"worker died during {command!r}"
                )
                if self._auto_failover(shard_id, died.cause, detail) is None:
                    health = self._health[shard_id]
                    raise ShardDownError(
                        shard_id, health.last_error or detail
                    ) from None
                retried_death = True

    # ---------------------------------------------------------------- routing

    def shard_of(self, key: Hashable) -> str:
        """The shard id currently serving ``key``."""
        return self._ring.shard_for(key)

    @property
    def shard_ids(self) -> list[str]:
        """Shards in the cluster, sorted."""
        return sorted(self._workers)

    def _handle_casualties(
        self, casualties: dict, allow_partial: bool
    ) -> tuple[dict, list, list]:
        """Fail over every worker that died mid-request.

        ``casualties`` maps each dead shard to ``(points_before,
        rows_in_flight, cause, sub_keys)``.  Each is brought back
        *first* (or marked down by its breaker); the WAL arithmetic then
        says whether its slice survived: the recovered count equals
        either ``points_before`` (the slice missed the WAL -- lost,
        re-send) or ``points_before + rows_in_flight`` (the WAL append
        preceded the death and replay applied it -- don't re-send).  A
        slice's WAL record is single and CRC-framed, so there is no
        partial case.

        Strict mode raises the first casualty's error
        (:class:`ShardFailoverError` or :class:`ShardDownError`) after
        *all* casualties are handled; ``allow_partial`` returns
        ``(failovers, skipped_keys, down_shards)`` for the degraded
        result instead.
        """
        if not self.auto_recover:
            shard_id = next(iter(casualties))
            raise WorkerCrashError(
                shard_id,
                "worker died mid-ingest and auto_recover is off; call "
                "failover() to bring the shard back",
            )
        failovers: dict[str, bool] = {}
        skipped: list = []
        down: list[str] = []
        first_error: ShardingError | None = None
        for shard_id, (before, rows, cause, sub_keys) in casualties.items():
            detail = (
                "worker hung past its deadline (watchdog-killed)"
                if cause == "hang"
                else "worker died mid-request"
            )
            replacement = self._auto_failover(shard_id, cause, detail)
            skipped.extend(sub_keys)
            error: ShardingError
            if replacement is None:
                down.append(shard_id)
                error = ShardDownError(
                    shard_id,
                    self._health[shard_id].last_error or detail,
                    tuple(sub_keys),
                )
            else:
                survived = replacement.points_confirmed >= before + rows
                failovers[shard_id] = survived
                error = ShardFailoverError(
                    shard_id,
                    survived,
                    replacement.points_confirmed,
                    cause=cause,
                )
            if first_error is None:
                first_error = error
        if not allow_partial:
            assert first_error is not None  # casualties is never empty
            raise first_error
        return failovers, skipped, down

    def _partition_down(
        self, parts: dict, keys: list, allow_partial: bool
    ) -> tuple[list, list]:
        """Split a routing partition's down shards out before any send.

        Strict mode raises :class:`ShardDownError` (naming this
        request's keys on the down shard) before any slice ships, so a
        strict failure applies nothing.  Returns ``(down_shards,
        skipped_keys)``.
        """
        down: list[str] = []
        skipped: list = []
        for shard_id in sorted(parts):
            health = self._health.get(shard_id)
            if health is None or not health.down:
                continue
            sub_keys = [keys[position] for position in parts[shard_id]]
            if not allow_partial:
                raise ShardDownError(
                    shard_id,
                    health.last_error or "circuit breaker open",
                    tuple(sub_keys),
                )
            down.append(shard_id)
            skipped.extend(sub_keys)
        return down, skipped

    def ingest(
        self,
        batch: "dict | tuple | Sequence",
        *,
        allow_partial: bool = False,
    ) -> IngestResult | DegradedResult:
        """Ingest one batch across the cluster; columnar in, columnar out.

        Accepts the engine's batched input forms -- a columnar ``{key:
        values}`` grid (the fast path), parallel ``(keys, values)``
        arrays, or an iterable of ``(key, value)`` rows -- normalizes
        them with the engine's own
        :func:`~repro.streaming.engine.batch_record` (so rows that do not
        convert apply up to the first bad one and then raise, as they do
        on one engine), partitions by shard, sends **one message per
        shard**, and returns one combined
        :class:`~repro.streaming.IngestResult` in the equivalent input
        order.  Per-shard application is not transactional across the
        cluster (a validation error on one shard leaves other shards'
        slices applied, mirroring the engine's own non-transactional
        batch contract); the raised error names the offending shard.

        Transient worker errors (full disk and friends) are retried in
        place under the router's :class:`~repro.faults.RetryPolicy`,
        with a checkpoint between attempts so a retry can never
        double-apply.  If a worker dies mid-batch, see
        :class:`ShardFailoverError`; if a shard's circuit breaker is
        open, strict mode raises :class:`ShardDownError` *before*
        sending anything, while ``allow_partial=True`` serves the
        surviving shards and returns a :class:`DegradedResult` naming
        every skipped key.
        """
        record, error = batch_record(batch)
        result = self._fan_out(record, allow_partial)
        if error is not None:
            raise error
        return result

    def ingest_grid(
        self,
        round_keys: list,
        grid: "np.ndarray | Sequence",
        *,
        allow_partial: bool = False,
    ) -> IngestResult | DegradedResult:
        """Ingest a round-major ``(rounds, n_keys)`` grid across the cluster.

        The already-columnar twin of :meth:`ingest`'s dict form -- the
        serving layer's wire format decodes straight into ``(keys,
        grid)``, and this entry point forwards it without rebuilding a
        dict.  Column ``j`` holds ``rounds`` consecutive observations of
        ``round_keys[j]``; the grid is partitioned by column onto shards
        (one message per shard) and the combined
        :class:`~repro.streaming.IngestResult` comes back in round-major
        order.  Error/partial semantics are exactly :meth:`ingest`'s.
        """
        return self._fan_out(grid_record(round_keys, grid), allow_partial)

    def _fan_out(
        self, record: tuple, allow_partial: bool
    ) -> IngestResult | DegradedResult:
        """Fan a normalized batch out by column, fan the result arrays in.

        A ``grid`` record ships each shard its ``(rounds, width)``
        sub-grid for ``ingest_grid`` (``"ingest"``); a ``rows`` record is
        a one-round grid whose keys may repeat, and ships that single row
        (``"ingest_rows"``).  Everything else -- down-shard split, send,
        drain, casualties, degraded result -- is the same.
        """
        kind, keys, grid = record
        command = "ingest" if kind == "grid" else "ingest_rows"
        grid = np.atleast_2d(grid)
        n_rounds, n = grid.shape
        result = IngestResult(keys, n_rounds)
        if n_rounds * n == 0:
            return (
                DegradedResult(result=result) if allow_partial else result
            )
        parts = self._ring.assignments(keys)
        down_shards, skipped = self._partition_down(parts, keys, allow_partial)
        sent: list[tuple[_ShardWorker, np.ndarray, tuple, list]] = []
        casualties: dict[str, tuple[int, int, str, list]] = {}
        for shard_id, positions in parts.items():
            if shard_id in down_shards:
                continue
            worker = self._alive(shard_id, allow_down=True)
            columns = np.asarray(positions, dtype=np.intp)
            sub_keys = [keys[position] for position in positions]
            sub_grid = np.ascontiguousarray(grid[:, columns])
            message = (
                command,
                (sub_keys, sub_grid if command == "ingest" else sub_grid[0]),
            )
            try:
                worker.conn.send(message)
            except (BrokenPipeError, OSError):
                casualties[shard_id] = (
                    worker.points_confirmed,
                    n_rounds * columns.size,
                    "crash",
                    sub_keys,
                )
                continue
            sent.append((worker, columns, message, sub_keys))
        shard_error: BaseException | None = None
        for worker, columns, message, sub_keys in sent:
            rows_in_flight = n_rounds * columns.size
            try:
                try:
                    arrays = self._request_reply(worker)
                except _TransientShardError as error:
                    arrays = self._retry_request(worker, message, error, True)
            except _WorkerDied as died:
                casualties[worker.spec.shard_id] = (
                    worker.points_confirmed,
                    rows_in_flight,
                    died.cause,
                    sub_keys,
                )
                continue
            except (
                ValueError, TypeError, KeyError, RuntimeError, ShardingError
            ) as error:
                # Either the shard applied a prefix of its slice and
                # rejected a value, or retries ran out / the worker raised
                # something unexpected.  The worker is alive in both cases
                # and other shards' replies still need draining, so note
                # the first error, re-sync the confirmed count and go on.
                shard_error = shard_error or error
                self._resync_points(worker)
                continue
            worker.points_confirmed += rows_in_flight
            for name, shard_array in zip(IngestResult.FIELDS, arrays):
                getattr(result, name).reshape(n_rounds, n)[:, columns] = (
                    shard_array.reshape(n_rounds, columns.size)
                )
        failovers: dict[str, bool] = {}
        if casualties:
            failovers, lost, tripped = self._handle_casualties(
                casualties, allow_partial
            )
            skipped.extend(lost)
            down_shards.extend(tripped)
        if shard_error is not None:
            raise shard_error
        if allow_partial:
            return DegradedResult(
                result=result,
                skipped_keys=tuple(skipped),
                down_shards=tuple(down_shards),
                failovers=failovers,
            )
        return result

    def _resync_points(self, worker: _ShardWorker) -> None:
        """Refresh a worker's confirmed-point count after a partial apply."""
        try:
            worker.points_confirmed = int(
                self._request(worker, "points_total", None)
            )
        except (_WorkerDied, _TransientShardError):
            # Leave the stale count: the failover that follows replaces
            # this worker handle, and the replacement's count comes from
            # its fresh ready report -- a stale value here never persists.
            pass

    # ------------------------------------------------------------ single-key

    def process(self, key: Hashable, value: float) -> Any:
        """Ingest one observation for one series on its shard: a ``1 x 1``
        grid, journaled, retried and failed over like any batch (a value
        that does not convert to ``float`` is refused before it is sent)."""
        return self._fan_out(grid_record([key], [[value]]), False)[0]

    def forecast(self, key: Hashable, horizon: int) -> np.ndarray:
        """Forecast ``horizon`` values ahead for one live series: a read,
        failed over and re-sent like :meth:`series_stats`."""
        return self._request_supervised(
            self.shard_of(key), "forecast", (key, int(horizon))
        )

    def series_stats(self, key: Hashable) -> Any:
        """One series' :class:`~repro.streaming.SeriesStats`, from its shard.

        Raises :class:`KeyError` for a key no shard has seen (the
        worker's error travels back over the command protocol), and
        :class:`ShardDownError` when the owning shard's circuit breaker
        is open.
        """
        return self._request_supervised(
            self.shard_of(key), "series_stats", key
        )

    # -------------------------------------------------------------- fleet ops

    def _request_fleet(self, command: str, allow_partial: bool = False) -> dict:
        """One idempotent command on every shard: ``{shard_id: reply}``.

        The command goes out to every live worker before any reply is
        awaited, so the shards work side by side and the call costs the
        slowest shard, not their sum; replies are then drained in shard
        order through :meth:`_request_supervised`, shard by shard, so a
        shard whose send or reply fails gets its retries, the hang
        watchdog and one failover re-send alone, the others' replies
        intact.  A down shard maps to ``None`` with ``allow_partial``;
        otherwise the first error is raised -- after every reply already
        asked for has been drained, or the next command on that pipe
        would read this one's answer.
        """
        sent = set()
        for shard_id in sorted(self._workers):
            try:
                self._alive(shard_id).conn.send((command, None))
            except (ShardDownError, BrokenPipeError, OSError):
                # down, or found dead: the supervised pass below raises
                # for the one and fails the other over
                continue
            sent.add(shard_id)
        report: dict[str, Any] = {}
        failure: Exception | None = None
        for shard_id in sorted(self._workers):
            try:
                report[shard_id] = self._request_supervised(
                    shard_id, command, in_flight=shard_id in sent
                )
            except ShardDownError as down:
                report[shard_id] = None
                if not allow_partial:
                    failure = failure or down
            except Exception as error:  # noqa: BLE001 -- raised once drained
                failure = failure or error
        if failure is not None:
            raise failure
        return report

    def keys(self, *, allow_partial: bool = False) -> dict:
        """Every shard's series keys: ``{shard_id: [key, ...]}``.

        With ``allow_partial=True`` a down shard maps to ``None``
        instead of raising :class:`ShardDownError`.
        """
        return self._request_fleet("keys", allow_partial)

    def stats(self, *, allow_partial: bool = False) -> ClusterStats:
        """Aggregate fleet statistics across every shard.

        With ``allow_partial=True`` down shards are skipped -- their
        series are absent from the totals -- and named in the returned
        :attr:`ClusterStats.down_shards`.
        """
        replies = self._request_fleet("stats", allow_partial)
        shards: dict[str, FleetStats] = {
            shard_id: reply for shard_id, reply in replies.items() if reply is not None
        }
        return ClusterStats(
            series_total=sum(s.series_total for s in shards.values()),
            series_live=sum(s.series_live for s in shards.values()),
            series_warming=sum(s.series_warming for s in shards.values()),
            points_total=sum(s.points_total for s in shards.values()),
            anomalies_total=sum(s.anomalies_total for s in shards.values()),
            shards=shards,
            down_shards=tuple(sorted(set(replies) - set(shards))),
        )

    def checkpoint(self) -> dict:
        """Checkpoint every shard, side by side; returns
        ``{shard_id: CheckpointSummary}``."""
        return self._request_fleet("checkpoint")

    # ------------------------------------------------------- shard elasticity

    def _fleet_request(
        self, worker: _ShardWorker, command: str, payload: Any
    ) -> Any:
        """``_request`` with internal exceptions mapped to public ones.

        Used by migration, where a blind retry is *not* safe (an
        ``extract`` may have committed on the source) -- a death or
        exhausted transient surfaces immediately for the operator.
        """
        try:
            return self._request(worker, command, payload)
        except _WorkerDied:
            raise WorkerCrashError(
                worker.spec.shard_id,
                f"worker died during {command!r}; call failover() and "
                "re-drive the migration",
            ) from None
        except _TransientShardError as error:
            raise ShardingError(
                f"shard {worker.spec.shard_id!r}: {error.kind} during "
                f"{command!r}: {error.message}"
            ) from None

    def _migrate(
        self, source: _ShardWorker, target: _ShardWorker, keys: list
    ) -> int:
        """Move ``keys`` from ``source`` to ``target`` (drain, then adopt).

        The source commits the extraction (checkpoint) before the series
        travel -- as the bytes of a store segment -- and the target
        commits the adoption on arrival: the moved series continue
        bit-identically.  The router holds the payload for the in-between
        moment; see ``extract_series`` for the crash window trade-off.
        """
        if not keys:
            return 0
        payload = self._fleet_request(source, "extract", keys)
        self._fleet_request(target, "adopt", payload)
        source.points_confirmed = int(
            self._fleet_request(source, "points_total", None)
        )
        target.points_confirmed = int(
            self._fleet_request(target, "points_total", None)
        )
        return len(keys)

    def add_shard(self, spec: ShardSpec) -> int:
        """Grow the cluster by one shard, live-migrating its keys to it.

        Spawns the new worker (on an empty or previously-drained store),
        adds it to the ring, and drains from every existing shard exactly
        the keys the ring now assigns to the newcomer (~``1/n`` of the
        fleet).  Returns the number of series moved.
        """
        if self._closed:
            raise ShardingError("router is closed")
        if not isinstance(spec, ShardSpec):
            raise TypeError(f"spec must be a ShardSpec, got {type(spec).__name__}")
        if spec.shard_id in self._workers:
            raise ValueError(f"shard {spec.shard_id!r} is already in the cluster")
        newcomer = self._spawn(spec)
        self._workers[spec.shard_id] = newcomer
        self._ring.add_shard(spec.shard_id)
        moved = 0
        for shard_id in sorted(self._workers):
            if shard_id == spec.shard_id:
                continue
            source = self._alive(shard_id)
            resident = self._fleet_request(source, "keys", None)
            moving = [
                key for key in resident
                if self._ring.shard_for(key) == spec.shard_id
            ]
            moved += self._migrate(source, newcomer, moving)
        self.cluster = ClusterSpec(
            engine=self.cluster.engine,
            shards=self.cluster.shards + (spec,),
            virtual_nodes=self.cluster.virtual_nodes,
        )
        return moved

    def remove_shard(self, shard_id: str) -> int:
        """Drain a live shard and retire it.  Returns the series moved.

        Every resident series is extracted (committed off the source),
        re-assigned by the shrunken ring, and adopted by its new shard;
        the retired worker then checkpoints and exits cleanly, leaving
        its store drained but intact.
        """
        worker = self._alive(shard_id)
        if len(self._workers) < 2:
            raise ShardingError(
                "cannot remove the last shard; close() the router instead"
            )
        resident = self._fleet_request(worker, "keys", None)
        self._ring.remove_shard(shard_id)
        moved = 0
        try:
            if resident:
                parts: dict[str, list] = {}
                for key in resident:
                    parts.setdefault(self._ring.shard_for(key), []).append(key)
                for target_id, keys in sorted(parts.items()):
                    moved += self._migrate(
                        worker, self._alive(target_id), keys
                    )
        except BaseException:
            # Put the shard back on the ring: un-moved keys still live on
            # it, and routing them elsewhere would strand them.
            self._ring.add_shard(shard_id)
            raise
        self._fleet_request(worker, "close", True)
        worker.process.join(timeout=30.0)
        worker.conn.close()
        del self._workers[shard_id]
        self._health.pop(shard_id, None)
        self.cluster = ClusterSpec(
            engine=self.cluster.engine,
            shards=tuple(
                shard
                for shard in self.cluster.shards
                if shard.shard_id != shard_id
            ),
            virtual_nodes=self.cluster.virtual_nodes,
        )
        return moved

    # -------------------------------------------------------------- lifecycle

    def __enter__(self) -> "ShardRouter":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close(checkpoint=exc_type is None)

    def close(self, checkpoint: bool = True) -> None:
        """Shut every worker down (checkpointing first by default).

        Each worker gets one grace window (``_CLOSE_TIMEOUT``) to
        checkpoint and exit; a worker still alive after it (hung, or
        stuck in an injected sleep) is SIGKILLed -- ``close`` always
        returns in bounded time.
        """
        if self._closed:
            return
        self._closed = True
        for shard_id, worker in self._workers.items():
            health = self._health.get(shard_id)
            if health is not None and health.down:
                continue  # already reaped by _mark_down
            try:
                worker.conn.send(("close", checkpoint))
            except (BrokenPipeError, OSError):
                continue
        for shard_id, worker in self._workers.items():
            health = self._health.get(shard_id)
            if health is not None and health.down:
                continue
            deadline = time.monotonic() + _CLOSE_TIMEOUT
            try:
                if worker.conn.poll(_CLOSE_TIMEOUT):
                    worker.conn.recv()
            except (EOFError, OSError):
                pass
            worker.process.join(
                timeout=max(0.0, deadline - time.monotonic())
            )
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join(timeout=5.0)
            try:
                worker.conn.close()
            except OSError:
                pass
        self._workers = {}
