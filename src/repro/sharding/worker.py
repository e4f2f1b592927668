"""Shard worker: one process, one durable engine session, one store.

:func:`worker_main` is the entry point the router spawns (module-level so
it imports under both the ``fork`` and ``spawn`` start methods).  A
worker is deliberately boring: it opens its
:class:`~repro.durability.DirectoryCheckpointStore` **exclusively** (the
ownership lease is what makes failover safe -- a SIGKILLed worker's
lease reads stale by dead pid and the replacement takes it over), opens
or crash-recovers a :class:`~repro.streaming.MultiSeriesEngine` session
on it, reports readiness, and then serves a synchronous command loop
over its pipe: one pickled request in, one pickled reply out.

The hot path is ``ingest``: the router ships this worker's slice of a
columnar batch as a ``(round_keys, grid)`` pair -- **one message per
shard per batch**, never per-point IPC -- and the worker feeds it to
:meth:`~repro.streaming.MultiSeriesEngine.ingest_grid`, WAL-appending
before state advances as always, then replies with the
:class:`~repro.streaming.IngestResult` arrays for fan-in.

Failure discipline: **every** exception a command raises is replied as an
``error`` message -- ``(kind, message, traceback_text)`` -- and the loop
continues.  A worker process only dies from ``close``, a broken pipe
(router gone), or genuine kill injection; an unexpected ``OSError`` from
a full disk must *not* silently kill the worker and burn the router's
whole request timeout discovering it.

Fault injection is a :class:`~repro.faults.FaultPlan` shipped through
``options`` as a dict: it installs on the store's ``fault_hook`` (the
durability kill points) and fires at two loop boundaries of its own --
:data:`~repro.faults.WORKER_RECV` after a command arrives and
:data:`~repro.faults.WORKER_REPLY` before its reply is sent (a ``drop``
there loses the confirmation of applied work, the
watchdog-then-failover shape).
"""

from __future__ import annotations

import os
import traceback
from typing import Any

from repro.core.fleet import kernel_backend
from repro.durability import DirectoryCheckpointStore
from repro.durability.lock import DEFAULT_STALE_AFTER
from repro.faults import WORKER_RECV, WORKER_REPLY, FaultPlan
from repro.specs import EngineSpec
from repro.streaming.engine import IngestResult, MultiSeriesEngine

__all__ = ["worker_main"]


def _reply_arrays(result: IngestResult) -> tuple:
    """The wire form of one ingest's result: its arrays, in field order."""
    return tuple(getattr(result, name) for name in IngestResult.FIELDS)


def worker_main(
    conn: Any,
    shard_id: str,
    store_path: str,
    spec_dict: dict,
    options: dict | None = None,
) -> None:
    """Run one shard worker until ``close`` or process death.

    Parameters
    ----------
    conn:
        The worker end of a ``multiprocessing.Pipe`` (duplex).
    shard_id:
        This shard's ring identity (used only for error context here).
    store_path:
        Root directory of this shard's checkpoint store.
    spec_dict:
        The cluster's :class:`~repro.specs.EngineSpec` as a dict.  Always
        passed to ``MultiSeriesEngine.open`` -- on a populated store it
        cross-checks the manifest, so a worker pointed at the wrong
        shard's store fails loudly instead of serving someone else's
        series.
    options:
        ``wal_sync`` / ``stale_after`` store knobs;
        ``checkpoint_interval`` engine knob; ``recovery`` selects the
        engine's corruption policy (``strict|truncate|quarantine``);
        ``fault_plan`` (a :meth:`FaultPlan.to_dict` document) arms
        fault injection (tests only).
    """
    options = options or {}
    spec = EngineSpec.from_dict(spec_dict)
    try:
        store = DirectoryCheckpointStore(
            store_path,
            wal_sync=bool(options.get("wal_sync", False)),
            exclusive=True,
            stale_after=options.get("stale_after", DEFAULT_STALE_AFTER),
        )
        # The plan installs before recovery so injectors can target
        # recovery-time boundaries (e.g. crash while re-checkpointing a
        # quarantined store) as well as serving-time ones.
        plan = FaultPlan.from_dict(
            options.get("fault_plan") or {"injectors": []}
        )
        plan.install(store)
        had_state = store.read_manifest() is not None
        engine = MultiSeriesEngine.open(
            store,
            spec=spec,
            recovery=str(options.get("recovery", "strict")),
        )
        if options.get("checkpoint_interval") is not None:
            engine.checkpoint_interval = int(options["checkpoint_interval"])
    except BaseException as error:  # noqa: BLE001 -- reported, then re-raised
        try:
            conn.send(("fatal", f"{type(error).__name__}: {error}"))
        except OSError:
            pass
        raise
    recovery_info = (
        engine.last_recovery.to_dict()
        if engine.last_recovery is not None and not engine.last_recovery.clean
        else None
    )
    conn.send(
        (
            "ready",
            {
                "pid": os.getpid(),
                "shard_id": shard_id,
                "recovered": had_state,
                "points_total": engine.points_total(),
                "recovery": recovery_info,
                "kernel": kernel_backend(),
            },
        )
    )

    while True:
        try:
            command, payload = conn.recv()
        except (EOFError, OSError):
            # Router gone: park the state safely and exit.
            engine.close(checkpoint=True)
            return
        try:
            # Heartbeat inside the try: a transiently failing lease
            # refresh (e.g. injected ENOSPC) must surface as an error
            # reply, not kill the worker.
            store.heartbeat()
            if plan.fire(WORKER_RECV) == "drop":
                # The command "never arrived": no reply, no state change.
                # The router's watchdog will time the request out.
                continue
            if command == "ingest":
                round_keys, grid = payload
                result = engine.ingest_grid(round_keys, grid)
                reply: Any = _reply_arrays(result)
            elif command == "ingest_rows":
                keys, values = payload
                result = engine.ingest((list(keys), values), columnar_results=True)
                reply = _reply_arrays(result)
            elif command == "forecast":
                key, horizon = payload
                reply = engine.forecast(key, horizon)
            elif command == "stats":
                reply = engine.fleet_stats()
            elif command == "series_stats":
                reply = engine.series_stats(payload)
            elif command == "keys":
                reply = engine.keys()
            elif command == "points_total":
                reply = engine.points_total()
            elif command == "checkpoint":
                reply = engine.checkpoint()
            elif command == "extract":
                reply = engine.extract_series(payload)
            elif command == "adopt":
                engine.adopt_series(payload)
                reply = None
            elif command == "ping":
                reply = "pong"
            elif command == "close":
                engine.close(checkpoint=bool(payload))
                conn.send(("ok", None))
                return
            else:
                raise ValueError(f"unknown worker command {command!r}")
        except Exception as error:  # noqa: BLE001 -- anything but process death
            # Reply with the full picture: kind and message drive the
            # router's retry/re-raise decision, the traceback rides along
            # for the operator (an unexpected error's stack is otherwise
            # lost with the worker's stderr).
            conn.send(
                (
                    "error",
                    (
                        type(error).__name__,
                        str(error),
                        traceback.format_exc(),
                    ),
                )
            )
            continue
        if plan.fire(WORKER_REPLY) == "drop":
            # State advanced but the confirmation is lost: the watchdog
            # escalates, failover replays the WAL, and the router learns
            # the batch survived.
            continue
        conn.send(("ok", reply))
