"""Framework-free request router over an engine or sharded-tier backend.

:class:`ServingApp` is the serving layer's core: a plain callable mapping
a :class:`Request` to a :class:`Response`, with **no** dependency on a
web framework or on sockets.  The asyncio server
(:mod:`repro.serving.server`) drives it over HTTP/1.1; tests drive it
directly with in-memory requests, so every endpoint behavior -- routing,
wire-format round-trips, pagination, backpressure -- is checked without a
single socket.

Endpoints
---------

=======  ==============================  =======================================
method   path                            behavior
=======  ==============================  =======================================
GET      ``/health``                     liveness + backend health (always
                                         served: exempt from backpressure and
                                         draining)
POST     ``/v1/ingest``                  columnar bulk ingest (binary frame in,
                                         columnar summary out;
                                         ``?allow_partial=1`` for degraded mode)
GET      ``/v1/keys``                    every series key
GET      ``/v1/series/{key}/stats``      one series' counters
GET      ``/v1/series/{key}/forecast``   ``?h=`` values ahead for a live series
GET      ``/v1/anomalies``               recent anomalies: ``limit`` /
                                         ``offset``, keyset ``cursor``
                                         (``{index}|{key}``), ``sort``
=======  ==============================  =======================================

Two backends adapt the stack below the wire: :class:`EngineBackend`
wraps a single (optionally durable) :class:`~repro.streaming.engine.
MultiSeriesEngine` session, :class:`RouterBackend` wraps a
:class:`~repro.sharding.ShardRouter` -- surfacing down shards and
quarantined keys through ``/health`` and serving ``allow_partial``
degraded ingests that name every skipped key.

Concurrency contract: :meth:`ServingApp.handle` is thread-safe.  Backend
calls that touch engine state are serialized by an internal lock (the
engine is single-threaded by design); ``/health`` and ``/v1/anomalies``
deliberately bypass that lock so the service keeps answering both while
a large ingest is running.  Admission control is a bounded in-flight
gate: past ``max_in_flight`` concurrently handled requests, further ones
are rejected immediately with ``503`` and a ``Retry-After`` header
instead of queueing without bound.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable
from urllib.parse import unquote

import numpy as np

from repro.core.fleet import kernel_backend
from repro.serving.protocol import (
    CONTENT_TYPE_COLUMNAR,
    CONTENT_TYPE_JSON,
    IngestSummary,
    ProtocolError,
    decode_grid,
    dump_json,
    encode_summary,
)
from repro.streaming.engine import IngestResult, MultiSeriesEngine

__all__ = [
    "AnomalyEvent",
    "AnomalyRing",
    "BackendUnavailableError",
    "EngineBackend",
    "Request",
    "Response",
    "RouterBackend",
    "ServingApp",
    "SORTS",
]

#: accepted ``sort`` values for ``/v1/anomalies``
SORTS = ("-index", "index", "-score", "score", "key", "-key")

#: ``sort`` values the keyset cursor composes with (a cursor encodes a
#: position in the ``(index, key)`` order, which score sorts do not share)
_CURSOR_SORTS = ("-index", "index")


class BackendUnavailableError(RuntimeError):
    """The backend cannot serve this request right now (maps to 503)."""


@dataclass(slots=True)
class Request:
    """One request, transport-independent (the in-process test surface)."""

    method: str
    path: str
    query: dict = field(default_factory=dict)
    headers: dict = field(default_factory=dict)
    body: bytes = b""

    @classmethod
    def get(cls, path: str, **query: str) -> "Request":
        return cls(method="GET", path=path, query=dict(query))

    @classmethod
    def post(
        cls,
        path: str,
        body: bytes,
        content_type: str = CONTENT_TYPE_COLUMNAR,
        **query: str,
    ) -> "Request":
        return cls(
            method="POST",
            path=path,
            query=dict(query),
            headers={"content-type": content_type},
            body=body,
        )


@dataclass(slots=True)
class Response:
    """One response: status, body, and transport headers."""

    status: int
    body: bytes = b""
    content_type: str = CONTENT_TYPE_JSON
    headers: dict = field(default_factory=dict)

    def json(self) -> Any:
        """Parse the body as JSON (test/client convenience)."""
        import json

        return json.loads(self.body.decode("utf-8"))


def _json_response(status: int, payload: object, **headers: str) -> Response:
    return Response(
        status=status,
        body=dump_json(payload),
        content_type=CONTENT_TYPE_JSON,
        headers=dict(headers),
    )


def _error(status: int, code: str, detail: str, **headers: str) -> Response:
    return _json_response(
        status, {"error": code, "detail": detail}, **headers
    )


@dataclass(frozen=True, slots=True)
class AnomalyEvent:
    """One flagged anomaly, as the in-app ring retains it."""

    seq: int
    key: str
    index: int
    value: float
    anomaly_score: float
    residual: float

    def to_dict(self) -> dict:
        return {
            "seq": self.seq,
            "key": self.key,
            "index": self.index,
            "value": self.value,
            "anomaly_score": self.anomaly_score,
            "residual": self.residual,
        }


class AnomalyRing:
    """Bounded ring of recent anomalies, fed from ingest result arrays.

    The engine's output otherwise evaporates unless the caller keeps it;
    the serving layer retains the last ``capacity`` flagged anomalies so
    ``/v1/anomalies`` can answer "what just happened?" queries without a
    history store.  Appends are batched straight off the
    :class:`~repro.streaming.engine.IngestResult` arrays (one
    ``flatnonzero`` per request, Python work only per *anomaly*, never
    per point), and a monotonically increasing ``seq`` stamps arrival
    order.  Thread-safe: ingest threads append while listing threads
    snapshot.
    """

    def __init__(self, capacity: int = 4096):
        if int(capacity) < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._entries: deque[AnomalyEvent] = deque(maxlen=int(capacity))
        self._lock = threading.Lock()
        self._seq = 0
        self._total = 0

    @property
    def capacity(self) -> int:
        return int(self._entries.maxlen or 0)

    @property
    def total_seen(self) -> int:
        """Anomalies ever appended (including ones the ring evicted)."""
        return self._total

    def __len__(self) -> int:
        return len(self._entries)

    def extend_from_result(
        self, round_keys: list, result: IngestResult
    ) -> int:
        """Append every anomaly in ``result`` (a ``round_keys`` grid ingest).

        Returns the number of events appended.  ``result`` rows cycle
        through ``round_keys`` round by round, so the key of row ``p`` is
        ``round_keys[p % len(round_keys)]`` -- no materialization of the
        full key list.
        """
        flagged = np.flatnonzero(result.is_anomaly)
        if flagged.size == 0:
            return 0
        n_keys = len(round_keys)
        positions = flagged.tolist()
        indices = result.index[flagged].tolist()
        values = result.value[flagged].tolist()
        scores = result.anomaly_score[flagged].tolist()
        residuals = result.residual[flagged].tolist()
        with self._lock:
            seq = self._seq
            append = self._entries.append
            for position, index, value, score, residual in zip(
                positions, indices, values, scores, residuals
            ):
                append(
                    AnomalyEvent(
                        seq=seq,
                        key=str(round_keys[position % n_keys]),
                        index=int(index),
                        value=value,
                        anomaly_score=score,
                        residual=residual,
                    )
                )
                seq += 1
            self._seq = seq
            self._total += flagged.size
        return int(flagged.size)

    def snapshot(self) -> list[AnomalyEvent]:
        """A consistent copy of the ring's contents, oldest first."""
        with self._lock:
            return list(self._entries)


class _InFlightGate:
    """Bounded admission counter: acquire-or-reject, never queue."""

    __slots__ = ("limit", "_count", "_lock")

    def __init__(self, limit: int):
        if int(limit) < 1:
            raise ValueError(f"max_in_flight must be >= 1, got {limit}")
        self.limit = int(limit)
        self._count = 0
        self._lock = threading.Lock()

    def try_acquire(self) -> bool:
        with self._lock:
            if self._count >= self.limit:
                return False
            self._count += 1
            return True

    def release(self) -> None:
        with self._lock:
            self._count -= 1

    @property
    def in_flight(self) -> int:
        return self._count


# --------------------------------------------------------------- backends


def _stats_dict(stats: Any) -> dict:
    return {
        "key": str(stats.key),
        "status": str(stats.status),
        "points": int(stats.points),
        "anomalies": int(stats.anomalies),
    }


class EngineBackend:
    """Serve a single :class:`MultiSeriesEngine` (optionally durable)."""

    kind = "engine"

    def __init__(self, engine: MultiSeriesEngine):
        self.engine = engine

    def health(self) -> dict:
        last_recovery = self.engine.last_recovery
        quarantined: tuple = ()
        if last_recovery is not None and not last_recovery.clean:
            quarantined = tuple(
                str(key) for key in last_recovery.affected_keys
            )
        return {
            "backend": self.kind,
            "status": "degraded" if quarantined else "ok",
            "series": len(self.engine),
            "durable": getattr(self.engine, "_store", None) is not None,
            "kernel": kernel_backend(),
            "down_shards": [],
            "quarantined_keys": list(quarantined),
        }

    def ingest(
        self, keys: list, grid: np.ndarray, allow_partial: bool
    ) -> tuple[IngestResult, tuple, tuple]:
        # A single engine has no partial mode: it either serves the whole
        # grid or raises.  ``allow_partial`` is accepted for endpoint
        # parity with the sharded backend.
        result = self.engine.ingest_grid(keys, grid)
        return result, (), ()

    def keys(self) -> list:
        return self.engine.keys()

    def series_stats(self, key: Hashable) -> dict:
        return _stats_dict(self.engine.series_stats(key))

    def forecast(self, key: Hashable, horizon: int) -> np.ndarray:
        return self.engine.forecast(key, horizon)

    def checkpoint(self) -> None:
        if getattr(self.engine, "_store", None) is not None:
            self.engine.checkpoint()

    def close(self, checkpoint: bool = True) -> None:
        self.engine.close(checkpoint=checkpoint)


class RouterBackend:
    """Serve a sharded tier through a :class:`~repro.sharding.ShardRouter`.

    Degraded-mode plumbing: ``allow_partial`` ingests return the served
    slice plus the skipped keys / down shards, and :meth:`health`
    surfaces every shard's supervision state -- including circuit-open
    (down) shards and series quarantined by corrupt-store recovery -- so
    ``/health`` tells the whole truth about a limping cluster.
    """

    kind = "cluster"

    def __init__(self, router: Any):
        self.router = router

    def health(self) -> dict:
        shards = {}
        down: list[str] = []
        quarantined: list[str] = []
        for shard_id, shard in self.router.health().items():
            shards[shard_id] = {
                "state": shard.state,
                "pid": shard.pid,
                "restarts": shard.restarts,
                "consecutive_failures": shard.consecutive_failures,
                "points_confirmed": shard.points_confirmed,
                "last_error": shard.last_error,
                "quarantined_keys": [
                    str(key) for key in shard.quarantined_keys
                ],
                "kernel": shard.kernel,
            }
            if shard.state == "down":
                down.append(shard_id)
            quarantined.extend(shards[shard_id]["quarantined_keys"])
        status = "ok"
        if down or quarantined or any(
            entry["state"] != "up" for entry in shards.values()
        ):
            status = "degraded"
        return {
            "backend": self.kind,
            "status": status,
            "series": None,  # would need worker IPC; see /v1/keys
            "durable": True,
            "shards": shards,
            "down_shards": down,
            "quarantined_keys": quarantined,
        }

    def _shielded(self, call: Callable, *args: Any, **kwargs: Any) -> Any:
        """Run a router call, mapping sharding failures to 503 material.

        Keeps the app free of sharding-exception coupling: anything in
        the :class:`~repro.sharding.ShardingError` hierarchy (down
        shards, crash loops, failovers) becomes
        :class:`BackendUnavailableError`; engine-level errors the worker
        relayed (``KeyError`` for unknown keys, ``RuntimeError`` for a
        warming forecast) pass through untouched for the per-endpoint
        status mapping.
        """
        from repro.sharding import ShardingError

        try:
            return call(*args, **kwargs)
        except ShardingError as error:
            raise BackendUnavailableError(str(error)) from error

    def ingest(
        self, keys: list, grid: np.ndarray, allow_partial: bool
    ) -> tuple[IngestResult, tuple, tuple]:
        outcome = self._shielded(
            self.router.ingest_grid, keys, grid, allow_partial=allow_partial
        )
        if allow_partial:
            return (
                outcome.result,
                tuple(outcome.skipped_keys),
                tuple(outcome.down_shards),
            )
        return outcome, (), ()

    def keys(self) -> list:
        merged: list = []
        for shard_keys in self._shielded(self.router.keys).values():
            merged.extend(shard_keys)
        return merged

    def series_stats(self, key: Hashable) -> dict:
        return _stats_dict(self._shielded(self.router.series_stats, key))

    def forecast(self, key: Hashable, horizon: int) -> np.ndarray:
        return self._shielded(self.router.forecast, key, horizon)

    def checkpoint(self) -> None:
        self._shielded(self.router.checkpoint)

    def close(self, checkpoint: bool = True) -> None:
        self.router.close(checkpoint=checkpoint)


# -------------------------------------------------------------------- app


def _query_int(
    query: dict, name: str, default: int, minimum: int, maximum: int
) -> int:
    raw = query.get(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except (TypeError, ValueError):
        raise ValueError(f"query parameter {name!r} must be an integer")
    if not minimum <= value <= maximum:
        raise ValueError(
            f"query parameter {name!r} must be in [{minimum}, {maximum}]"
        )
    return value


def _query_flag(query: dict, name: str) -> bool:
    raw = str(query.get(name, "")).lower()
    return raw in ("1", "true", "yes", "on")


def _parse_cursor(raw: str) -> tuple[int, str]:
    index_text, separator, key = raw.partition("|")
    if not separator:
        raise ValueError(
            "cursor must be '{index}|{key}' (the next_cursor value of a "
            "previous page)"
        )
    try:
        return int(index_text), key
    except ValueError:
        raise ValueError(f"cursor index {index_text!r} is not an integer")


def _order_events(
    events: list[AnomalyEvent], sort: str
) -> list[AnomalyEvent]:
    reverse = sort.startswith("-")
    field_name = sort.lstrip("-")
    if field_name == "index":
        key: Callable[[AnomalyEvent], tuple] = lambda e: (e.index, e.key)
    elif field_name == "score":
        key = lambda e: (e.anomaly_score, e.index, e.key)
    else:  # "key"
        key = lambda e: (e.key, e.index)
    return sorted(events, key=key, reverse=reverse)


class ServingApp:
    """Route requests over a backend; see the module docstring.

    Parameters
    ----------
    backend:
        An :class:`EngineBackend` or :class:`RouterBackend` (anything
        with their surface works -- the app only calls the backend
        protocol).
    max_in_flight:
        Admission-control bound: requests (other than ``/health``)
        handled concurrently beyond this are rejected with ``503`` and
        ``Retry-After`` instead of queueing.
    anomaly_capacity:
        Size of the recent-anomaly ring behind ``/v1/anomalies``.
    default_limit / max_limit:
        Page-size defaults and ceiling for ``/v1/anomalies``.
    """

    def __init__(
        self,
        backend: Any,
        *,
        max_in_flight: int = 32,
        anomaly_capacity: int = 4096,
        default_limit: int = 50,
        max_limit: int = 1000,
    ):
        self.backend = backend
        self.ring = AnomalyRing(anomaly_capacity)
        self.gate = _InFlightGate(max_in_flight)
        self.default_limit = int(default_limit)
        self.max_limit = int(max_limit)
        #: set by the server at shutdown: reject new work, keep /health
        self.draining = False
        self._backend_lock = threading.Lock()

    # ------------------------------------------------------------ dispatch

    def handle(self, request: Request) -> Response:
        """Map one request to a response (thread-safe, never raises)."""
        segments = [
            unquote(part) for part in request.path.split("/") if part
        ]
        if segments == ["health"]:
            if request.method != "GET":
                return _error(405, "method_not_allowed", "use GET /health")
            return self._handle_health()
        if self.draining:
            return _error(
                503,
                "draining",
                "server is shutting down; no new requests",
                **{"Retry-After": "1", "Connection": "close"},
            )
        if not self.gate.try_acquire():
            return _error(
                503,
                "overloaded",
                f"more than {self.gate.limit} requests in flight; retry",
                **{"Retry-After": "1"},
            )
        try:
            return self._dispatch(request, segments)
        except BackendUnavailableError as error:
            return _error(
                503, "backend_unavailable", str(error), **{"Retry-After": "1"}
            )
        except Exception as error:  # noqa: BLE001 -- the wire needs a reply
            return _error(
                500, "internal", f"{type(error).__name__}: {error}"
            )
        finally:
            self.gate.release()

    def _dispatch(self, request: Request, segments: list[str]) -> Response:
        if not segments or segments[0] != "v1":
            return _error(404, "not_found", f"no route for {request.path!r}")
        rest = segments[1:]
        if rest == ["ingest"]:
            if request.method != "POST":
                return _error(
                    405, "method_not_allowed", "use POST /v1/ingest"
                )
            return self._handle_ingest(request)
        if request.method != "GET":
            return _error(
                405, "method_not_allowed", f"use GET {request.path}"
            )
        if rest == ["keys"]:
            return self._handle_keys()
        if rest == ["anomalies"]:
            return self._handle_anomalies(request.query)
        if len(rest) == 3 and rest[0] == "series":
            if rest[2] == "stats":
                return self._handle_series_stats(rest[1])
            if rest[2] == "forecast":
                return self._handle_forecast(rest[1], request.query)
        return _error(404, "not_found", f"no route for {request.path!r}")

    # ------------------------------------------------------------ handlers

    def _handle_health(self) -> Response:
        # Deliberately lock-free: health must answer while an ingest holds
        # the backend lock (the backend's health() reads local state only).
        payload = self.backend.health()
        payload.update(
            {
                "draining": self.draining,
                "in_flight": self.gate.in_flight,
                "anomalies_retained": len(self.ring),
                "anomalies_seen": self.ring.total_seen,
            }
        )
        status = 200 if not self.draining else 503
        return _json_response(status, payload)

    def _handle_ingest(self, request: Request) -> Response:
        content_type = str(
            request.headers.get("content-type", CONTENT_TYPE_COLUMNAR)
        )
        if content_type.split(";")[0].strip() != CONTENT_TYPE_COLUMNAR:
            return _error(
                415,
                "unsupported_media_type",
                f"POST /v1/ingest expects {CONTENT_TYPE_COLUMNAR}",
            )
        try:
            keys, grid = decode_grid(request.body)
        except ProtocolError as error:
            return _error(400, "bad_frame", str(error))
        allow_partial = _query_flag(request.query, "allow_partial")
        try:
            with self._backend_lock:
                result, skipped, down = self.backend.ingest(
                    keys, grid, allow_partial
                )
        except (ValueError, TypeError) as error:
            # The engine's batch contract: a rejected observation raises
            # with the preceding prefix applied; say so explicitly.
            return _error(
                422,
                "rejected",
                f"{type(error).__name__}: {error} (observations before "
                "the offending one are applied; re-send only the tail)",
            )
        self.ring.extend_from_result(keys, result)
        summary = self._summarize(keys, grid.shape[0], result, skipped, down)
        return Response(
            status=200,
            body=encode_summary(summary),
            content_type=CONTENT_TYPE_COLUMNAR,
        )

    @staticmethod
    def _summarize(
        keys: list,
        rounds: int,
        result: IngestResult,
        skipped: tuple,
        down: tuple,
    ) -> IngestSummary:
        n_keys = len(keys)
        if rounds * n_keys:
            per_key_anomalies = (
                result.is_anomaly.reshape(rounds, n_keys)
                .sum(axis=0)
                .astype(np.int64)
            )
            scores = result.anomaly_score.reshape(rounds, n_keys)
            live = result.live.reshape(rounds, n_keys)
            # last live score per key, NaN when never live in this batch
            last_score = np.full(n_keys, np.nan)
            any_live = live.any(axis=0)
            if any_live.any():
                last_live_round = (
                    live.shape[0] - 1 - np.argmax(live[::-1], axis=0)
                )
                columns = np.flatnonzero(any_live)
                last_score[columns] = scores[last_live_round[columns], columns]
        else:
            per_key_anomalies = np.zeros(n_keys, dtype=np.int64)
            last_score = np.full(n_keys, np.nan)
        points = np.full(n_keys, int(rounds), dtype=np.int64)
        if skipped:
            skipped_set = set(skipped)
            mask = np.fromiter(
                (key in skipped_set for key in keys), dtype=bool, count=n_keys
            )
            points[mask] = 0
            per_key_anomalies[mask] = 0
            last_score[mask] = np.nan
        return IngestSummary(
            keys=tuple(str(key) for key in keys),
            points=points,
            anomalies=per_key_anomalies,
            last_score=last_score,
            rows=int(points.sum()),
            anomalies_total=int(per_key_anomalies.sum()),
            skipped_keys=tuple(str(key) for key in skipped),
            down_shards=tuple(str(shard) for shard in down),
        )

    def _handle_keys(self) -> Response:
        with self._backend_lock:
            keys = [str(key) for key in self.backend.keys()]
        keys.sort()
        return _json_response(200, {"keys": keys, "count": len(keys)})

    def _handle_series_stats(self, key: str) -> Response:
        try:
            with self._backend_lock:
                stats = self.backend.series_stats(key)
        except KeyError:
            return _error(404, "unknown_key", f"no series {key!r}")
        return _json_response(200, stats)

    def _handle_forecast(self, key: str, query: dict) -> Response:
        try:
            horizon = _query_int(query, "h", default=1, minimum=1, maximum=100_000)
        except ValueError as error:
            return _error(400, "bad_query", str(error))
        try:
            with self._backend_lock:
                values = self.backend.forecast(key, horizon)
        except KeyError:
            return _error(404, "unknown_key", f"no series {key!r}")
        except BackendUnavailableError:
            raise  # a RuntimeError subclass, but it means 503, not 409
        except RuntimeError as error:
            # the engine's "still warming up" refusal
            return _error(409, "not_live", str(error))
        return _json_response(
            200,
            {
                "key": key,
                "horizon": horizon,
                "forecast": np.asarray(values, dtype=float).tolist(),
            },
        )

    def _handle_anomalies(self, query: dict) -> Response:
        try:
            limit = _query_int(
                query, "limit", self.default_limit, 1, self.max_limit
            )
            offset = _query_int(query, "offset", 0, 0, 10**9)
        except ValueError as error:
            return _error(400, "bad_query", str(error))
        sort = str(query.get("sort", "-index"))
        if sort not in SORTS:
            return _error(
                400,
                "bad_sort",
                f"sort must be one of {list(SORTS)}, got {sort!r}",
            )
        cursor_raw = query.get("cursor")
        cursor: tuple[int, str] | None = None
        if cursor_raw is not None:
            if sort not in _CURSOR_SORTS:
                return _error(
                    400,
                    "bad_cursor",
                    "cursor pagination requires an index sort "
                    f"({list(_CURSOR_SORTS)}); got sort={sort!r}",
                )
            try:
                cursor = _parse_cursor(str(cursor_raw))
            except ValueError as error:
                return _error(400, "bad_cursor", str(error))
        ordered = _order_events(self.ring.snapshot(), sort)
        total = len(ordered)
        if cursor is not None:
            if sort == "-index":
                ordered = [
                    event
                    for event in ordered
                    if (event.index, event.key) < cursor
                ]
            else:
                ordered = [
                    event
                    for event in ordered
                    if (event.index, event.key) > cursor
                ]
        page = ordered[offset : offset + limit]
        has_more = offset + limit < len(ordered)
        next_cursor = None
        if has_more and page and sort in _CURSOR_SORTS:
            last = page[-1]
            next_cursor = f"{last.index}|{last.key}"
        return _json_response(
            200,
            {
                "items": [event.to_dict() for event in page],
                "page": {
                    "total": total,
                    "limit": limit,
                    "offset": offset,
                    "next_cursor": next_cursor,
                    "has_more": has_more,
                },
            },
        )

    # ----------------------------------------------------------- lifecycle

    def checkpoint(self) -> None:
        """Checkpoint the backend (serialized with in-flight requests)."""
        with self._backend_lock:
            self.backend.checkpoint()

    def close(self, checkpoint: bool = True) -> None:
        """Close the backend (checkpointing first by default)."""
        with self._backend_lock:
            self.backend.close(checkpoint=checkpoint)
