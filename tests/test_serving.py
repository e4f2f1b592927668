"""Serving-layer tests: wire format, app routing, pagination, lifecycle.

Three tiers of evidence, cheapest first:

* pure-function tests of the columnar wire format (round-trips and
  corruption rejection) -- no engine, no sockets;
* in-process app tests: :meth:`ServingApp.handle` is a plain callable,
  so routing, ingest parity against a twin engine, cursor pagination
  across page boundaries, degraded mode, and backpressure are all
  checked without a single socket;
* end-to-end lifecycle tests: one real asyncio server smoke test
  (ingest over HTTP -> query -> graceful shutdown -> the store reopens
  bit-identically), and a subprocess SIGTERM test asserting the
  documented shutdown ordering -- drain, checkpoint, release the store
  lease, exit 0 -- with the recovered store matching a twin engine fed
  exactly the confirmed batches.

Fleets stay tiny (period 8, initialization 16) to hold tier-1 budgets.
"""

import os
import pathlib
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.core.fleet import kernel_backend
from repro.serving import (
    AnomalyEvent,
    EngineBackend,
    IngestSummary,
    ProtocolError,
    Request,
    RouterBackend,
    ServingApp,
    ServingClient,
    ServingError,
    ServingServer,
    decode_grid,
    decode_summary,
    encode_grid,
    encode_summary,
)
from repro.serving.protocol import CONTENT_TYPE_COLUMNAR
from repro.streaming.engine import MultiSeriesEngine

from tests.conftest import make_seasonal_series

PERIOD = 8
INIT = 2 * PERIOD


def fresh_engine() -> MultiSeriesEngine:
    return MultiSeriesEngine.for_oneshotstl(
        PERIOD, initialization_length=INIT, shift_window=0
    )


def fleet_grid(n_series: int, rounds: int, seed: int = 0):
    keys = [f"series-{index:03d}" for index in range(n_series)]
    grid = np.column_stack(
        [
            make_seasonal_series(rounds, PERIOD, seed=seed + index)["values"]
            for index in range(n_series)
        ]
    )
    return keys, grid


def spiked_grid(n_series: int, rounds: int, seed: int = 0):
    """A grid whose post-warmup tail carries guaranteed anomaly spikes."""
    keys, grid = fleet_grid(n_series, rounds, seed=seed)
    grid = grid.copy()
    for column in range(n_series):
        for row in range(INIT + PERIOD, rounds, PERIOD + column + 1):
            grid[row, column] += 40.0 + column
    return keys, grid


# --------------------------------------------------------------- protocol


class TestProtocol:
    def test_grid_round_trip_is_exact(self):
        keys, grid = fleet_grid(7, 33, seed=3)
        decoded_keys, decoded = decode_grid(encode_grid(keys, grid))
        assert decoded_keys == keys
        assert decoded.shape == grid.shape
        assert np.array_equal(decoded, grid)

    def test_one_dimensional_grid_is_a_single_round(self):
        keys, decoded = decode_grid(
            encode_grid(["a", "b"], np.array([1.5, -2.5]))
        )
        assert keys == ["a", "b"]
        assert decoded.shape == (1, 2)
        assert decoded.tolist() == [[1.5, -2.5]]

    def test_summary_round_trip_is_exact(self):
        summary = IngestSummary(
            keys=("a", "b", "c"),
            points=np.array([10, 10, 0], dtype=np.int64),
            anomalies=np.array([2, 0, 0], dtype=np.int64),
            last_score=np.array([1.25, np.nan, np.nan]),
            rows=20,
            anomalies_total=2,
            skipped_keys=("c",),
            down_shards=("shard-001",),
        )
        decoded = decode_summary(encode_summary(summary))
        assert decoded.keys == summary.keys
        assert np.array_equal(decoded.points, summary.points)
        assert np.array_equal(decoded.anomalies, summary.anomalies)
        assert np.array_equal(
            decoded.last_score, summary.last_score, equal_nan=True
        )
        assert decoded.rows == 20
        assert decoded.anomalies_total == 2
        assert decoded.skipped_keys == ("c",)
        assert decoded.down_shards == ("shard-001",)
        assert not decoded.complete

    @pytest.mark.parametrize(
        "mutilate",
        [
            lambda body: b"JUNK" + body[4:],  # wrong magic
            lambda body: body[:10],  # truncated header
            lambda body: body[:-8],  # payload too short
            lambda body: body + b"\x00" * 8,  # payload too long
        ],
        ids=["magic", "truncated", "short-payload", "long-payload"],
    )
    def test_corrupt_frames_are_rejected(self, mutilate):
        keys, grid = fleet_grid(3, 8)
        with pytest.raises(ProtocolError):
            decode_grid(mutilate(encode_grid(keys, grid)))

    def test_wrong_kind_is_rejected(self):
        keys, grid = fleet_grid(2, 4)
        with pytest.raises(ProtocolError, match="kind"):
            decode_summary(encode_grid(keys, grid))

    def test_duplicate_keys_are_rejected(self):
        body = encode_grid(["a", "a"], np.zeros((4, 2)))
        with pytest.raises(ProtocolError, match="unique"):
            decode_grid(body)

    def test_shape_mismatch_is_rejected_at_encode(self):
        with pytest.raises(ProtocolError, match="round-major"):
            encode_grid(["a", "b", "c"], np.zeros((4, 2)))


# ----------------------------------------------------------- app routing


def make_app(**kwargs) -> ServingApp:
    return ServingApp(EngineBackend(fresh_engine()), **kwargs)


class TestAppRouting:
    def test_unknown_routes_404(self):
        app = make_app()
        assert app.handle(Request.get("/nope")).status == 404
        assert app.handle(Request.get("/v1/unknown")).status == 404
        assert app.handle(Request.get("/v1/series/k")).status == 404
        assert app.handle(Request.get("/v1/series/k/nope")).status == 404

    def test_wrong_methods_405(self):
        app = make_app()
        assert app.handle(Request.get("/v1/ingest")).status == 405
        assert (
            app.handle(Request.post("/v1/keys", b"", "text/plain")).status
            == 405
        )
        assert (
            app.handle(Request.post("/health", b"", "text/plain")).status
            == 405
        )

    def test_ingest_content_type_and_frame_errors(self):
        app = make_app()
        keys, grid = fleet_grid(2, 4)
        good = encode_grid(keys, grid)
        wrong_type = Request.post("/v1/ingest", good, "application/json")
        assert app.handle(wrong_type).status == 415
        garbage = Request.post("/v1/ingest", b"not a frame")
        response = app.handle(garbage)
        assert response.status == 400
        assert response.json()["error"] == "bad_frame"

    def test_health_reports_engine_backend(self):
        app = make_app()
        response = app.handle(Request.get("/health"))
        assert response.status == 200
        body = response.json()
        assert body["backend"] == "engine"
        assert body["status"] == "ok"
        assert body["draining"] is False
        assert body["down_shards"] == []
        assert body["quarantined_keys"] == []
        # Which body the fleet kernels run: a fall-back to the several
        # times slower NumPy wavefront must be visible from outside.
        assert body["kernel"] == kernel_backend()
        assert body["kernel"]["body"] in ("native", "numpy")
        assert set(body["kernel"]) == {"body", "reason", "compiler", "flags", "vector"}
        # Unauthenticated: names, never the directories they live in.
        assert os.sep not in body["kernel"]["reason"]
        assert os.sep not in (body["kernel"]["compiler"] or "")

    def test_url_encoded_keys_route(self):
        app = make_app()
        keys = ["with space", "with/slash"]
        grid = np.tile(
            make_seasonal_series(INIT + PERIOD, PERIOD)["values"][:, None],
            (1, 2),
        )
        ingest = app.handle(Request.post("/v1/ingest", encode_grid(keys, grid)))
        assert ingest.status == 200
        response = app.handle(Request.get("/v1/series/with%20space/stats"))
        assert response.status == 200
        assert response.json()["key"] == "with space"
        response = app.handle(Request.get("/v1/series/with%2Fslash/stats"))
        assert response.status == 200
        assert response.json()["key"] == "with/slash"


class TestAppIngestParity:
    """The served answers must be the library's answers, bit for bit."""

    def test_summary_matches_twin_engine(self):
        app = make_app()
        twin = fresh_engine()
        keys, grid = spiked_grid(6, PERIOD * 12, seed=11)
        response = app.handle(Request.post("/v1/ingest", encode_grid(keys, grid)))
        assert response.status == 200
        assert response.content_type == CONTENT_TYPE_COLUMNAR
        summary = decode_summary(response.body)
        result = twin.ingest_grid(keys, grid)
        rounds, n = grid.shape
        per_key = result.is_anomaly.reshape(rounds, n).sum(axis=0)
        assert summary.keys == tuple(keys)
        assert summary.points.tolist() == [rounds] * n
        assert summary.anomalies.tolist() == per_key.tolist()
        assert summary.rows == rounds * n
        assert summary.anomalies_total == int(per_key.sum())
        assert summary.anomalies_total > 0  # the spikes registered
        assert summary.complete
        # last_score: the twin's most recent live score per key
        scores = result.anomaly_score.reshape(rounds, n)
        live = result.live.reshape(rounds, n)
        for column in range(n):
            rows_live = np.flatnonzero(live[:, column])
            expected = scores[rows_live[-1], column]
            assert summary.last_score[column] == expected

    def test_queries_match_twin_engine(self):
        app = make_app()
        twin = fresh_engine()
        keys, grid = fleet_grid(5, PERIOD * 6, seed=23)
        app.handle(Request.post("/v1/ingest", encode_grid(keys, grid)))
        twin.ingest_grid(keys, grid)
        listed = app.handle(Request.get("/v1/keys")).json()
        assert listed["keys"] == sorted(str(key) for key in twin.keys())
        assert listed["count"] == len(twin)
        for key in keys:
            served = app.handle(Request.get(f"/v1/series/{key}/stats")).json()
            stats = twin.series_stats(key)
            assert served == {
                "key": key,
                "status": str(stats.status),
                "points": stats.points,
                "anomalies": stats.anomalies,
            }
            forecast = app.handle(
                Request.get(f"/v1/series/{key}/forecast", h="5")
            ).json()
            assert forecast["forecast"] == twin.forecast(key, 5).tolist()

    def test_forecast_error_mapping(self):
        app = make_app()
        keys, grid = fleet_grid(2, INIT // 2, seed=5)  # still warming
        app.handle(Request.post("/v1/ingest", encode_grid(keys, grid)))
        missing = app.handle(Request.get("/v1/series/ghost/forecast"))
        assert missing.status == 404
        warming = app.handle(Request.get(f"/v1/series/{keys[0]}/forecast"))
        assert warming.status == 409
        assert warming.json()["error"] == "not_live"
        bad_h = app.handle(
            Request.get(f"/v1/series/{keys[0]}/forecast", h="zero")
        )
        assert bad_h.status == 400

    def test_rejected_values_are_422_with_prefix_contract(self):
        app = make_app()
        keys, grid = fleet_grid(2, 4, seed=7)
        bad = grid.copy()
        bad[2, 1] = np.inf
        response = app.handle(Request.post("/v1/ingest", encode_grid(keys, bad)))
        assert response.status == 422
        assert "re-send" in response.json()["detail"]

    def test_rejected_first_observation_lists_no_key(self):
        """A key whose first value was rejected never shows up in /v1/keys."""
        app = make_app()
        bad = encode_grid(["seen", "ghost"], np.array([[1.0, np.inf]]))
        assert app.handle(Request.post("/v1/ingest", bad)).status == 422
        listed = app.handle(Request.get("/v1/keys")).json()
        assert (listed["keys"], listed["count"]) == (["seen"], 1)
        assert app.handle(Request.get("/v1/series/ghost/stats")).status == 404


# ----------------------------------------------------------- pagination


def seeded_ring_app(n_events: int = 23) -> ServingApp:
    """An app whose ring holds a deterministic, collision-rich event set."""
    app = make_app()
    for seq in range(n_events):
        # repeated indices across keys exercise the (index, key) tiebreak
        app.ring._entries.append(
            AnomalyEvent(
                seq=seq,
                key=f"k{seq % 5}",
                index=100 + (seq // 3),
                value=float(seq),
                anomaly_score=float((seq * 7) % 11),
                residual=0.5 * seq,
            )
        )
        app.ring._seq = seq + 1
        app.ring._total = seq + 1
    return app


class TestAnomalyPagination:
    def test_ring_is_fed_from_ingest_results(self):
        app = make_app()
        twin = fresh_engine()
        keys, grid = spiked_grid(4, PERIOD * 10, seed=31)
        app.handle(Request.post("/v1/ingest", encode_grid(keys, grid)))
        result = twin.ingest_grid(keys, grid)
        expected_total = int(result.is_anomaly.sum())
        assert expected_total > 0
        body = app.handle(Request.get("/v1/anomalies", limit="1000")).json()
        assert body["page"]["total"] == expected_total
        # every served event matches the twin's flagged rows exactly
        rounds, n = grid.shape
        flagged = np.flatnonzero(result.is_anomaly)
        expected = {
            (keys[position % n], int(result.index[position]))
            for position in flagged
        }
        served = {
            (item["key"], item["index"]) for item in body["items"]
        }
        assert served == expected

    def test_default_sort_is_newest_first(self):
        app = seeded_ring_app()
        items = app.handle(Request.get("/v1/anomalies")).json()["items"]
        ordering = [(item["index"], item["key"]) for item in items]
        assert ordering == sorted(ordering, reverse=True)

    @pytest.mark.parametrize("sort", ["index", "-index"])
    def test_cursor_walk_covers_everything_once(self, sort):
        """Keyset pagination across page boundaries: no duplicates, no
        gaps, even with repeated indices straddling the boundary."""
        app = seeded_ring_app()
        everything = app.handle(
            Request.get("/v1/anomalies", limit="1000", sort=sort)
        ).json()["items"]
        assert len(everything) == 23
        walked: list = []
        cursor = None
        pages = 0
        while True:
            query = {"limit": "4", "sort": sort}
            if cursor is not None:
                query["cursor"] = cursor
            body = app.handle(Request.get("/v1/anomalies", **query)).json()
            walked.extend(body["items"])
            pages += 1
            cursor = body["page"]["next_cursor"]
            if not body["page"]["has_more"]:
                break
            assert cursor is not None
        assert pages == 6  # ceil(23 / 4)
        assert walked == everything  # same order, nothing lost or repeated

    def test_offset_pagination_slices_the_same_order(self):
        app = seeded_ring_app()
        everything = app.handle(
            Request.get("/v1/anomalies", limit="1000")
        ).json()["items"]
        first = app.handle(Request.get("/v1/anomalies", limit="10")).json()
        second = app.handle(
            Request.get("/v1/anomalies", limit="10", offset="10")
        ).json()
        assert first["items"] == everything[:10]
        assert second["items"] == everything[10:20]
        assert first["page"]["has_more"] is True
        assert first["page"]["total"] == 23

    def test_score_sort_orders_by_score(self):
        app = seeded_ring_app()
        items = app.handle(
            Request.get("/v1/anomalies", sort="-score", limit="1000")
        ).json()["items"]
        scores = [item["anomaly_score"] for item in items]
        assert scores == sorted(scores, reverse=True)

    def test_invalid_sort_is_400(self):
        app = seeded_ring_app()
        response = app.handle(Request.get("/v1/anomalies", sort="severity"))
        assert response.status == 400
        assert response.json()["error"] == "bad_sort"

    def test_cursor_requires_an_index_sort(self):
        app = seeded_ring_app()
        response = app.handle(
            Request.get("/v1/anomalies", sort="-score", cursor="100|k1")
        )
        assert response.status == 400
        assert response.json()["error"] == "bad_cursor"

    def test_malformed_cursors_are_400(self):
        app = seeded_ring_app()
        for cursor in ("nonsense", "x|k1", "100"):
            response = app.handle(
                Request.get("/v1/anomalies", cursor=cursor)
            )
            assert response.status == 400, cursor
            assert response.json()["error"] == "bad_cursor"

    def test_limit_bounds_are_enforced(self):
        app = seeded_ring_app()
        assert app.handle(Request.get("/v1/anomalies", limit="0")).status == 400
        assert (
            app.handle(Request.get("/v1/anomalies", limit="9999")).status
            == 400
        )
        assert (
            app.handle(Request.get("/v1/anomalies", offset="-1")).status
            == 400
        )

    def test_ring_is_bounded(self):
        app = ServingApp(
            EngineBackend(fresh_engine()), anomaly_capacity=3
        )
        keys, grid = spiked_grid(6, PERIOD * 8, seed=53)
        app.handle(Request.post("/v1/ingest", encode_grid(keys, grid)))
        assert app.ring.total_seen > 3  # more flagged than retained...
        assert len(app.ring) == 3  # ...the ring kept only the newest
        body = app.handle(Request.get("/v1/anomalies", limit="1000")).json()
        assert body["page"]["total"] == 3


# --------------------------------------------------------- backpressure


class TestBackpressure:
    def test_overload_is_503_with_retry_after(self):
        app = make_app(max_in_flight=2)
        assert app.gate.try_acquire() and app.gate.try_acquire()
        response = app.handle(Request.get("/v1/keys"))
        assert response.status == 503
        assert response.json()["error"] == "overloaded"
        assert response.headers["Retry-After"] == "1"
        # health is exempt: it must answer while the service is saturated
        assert app.handle(Request.get("/health")).status == 200
        app.gate.release()
        assert app.handle(Request.get("/v1/keys")).status == 200
        app.gate.release()

    def test_draining_rejects_new_work_but_health_answers(self):
        app = make_app()
        app.draining = True
        response = app.handle(Request.get("/v1/keys"))
        assert response.status == 503
        assert response.json()["error"] == "draining"
        health = app.handle(Request.get("/health"))
        assert health.status == 503  # unhealthy for load balancers...
        assert health.json()["draining"] is True  # ...but still answering


# ------------------------------------------------------- sharded backend


class TestRouterBackend:
    def test_cluster_serving_end_to_end(self, tmp_path, monkeypatch):
        from repro.serving import app as serving_app
        from repro.serving.server import _kernel_field
        from repro.sharding import ClusterSpec, ShardRouter

        spec = fresh_engine().spec
        cluster = ClusterSpec.for_root(spec, tmp_path, n_shards=2)
        keys, grid = fleet_grid(8, PERIOD * 6, seed=41)
        twin = fresh_engine()
        with ShardRouter(cluster) as router:
            app = ServingApp(RouterBackend(router))
            response = app.handle(
                Request.post("/v1/ingest", encode_grid(keys, grid))
            )
            assert response.status == 200
            summary = decode_summary(response.body)
            twin.ingest_grid(keys, grid)
            assert summary.complete
            assert summary.rows == grid.size
            health = app.handle(Request.get("/health")).json()
            assert health["backend"] == "cluster"
            assert health["status"] == "ok"
            assert sorted(health["shards"]) == ["shard-000", "shard-001"]
            assert health["down_shards"] == []
            # Each worker process reports the body *it* chose.
            for shard in health["shards"].values():
                assert shard["kernel"]["body"] == kernel_backend()["body"]
            # The front builds no kernel: it neither chooses a body nor
            # reports one of its own, and its ready line is the workers'.
            monkeypatch.setattr(
                serving_app, "kernel_backend", lambda: pytest.fail("front chose")
            )
            front = app.backend.health()
            assert "kernel" not in front
            assert _kernel_field(front, "body") == kernel_backend()["body"]
            vector = kernel_backend()["vector"] or "unknown"
            assert _kernel_field(front, "vector") == vector
            listed = app.handle(Request.get("/v1/keys")).json()
            assert listed["keys"] == sorted(keys)
            for key in keys[:3]:
                served = app.handle(
                    Request.get(f"/v1/series/{key}/stats")
                ).json()
                stats = twin.series_stats(key)
                assert served["points"] == stats.points
                assert served["status"] == str(stats.status)
                forecast = app.handle(
                    Request.get(f"/v1/series/{key}/forecast", h="3")
                ).json()
                assert forecast["forecast"] == twin.forecast(key, 3).tolist()
            missing = app.handle(Request.get("/v1/series/ghost/stats"))
            assert missing.status == 404

    def test_down_shard_degrades_and_health_names_it(self, tmp_path):
        from repro.faults import FaultInjector
        from repro.sharding import ClusterSpec, ShardRouter

        spec = fresh_engine().spec
        cluster = ClusterSpec.for_root(spec, tmp_path, n_shards=2)
        keys, grid = fleet_grid(8, PERIOD * 2, seed=43)
        victim = "shard-000"
        router = ShardRouter(
            cluster,
            circuit_threshold=2,
            fault_plans={
                victim: [
                    FaultInjector(
                        point="wal.append.before",
                        action="sigkill",
                        times=0,
                        persist=True,  # replacements die the same way
                    )
                ]
            },
        )
        try:
            app = ServingApp(RouterBackend(router))
            body = encode_grid(keys, grid)
            # strict ingests surface the crash loop as 503s until the
            # circuit trips the shard down
            first = app.handle(Request.post("/v1/ingest", body))
            assert first.status == 503
            assert first.json()["error"] == "backend_unavailable"
            second = app.handle(Request.post("/v1/ingest", body))
            assert second.status == 503
            health = app.handle(Request.get("/health")).json()
            assert health["status"] == "degraded"
            assert health["down_shards"] == [victim]
            assert health["shards"][victim]["state"] == "down"
            # degraded mode serves the surviving shard and names the rest
            degraded = app.handle(
                Request.post("/v1/ingest", body, allow_partial="1")
            )
            assert degraded.status == 200
            summary = decode_summary(degraded.body)
            assert not summary.complete
            assert summary.down_shards == (victim,)
            assert set(summary.skipped_keys) == {
                key for key in keys if router.shard_of(key) == victim
            }
            served = set(keys) - set(summary.skipped_keys)
            assert served  # the survivor really did apply its slice
            for position, key in enumerate(keys):
                expected = 0 if key in summary.skipped_keys else grid.shape[0]
                assert summary.points[position] == expected
        finally:
            router.close(checkpoint=False)


# ------------------------------------------------------------ lifecycle


class TestServerLifecycle:
    def test_socket_smoke_ingest_query_shutdown_reopen(self, tmp_path):
        """The one real-socket test: HTTP in, engine truth out, graceful
        shutdown checkpoints, and the store reopens bit-identically."""
        from repro.durability import DirectoryCheckpointStore

        store_dir = tmp_path / "store"
        store = DirectoryCheckpointStore(store_dir, exclusive=True)
        engine = fresh_engine()
        engine.attach_store(store)
        app = ServingApp(EngineBackend(engine))
        server = ServingServer(app, ready_stream=open(os.devnull, "w"))
        host, port = server.start_in_thread()
        twin = fresh_engine()
        keys, grid = spiked_grid(6, PERIOD * 8, seed=53)
        half = grid.shape[0] // 2
        try:
            with ServingClient(host, port) as client:
                assert client.health()["status"] == "ok"
                first = client.ingest(keys, grid[:half])
                second = client.ingest(keys, grid[half:])
                assert first.complete and second.complete
                twin.ingest_grid(keys, grid[:half])
                twin.ingest_grid(keys, grid[half:])
                assert client.keys() == sorted(keys)
                stats = client.series_stats(keys[0])
                assert stats["points"] == grid.shape[0]
                assert np.array_equal(
                    client.forecast(keys[0], 4), twin.forecast(keys[0], 4)
                )
                listing = client.anomalies(limit=1000)
                assert listing["page"]["total"] == app.ring.total_seen > 0
                with pytest.raises(ServingError) as missing:
                    client.series_stats("ghost")
                assert missing.value.status == 404
        finally:
            server.stop()
        # lease released, store reopens to exactly the served state
        assert not (store_dir / "LEASE.json").exists()
        reopened = MultiSeriesEngine.open(store_dir)
        try:
            assert sorted(map(str, reopened.keys())) == sorted(keys)
            for key in keys:
                ours = reopened.series_stats(key)
                theirs = twin.series_stats(key)
                assert (ours.points, ours.anomalies) == (
                    theirs.points,
                    theirs.anomalies,
                )
                assert np.array_equal(
                    reopened.forecast(key, PERIOD), twin.forecast(key, PERIOD)
                )
        finally:
            reopened.close()

    def test_sigterm_mid_stream_drains_checkpoints_and_releases(
        self, tmp_path
    ):
        """Satellite fix oracle: SIGTERM mid-stream must stop accepting,
        drain the in-flight request, checkpoint, release the lease, and
        exit 0 -- and the store must recover exactly the confirmed
        batches (the surviving WAL prefix)."""
        store_dir = tmp_path / "store"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [
                str(pathlib.Path(__file__).resolve().parents[1] / "src"),
                env.get("PYTHONPATH", ""),
            ]
        ).rstrip(os.pathsep)
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.serving",
                "--store",
                str(store_dir),
                "--period",
                str(PERIOD),
                "--port",
                "0",
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            ready = process.stdout.readline()
            assert "ready on http://" in ready, ready
            assert f"(kernel: {kernel_backend()['body']})" in ready, ready
            assert f"(vector: {kernel_backend()['vector'] or 'unknown'})" in ready
            port = int(ready.rsplit(":", 1)[1])
            keys, grid = fleet_grid(6, PERIOD * 40, seed=61)
            rounds_per_batch = PERIOD
            confirmed = 0
            failed = threading.Event()

            def stream():
                nonlocal confirmed
                try:
                    with ServingClient("127.0.0.1", port) as client:
                        for start in range(
                            0, grid.shape[0], rounds_per_batch
                        ):
                            client.ingest(
                                keys, grid[start : start + rounds_per_batch]
                            )
                            confirmed += 1
                except (ServingError, OSError):
                    # the shutdown refused or cut this batch; everything
                    # before it was confirmed
                    failed.set()

            streamer = threading.Thread(target=stream)
            streamer.start()
            while confirmed < 2 and streamer.is_alive():
                time.sleep(0.005)
            process.send_signal(signal.SIGTERM)
            streamer.join(timeout=60)
            assert not streamer.is_alive()
            assert process.wait(timeout=60) == 0  # drained exit is success
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
        assert confirmed >= 2
        # ordering step 4: the lease was released on the way out
        assert not (store_dir / "LEASE.json").exists()
        # the store recovers the confirmed prefix -- plus at most the one
        # batch that was in flight (drained and applied, reply racing the
        # client's read) when the signal landed
        reopened = MultiSeriesEngine.open(store_dir)
        try:
            points = reopened.series_stats(keys[0]).points
            batches = points // rounds_per_batch
            assert points % rounds_per_batch == 0
            assert batches in (confirmed, confirmed + 1)
            twin = MultiSeriesEngine.for_oneshotstl(PERIOD)
            twin.ingest_grid(keys, grid[: batches * rounds_per_batch])
            for key in keys:
                ours = reopened.series_stats(key)
                theirs = twin.series_stats(key)
                assert (ours.points, ours.anomalies) == (
                    theirs.points,
                    theirs.anomalies,
                )
            if str(reopened.series_stats(keys[0]).status) == "live":
                for key in keys:
                    assert np.array_equal(
                        reopened.forecast(key, PERIOD),
                        twin.forecast(key, PERIOD),
                    )
        finally:
            reopened.close()

    def test_server_rejects_oversized_and_malformed_requests(self, tmp_path):
        app = make_app()
        server = ServingServer(
            app, max_body_bytes=1024, ready_stream=open(os.devnull, "w")
        )
        host, port = server.start_in_thread()
        try:
            import http.client

            connection = http.client.HTTPConnection(host, port, timeout=10)
            keys, grid = fleet_grid(4, 64)
            connection.request(
                "POST",
                "/v1/ingest",
                body=encode_grid(keys, grid),  # far over 1024 bytes
                headers={"Content-Type": CONTENT_TYPE_COLUMNAR},
            )
            response = connection.getresponse()
            assert response.status == 413
            response.read()
            connection.close()
            # malformed request line: the codec answers 400 and closes
            import socket as socket_module

            raw = socket_module.create_connection((host, port), timeout=10)
            raw.sendall(b"NONSENSE\r\n\r\n")
            reply = raw.recv(4096)
            assert reply.startswith(b"HTTP/1.1 400")
            assert b"Connection: close" in reply
            raw.close()
        finally:
            server.stop()

    def test_a_stalled_client_is_let_go(self, monkeypatch):
        """A client that sends nothing is closed, and one that stops
        mid-body is answered 408, once the request's deadline passes."""
        import socket as socket_module

        from repro.serving import server as server_module

        monkeypatch.setattr(server_module, "_KEEPALIVE_IDLE_SECONDS", 0.3)
        server = ServingServer(make_app(), ready_stream=open(os.devnull, "w"))
        host, port = server.start_in_thread()
        try:
            silent = socket_module.create_connection((host, port), timeout=10)
            stalled = socket_module.create_connection((host, port), timeout=10)
            stalled.sendall(
                b"POST /v1/ingest HTTP/1.1\r\nContent-Length: 100\r\n\r\n"
                + b"x" * 10
            )
            started = time.monotonic()
            assert silent.recv(4096) == b""  # closed without a reply
            reply = stalled.recv(4096)
            assert reply.startswith(b"HTTP/1.1 408 Request Timeout")
            assert b"Connection: close" in reply
            assert time.monotonic() - started < 5
            silent.close()
            stalled.close()
        finally:
            server.stop()

    def test_head_and_body_share_one_deadline(self, monkeypatch):
        """A head sent slowly leaves the body only what remains of the
        request's deadline, not a fresh one."""
        import socket as socket_module

        from repro.serving import server as server_module

        monkeypatch.setattr(server_module, "_KEEPALIVE_IDLE_SECONDS", 1.0)
        server = ServingServer(make_app(), ready_stream=open(os.devnull, "w"))
        host, port = server.start_in_thread()
        try:
            raw = socket_module.create_connection((host, port), timeout=10)
            head = b"POST /v1/ingest HTTP/1.1\r\nContent-Length: 100\r\n\r\n"
            started = time.monotonic()
            for start in range(0, len(head), 8):
                raw.sendall(head[start : start + 8])
                time.sleep(0.1)
            raw.sendall(b"x" * 10)
            reply = raw.recv(4096)
            elapsed = time.monotonic() - started
            assert reply.startswith(b"HTTP/1.1 408 Request Timeout")
            # A deadline per read would have let the body wait a whole
            # second after the head's last byte.
            assert elapsed < 1.45
            raw.close()
        finally:
            server.stop()

    def test_each_request_on_a_connection_gets_its_own_deadline(
        self, monkeypatch
    ):
        """A keep-alive client that pauses less than the deadline between
        requests is answered every time, however long it stays."""
        import http.client

        from repro.serving import server as server_module

        monkeypatch.setattr(server_module, "_KEEPALIVE_IDLE_SECONDS", 0.3)
        server = ServingServer(make_app(), ready_stream=open(os.devnull, "w"))
        host, port = server.start_in_thread()
        try:
            connection = http.client.HTTPConnection(host, port, timeout=10)
            started = time.monotonic()
            for _ in range(4):
                connection.request("GET", "/health")
                response = connection.getresponse()
                assert response.status == 200
                response.read()
                time.sleep(0.15)
            assert time.monotonic() - started > 0.3
            connection.close()
        finally:
            server.stop()
