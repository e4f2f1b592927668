"""Served-throughput benchmark: concurrent columnar ingest over HTTP.

Everything below the wire is a library; this benchmark measures what the
network front door costs.  It stands up a **real server process**
(``python -m repro.serving`` on a durable store), drives it with
``N_CLIENTS`` concurrent clients streaming columnar bulk-ingest requests
over keep-alive connections -- each client owns a disjoint slice of the
fleet -- and reports:

* served aggregate throughput (points/sec across all clients),
* p50 / p99 request latency over the timed window,
* the same run's **in-process** columnar throughput: a twin engine with
  the identical spec fed the identical batches via
  :meth:`~repro.streaming.MultiSeriesEngine.ingest_grid` directly
  (plus a full-width context row -- see :func:`_bench_in_process`).

The ratio of the two is the cost of serving -- HTTP framing, wire
decode, thread handoff, the WAL the durable session journals to -- and
``check_perf_regression.py`` gates it at :data:`SERVED_COLUMNAR_FLOOR`
of the in-process number.  While the timed ingest runs, a poller thread
hits ``GET /health`` and paginated ``GET /v1/anomalies`` and every reply
must answer (the acceptance criterion that reads must not starve behind
bulk writes).

Results merge into ``benchmarks/results/BENCH_engine.json`` (new rows +
``served_*`` summary fields), so CI's perf artifact stays one document::

    PYTHONPATH=src python benchmarks/bench_engine_throughput.py
    PYTHONPATH=src python benchmarks/bench_serving.py [--smoke]
    PYTHONPATH=src python benchmarks/check_perf_regression.py

``--smoke`` shrinks the fleet and stream for a seconds-long sanity run;
smoke numbers are reported but never comparable to full-workload runs.
"""

from __future__ import annotations

import json
import os
import pathlib
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).parent))
from helpers import RESULTS_DIRECTORY, report, report_json

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.serving import ServingClient, ServingError  # noqa: E402
from repro.streaming.engine import MultiSeriesEngine  # noqa: E402

#: served aggregate throughput must keep at least this fraction of the
#: same run's in-process 1000-series columnar ingest (the tentpole gate:
#: the network front door may cost at most half the library's speed)
SERVED_COLUMNAR_FLOOR = 0.5

PERIOD = 24
INITIALIZATION = 4 * PERIOD
#: untimed online rounds after initialization, so both sides measure the
#: steady state (matches bench_engine_throughput's warm-up discipline)
ONLINE_WARMUP = 8

N_CLIENTS = 4


def _workload(smoke: bool) -> tuple[int, int, int]:
    """(n_series, timed rounds, rounds per request).

    Requests are deliberately bulk-sized (16 rounds x 250 series = 4000
    points each at the full workload): the columnar wire format exists
    so one request can carry thousands of points, and per-request
    overhead -- HTTP parse, thread handoff, WAL append -- amortizes away
    at that granularity.
    """
    if smoke:
        return 200, 32, 16
    return 1000, 96, 16


def _fleet_values(n_series: int, length: int) -> np.ndarray:
    """Round-major ``(length, n_series)`` grid of seasonal streams."""
    rng = np.random.default_rng(7)
    time_axis = np.arange(length)[:, None]
    phase = rng.uniform(0.0, 2 * np.pi, n_series)[None, :]
    return (
        np.sin(2 * np.pi * time_axis / PERIOD + phase)
        + 0.01 * time_axis
        + rng.normal(0.0, 0.05, (length, n_series))
    )


def _bench_in_process(
    keys: list[str], grid: np.ndarray, timed_start: int, rounds_per_request: int
) -> tuple[float, float]:
    """The comparator: identical spec, identical batches, no network.

    Returns ``(same_batches, full_width)`` points/sec.  ``same_batches``
    replays the *exact* request stream the HTTP clients send -- each
    client's 1/``N_CLIENTS`` key slice as its own columnar batch -- so
    the served/in-process ratio isolates what the wire costs.  The
    distinction matters: ingesting a key *subset* of a large fleet
    gathers and scatters the cohort's columns around a narrower kernel
    run and costs about 1.06x per point before any network is involved
    (four repeats of this function: 1.02-1.10x, 1.53-1.75 us/point for
    the four 250-wide slices against 1.45-1.67 for full-width batches;
    it was 1.9-2.1x, 3.6-3.7 against 1.75-1.86, while the kernel paid
    its NumPy dispatch once per round and iteration whatever the
    width), and that engine property must not be billed to the serving
    layer.  ``full_width`` (every key in one batch) rides
    along as the context row.
    """
    n_series = len(keys)
    slice_width = n_series // N_CLIENTS
    engine = MultiSeriesEngine.for_oneshotstl(PERIOD)
    engine.ingest_grid(keys, grid[:timed_start])
    start = time.perf_counter()
    for begin in range(timed_start, grid.shape[0], rounds_per_request):
        window = grid[begin : begin + rounds_per_request]
        for left in range(0, n_series, slice_width):
            engine.ingest_grid(
                keys[left : left + slice_width],
                np.ascontiguousarray(window[:, left : left + slice_width]),
            )
    same_batches_elapsed = time.perf_counter() - start
    timed_points = (grid.shape[0] - timed_start) * n_series

    engine = MultiSeriesEngine.for_oneshotstl(PERIOD)
    engine.ingest_grid(keys, grid[:timed_start])
    start = time.perf_counter()
    for begin in range(timed_start, grid.shape[0], rounds_per_request):
        engine.ingest_grid(keys, grid[begin : begin + rounds_per_request])
    full_width_elapsed = time.perf_counter() - start
    return (
        timed_points / same_batches_elapsed,
        timed_points / full_width_elapsed,
    )


class _ServerProcess:
    """A real ``python -m repro.serving`` subprocess on a fresh store."""

    def __init__(self, store_dir: str, max_in_flight: int = 64):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(REPO_ROOT / "src"), env.get("PYTHONPATH", "")]
        ).rstrip(os.pathsep)
        self.process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.serving",
                "--store",
                store_dir,
                "--period",
                str(PERIOD),
                "--port",
                "0",
                "--max-in-flight",
                str(max_in_flight),
                "--workers",
                str(N_CLIENTS + 4),
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        ready = self.process.stdout.readline()
        if "ready on http://" not in ready:
            self.process.kill()
            raise RuntimeError(
                f"server did not come up: {ready!r}\n"
                f"{self.process.stderr.read()}"
            )
        self.port = int(ready.rsplit(":", 1)[1])

    def shutdown(self) -> int:
        """SIGTERM and wait: a drained shutdown must exit 0."""
        self.process.send_signal(signal.SIGTERM)
        try:
            return self.process.wait(timeout=120)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
            raise RuntimeError("server did not drain within 120s")

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
            self.process.wait()


def _client_stream(
    port: int,
    keys: list[str],
    grid: np.ndarray,
    timed_start: int,
    rounds_per_request: int,
    barrier: threading.Barrier,
    latencies: list[float],
    errors: list[str],
) -> None:
    """One client: warm its slice, sync on the barrier, stream timed."""
    try:
        with ServingClient("127.0.0.1", port, timeout=120.0) as client:
            summary = client.ingest(keys, grid[:timed_start])
            assert summary.complete
            barrier.wait()
            for begin in range(timed_start, grid.shape[0], rounds_per_request):
                start = time.perf_counter()
                client.ingest(keys, grid[begin : begin + rounds_per_request])
                latencies.append(time.perf_counter() - start)
    except (ServingError, OSError, AssertionError) as error:
        errors.append(f"{type(error).__name__}: {error}")
        try:
            barrier.abort()
        except threading.BrokenBarrierError:
            pass


def _poll_queries(
    port: int, stop: threading.Event, outcomes: list[tuple[int, int]]
) -> None:
    """Hit /health and paginated /v1/anomalies while the ingest runs."""
    ok = failed = 0
    with ServingClient("127.0.0.1", port, timeout=60.0) as client:
        while not stop.is_set():
            try:
                health = client.health()
                listing = client.anomalies(limit=10, sort="-index")
                cursor = listing["page"]["next_cursor"]
                if cursor is not None:
                    client.anomalies(limit=10, sort="-index", cursor=cursor)
                if health["http_status"] == 200:
                    ok += 1
                else:
                    failed += 1
            except (ServingError, OSError):
                failed += 1
            time.sleep(0.02)
    outcomes.append((ok, failed))


def _bench_served(
    keys: list[str],
    grid: np.ndarray,
    timed_start: int,
    rounds_per_request: int,
) -> dict:
    """Drive the live server with N_CLIENTS concurrent columnar streams."""
    n_series = len(keys)
    slice_width = n_series // N_CLIENTS
    store_dir = tempfile.mkdtemp(prefix="bench-serving-")
    server = _ServerProcess(store_dir)
    try:
        barrier = threading.Barrier(N_CLIENTS + 1)
        latencies: list[list[float]] = [[] for _ in range(N_CLIENTS)]
        errors: list[str] = []
        threads = []
        for client_index in range(N_CLIENTS):
            begin = client_index * slice_width
            end = begin + slice_width
            threads.append(
                threading.Thread(
                    target=_client_stream,
                    args=(
                        server.port,
                        keys[begin:end],
                        np.ascontiguousarray(grid[:, begin:end]),
                        timed_start,
                        rounds_per_request,
                        barrier,
                        latencies[client_index],
                        errors,
                    ),
                )
            )
        for thread in threads:
            thread.start()
        barrier.wait()  # every client finished its warm-up slice
        stop_poller = threading.Event()
        poll_outcomes: list[tuple[int, int]] = []
        poller = threading.Thread(
            target=_poll_queries, args=(server.port, stop_poller, poll_outcomes)
        )
        start = time.perf_counter()
        poller.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - start
        stop_poller.set()
        poller.join()
        exit_code = server.shutdown()
    except Exception:
        server.kill()
        raise
    if errors:
        raise RuntimeError(f"client streams failed: {errors}")
    timed_points = (grid.shape[0] - timed_start) * slice_width * N_CLIENTS
    flat = sorted(value for bucket in latencies for value in bucket)
    polls_ok, polls_failed = poll_outcomes[0]
    return {
        "points_per_sec": timed_points / elapsed,
        "p50_ms": 1e3 * statistics.median(flat),
        "p99_ms": 1e3 * flat[min(len(flat) - 1, int(0.99 * len(flat)))],
        "requests": len(flat),
        "polls_ok": polls_ok,
        "polls_failed": polls_failed,
        "server_exit_code": exit_code,
    }


def _merge_into_bench_engine(rows: list[dict], fields: dict, smoke: bool) -> None:
    """Fold the serving rows + summary fields into BENCH_engine.json.

    The engine benchmark writes the document first in CI; running this
    benchmark standalone creates a serving-only document (the regression
    gate will then point at the missing engine fields by name).
    """
    path = RESULTS_DIRECTORY / "BENCH_engine.json"
    if path.exists():
        document = json.loads(path.read_text())
        document["rows"] = [
            row
            for row in document.get("rows", [])
            if not str(row.get("config", "")).startswith("served")
        ] + rows
    else:
        document = {
            "benchmark": "engine_throughput",
            "schema_version": 1,
            "workload": "smoke" if smoke else "full",
            "rows": rows,
        }
    document.update(fields)
    RESULTS_DIRECTORY.mkdir(exist_ok=True)
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    print(f"[json] merged serving fields into {path}")


def main(argv: list[str] | None = None) -> int:
    arguments = argv if argv is not None else sys.argv[1:]
    smoke = "--smoke" in arguments
    n_series, timed_rounds, rounds_per_request = _workload(smoke)
    keys = [f"series-{index:04d}" for index in range(n_series)]
    timed_start = INITIALIZATION + ONLINE_WARMUP
    grid = _fleet_values(n_series, timed_start + timed_rounds)

    in_process, full_width = _bench_in_process(
        keys, grid, timed_start, rounds_per_request
    )
    served = _bench_served(keys, grid, timed_start, rounds_per_request)
    ratio = served["points_per_sec"] / in_process

    rows = [
        {
            "config": "served ingest (in-process comparator, same batches)",
            "series": n_series,
            "online_points": timed_rounds * n_series,
            "points_per_sec": in_process,
            "us_per_point": 1e6 / in_process,
        },
        {
            "config": "served ingest (in-process, full-width batches)",
            "series": n_series,
            "online_points": timed_rounds * n_series,
            "points_per_sec": full_width,
            "us_per_point": 1e6 / full_width,
        },
        {
            "config": f"served ingest ({N_CLIENTS} HTTP clients)",
            "series": n_series,
            "online_points": timed_rounds * n_series,
            "points_per_sec": served["points_per_sec"],
            "us_per_point": 1e6 / served["points_per_sec"],
            "p50_ms": served["p50_ms"],
            "p99_ms": served["p99_ms"],
            "served_vs_inprocess_ratio": ratio,
        },
    ]
    report(
        "serving_throughput",
        "Served throughput: concurrent columnar ingest over HTTP",
        rows,
    )
    print(
        f"served/in-process ratio {ratio:.2f} "
        f"(floor {SERVED_COLUMNAR_FLOOR}); "
        f"{served['requests']} requests, "
        f"p50 {served['p50_ms']:.1f} ms, p99 {served['p99_ms']:.1f} ms; "
        f"{served['polls_ok']} health+anomaly polls answered during "
        f"ingest ({served['polls_failed']} failed); "
        f"server exit code {served['server_exit_code']}"
    )
    fields = {
        "served_points_per_sec": served["points_per_sec"],
        "served_inprocess_points_per_sec": in_process,
        "served_inprocess_full_width_points_per_sec": full_width,
        "served_vs_inprocess_ratio": ratio,
        "served_request_p50_ms": served["p50_ms"],
        "served_request_p99_ms": served["p99_ms"],
        "served_clients": N_CLIENTS,
        "served_series": n_series,
        "served_polls_ok": served["polls_ok"],
        "served_polls_failed": served["polls_failed"],
        "served_workload": "smoke" if smoke else "full",
    }
    _merge_into_bench_engine(rows, fields, smoke)
    report_json(
        "BENCH_serving.json",
        "serving_throughput",
        rows,
        **fields,
    )

    failures = []
    if served["server_exit_code"] != 0:
        failures.append(
            f"graceful shutdown exited {served['server_exit_code']}, not 0"
        )
    if served["polls_ok"] == 0:
        failures.append(
            "no /health + /v1/anomalies polls were answered during ingest"
        )
    if served["polls_failed"] > 0:
        failures.append(
            f"{served['polls_failed']} read polls failed during ingest: "
            "reads starved behind bulk writes"
        )
    if smoke:
        if failures:
            print("FAIL:", *failures, sep="\n  ")
            return 1
        print(
            "[info] smoke workload: ratio reported, not gated "
            "(check_perf_regression.py gates the full run)"
        )
        return 0
    if ratio < SERVED_COLUMNAR_FLOOR:
        failures.append(
            f"served throughput is only {ratio:.2f}x the in-process "
            f"columnar ingest (floor {SERVED_COLUMNAR_FLOOR}x)"
        )
    if failures:
        print("FAIL:", *failures, sep="\n  ")
        return 1
    print("OK: serving layer within budget.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
