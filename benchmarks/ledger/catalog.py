"""Every name the ledger prints: workloads, metrics, units, bounds.

``BENCHMARK.json`` at the repository root is the driver's view of this
catalogue and is limited to the keys its contract allows.  What the
contract has no key for -- which workloads report a metric, which
end-to-end metric a per-layer metric is expected to move -- lives here
and in the README, and the smoke test checks the two stay in step.
"""

from __future__ import annotations

from dataclasses import dataclass

WORKLOADS = {
    "paper_scalar": (
        "OneShotSTL.update one point at a time on Syn1/Syn2: the paper's O(1) claim and "
        "Table 2 accuracy; the scalar path is the oracle and the fleet's shift-search fallback"
    ),
    "fleet_clean": (
        "full-width ingest_grid, no store, no anomalies: core.fleet and solvers do almost all "
        "the work, so kernel gains must show here and WAL, pipe and wire changes must not"
    ),
    "fleet_anomalous": (
        "same engine and batches with spikes on 0.03% of points and 3-sample phase shifts: "
        "the scalar shift-search fallback dominates; the only workload with labels"
    ),
    "fleet_mixed_forms": (
        "every public ingest form (subset grids, dict, rows, NaN grid, ingest_many, process) "
        "plus stats and forecast reads in one cycle: prices streaming.engine staging, not the kernel"
    ),
    "durable_session": (
        "fleet_clean plus WAL encode, append and fsync, a checkpoint every 100 batches and a "
        "timed reopen: the difference to fleet_clean is the durability layer"
    ),
    "sharded_cluster": (
        "ShardRouter over 2 worker processes, each carrying a fleet_clean load, with "
        "checkpoints, SIGKILL and failover: pickled pipe, fan-out/fan-in, slowest-shard wait"
    ),
    "served_http": (
        "real python -m repro.serving process, one closed-loop RCW1 writer and one 5 Hz "
        "open-loop reader: wire codec, asyncio server, thread hop, backend lock, anomaly ring"
    ),
}

ALL = tuple(WORKLOADS)
FLEETS = ALL[1:]
KERNEL_PATH = ("fleet_clean", "durable_session", "sharded_cluster", "served_http")
WAL_PATH = ("durable_session", "sharded_cluster", "served_http")
#: the sandbox's one-sided noise leaves quartile spreads of 5-15% between
#: runs of one commit (see README): a tighter gate would fail on noise
TIMING_BOUND = 0.25


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: workloads that report it (others omit it; the driver's result
    #: line, which must carry every declared name, shows 0 there: the
    #: layer is not on that workload's path)
    workloads: tuple
    #: end-to-end: share by which it may worsen.  None: per-layer.
    bound: float | None
    #: definition for end-to-end metrics; for per-layer metrics the
    #: timed call and the end-to-end metric it should move ("->") or
    #: leave alone ("!=")
    note: str


def _e2e(name, unit, better, workloads, bound, note):
    return Metric(name, unit, better, tuple(workloads), bound, note)


def _layer(name, unit, better, workloads, note):
    if isinstance(workloads, str):
        workloads = (workloads,)
    return Metric(name, unit, better, tuple(workloads), None, note)


END_TO_END = (
    _e2e("points_per_s", "points/s", "higher", ALL, TIMING_BOUND,
         "upper quartile of the rates of the window's half-second segments of whole cycles "
         "(closed loop, one batch in flight)"),
    _e2e("cpu_us_per_point", "us", "lower", ALL, TIMING_BOUND,
         "user+sys CPU of every process of the system under test / points, lower quartile "
         "over the segments"),
    _e2e("latency_p50_ms", "ms", "lower", ALL, TIMING_BOUND,
         "per-operation wall time: each segment's median, lower quartile over segments"),
    _e2e("latency_p90_ms", "ms", "lower", ALL, TIMING_BOUND,
         "per-operation wall time: each segment's p90, lower quartile over segments "
         "(at least 120 samples in all)"),
    _e2e("failed_share", "ratio", "lower", ALL, 1e-9,
         "operations and output checks failed, refused or wrong / attempted; expected 0"),
    _e2e("setup_s", "s", "lower", ALL, 0.25,
         "process start to window start: imports, load generation, build, initialise, warm-up"),
    _e2e("peak_rss_mb", "MB", "lower", ALL, 0.10,
         "max RSS of the workload's process plus its largest reaped child"),
    _e2e("checkpoint_s", "s", "lower", ("durable_session", "sharded_cluster"), TIMING_BOUND,
         "median wall of the timed checkpoint() calls"),
    _e2e("recovery_s", "s", "lower", ("durable_session", "sharded_cluster"), TIMING_BOUND,
         "reopen-and-replay of the fixed WAL tail: open(), resp. FailoverReport.duration_seconds"),
    _e2e("decomp_mae", "value", "lower", ("paper_scalar",), 1e-9,
         "mean of trend and seasonal MAE on Syn1 and Syn2 after the 4-period initialisation"),
    _e2e("anomaly_f1", "ratio", "higher", ("fleet_anomalous",), 1e-9,
         "point-wise F1 of is_anomaly against the injected spike labels over one cycle of 60 batches"),
)

#: the end-to-end metrics the driver's contract carries as ``end_to_end``:
#: reported by every workload, never 0, and steady enough to gate on.
#: ``latency_p90_ms`` is not among them: its quartile spread between runs
#: of one commit reached 15-29% of the median on this sandbox, and the
#: issue's repeatability rule keeps such a metric as a per-layer one
#: instead of shipping a gate that fails on noise.
UNIVERSAL = (
    "points_per_s",
    "cpu_us_per_point",
    "latency_p50_ms",
    "setup_s",
    "peak_rss_mb",
)

PER_LAYER = (
    _layer("core.oneshotstl.update_us_p50", "us", "lower", ("paper_scalar", "fleet_anomalous"),
           "OneShotSTL.update -> latency_p50_ms, points_per_s @ paper_scalar"),
    _layer("core.oneshotstl.update_us_p99", "us", "lower", ("paper_scalar", "fleet_anomalous"),
           "OneShotSTL.update; the shift-search update once 1% of updates search "
           "-> points_per_s, latency_p90_ms @ fleet_anomalous; != fleet_clean"),
    _layer("core.oneshotstl.search_update_us_p50", "us", "lower", ("paper_scalar", "fleet_anomalous"),
           "OneShotSTL.update calls slower than 10x the median, i.e. the shift searches "
           "-> points_per_s @ fleet_anomalous; != fleet_clean"),
    _layer("core.oneshotstl.initialize_ms_per_series", "ms", "lower", ALL,
           "OneShotSTL.initialize -> setup_s @ every fleet workload"),
    _layer("core.oneshotstl.syn1_trend_mae", "value", "lower", "paper_scalar", "repro.metrics.mae -> decomp_mae"),
    _layer("core.oneshotstl.syn1_seasonal_mae", "value", "lower", "paper_scalar", "repro.metrics.mae -> decomp_mae"),
    _layer("core.oneshotstl.syn2_trend_mae", "value", "lower", "paper_scalar", "repro.metrics.mae -> decomp_mae"),
    _layer("core.oneshotstl.syn2_seasonal_mae", "value", "lower", "paper_scalar", "repro.metrics.mae -> decomp_mae"),
    _layer("core.fleet.update_block_us_per_point", "us", "lower", KERNEL_PATH,
           "FleetKernel.pack(models).update_block on clean 8-round blocks -> points_per_s, "
           "cpu_us_per_point @ fleet_clean (about the whole cost), in proportion above it"),
    _layer("core.fleet.update_block_anomalous_us_per_point", "us", "lower", "fleet_anomalous",
           "the same on fleet_anomalous blocks -> points_per_s @ fleet_anomalous; != fleet_clean"),
    _layer("core.fleet.update_block_t1_us_per_point", "us", "lower", "fleet_mixed_forms",
           "update_block on 1-round blocks -> the rows and process phases of fleet_mixed_forms"),
    _layer("core.fleet.update_block_subset_us_per_point", "us", "lower", "fleet_mixed_forms",
           "update_block(values, columns=quarter) -> the subset phase of fleet_mixed_forms; != served_http"),
    _layer("core.fleet.nsigma_update_block_us_per_point", "us", "lower", KERNEL_PATH + ("fleet_anomalous",),
           "ColumnarNSigma.update_block -> points_per_s @ fleet_clean (small share)"),
    _layer("core.fleet.pack_ms_per_series", "ms", "lower", FLEETS, "FleetKernel.pack -> setup_s"),
    _layer("core.fleet.flagged_points", "count", "lower", "fleet_anomalous",
           "IngestResult.is_anomaly over one cycle of 60 batches (exact per seed) -> anomaly_f1; "
           "each flag is about one scalar search -> points_per_s @ fleet_anomalous"),
    _layer("core.fleet.flagged_per_injected", "ratio", "lower", "fleet_anomalous",
           "flagged points / injected spikes (exact per seed) -> anomaly_f1"),
    _layer("streaming.engine.grid_us_per_point", "us", "lower", KERNEL_PATH + ("fleet_anomalous",),
           "full-width ingest_grid on a restored twin -> points_per_s @ fleet_clean and every workload above it"),
    _layer("streaming.engine.staging_self_us_per_point", "us", "lower", KERNEL_PATH + ("fleet_anomalous",),
           "grid - kernel - nsigma -> points_per_s @ fleet_clean and every workload above it"),
    *(
        _layer(f"streaming.engine.{form}_us_per_point", "us", "lower", "fleet_mixed_forms",
               f"{call} -> points_per_s, latency_p90_ms @ fleet_mixed_forms; != fleet_clean")
        for form, call in (
            ("subset", "quarter-width ingest_grid"),
            ("dict", "ingest_columnar({key: values})"),
            ("rows", "ingest([(key, value), ...]) with EngineRecords out"),
            ("nan_grid", "ingest_grid with NaN cells in 2 of 8 rounds"),
            ("ingest_many", "ingest_many of two 4-round grids"),
            ("process", "process(key, value)"),
            ("records", "IngestResult.records()"),
        )
    ),
    _layer("streaming.engine.series_stats_us", "us", "lower", "fleet_mixed_forms",
           "series_stats on a cohort member -> serving.read.* @ served_http; points_per_s @ fleet_mixed_forms"),
    _layer("streaming.engine.forecast_us", "us", "lower", "fleet_mixed_forms",
           "forecast(h=24) on a cohort member -> serving.read.* @ served_http; points_per_s @ fleet_mixed_forms"),
    _layer("durability.format.encode_wal_record_us_per_point", "us", "lower", WAL_PATH,
           "encode_wal_record('grid', keys, grid) -> points_per_s @ durable_session, served_http, sharded_cluster"),
    _layer("durability.format.decode_wal_record_us_per_point", "us", "lower", WAL_PATH,
           "decode_wal_record -> recovery_s"),
    _layer("durability.directory.wal_append_us_per_point", "us", "lower", WAL_PATH,
           "wal_append with wal_sync off -> latency_p50_ms @ durable_session"),
    _layer("durability.directory.wal_fsync_ms_per_append", "ms", "lower", "durable_session",
           "wal_append with wal_sync on - off -> latency_p50_ms @ durable_session; != served_http (wal_sync off there)"),
    _layer("durability.wal_self_us_per_point", "us", "lower", "durable_session",
           "durable ingest_grid - plain ingest_grid -> points_per_s @ durable_session; != fleet_clean"),
    _layer("durability.wal_bytes_per_point", "bytes", "lower", "durable_session",
           "WAL file size / tail points (exact) -> recovery_s"),
    _layer("durability.segment_bytes_per_series", "bytes", "lower", "durable_session",
           "segment file sizes / series (exact) -> checkpoint_s, recovery_s"),
    _layer("durability.checkpoint_one_cohort_s", "s", "lower", "durable_session",
           "checkpoint() with one dirty cohort -> checkpoint_s, through the cadence points_per_s @ durable_session"),
    _layer("durability.format.encode_segment_ms_per_cohort", "ms", "lower", "durable_session",
           "encode_segment of one 64-series cohort -> checkpoint_s"),
    _layer("durability.recovery_load_s", "s", "lower", "durable_session", "open() on an empty-WAL store -> recovery_s"),
    _layer("durability.recovery_replay_us_per_point", "us", "lower", "durable_session",
           "(recovery_s - load) / tail points -> recovery_s"),
    _layer("sharding.hashring.assignments_us_per_key", "us", "lower", "sharded_cluster",
           "ConsistentHashRing.assignments -> latency_p50_ms @ sharded_cluster"),
    _layer("sharding.shard_skew", "ratio", "lower", "sharded_cluster",
           "max / mean keys per shard (exact): a batch waits for its slowest shard -> latency_p50_ms @ sharded_cluster"),
    _layer("sharding.pipe_bytes_per_point", "bytes", "lower", "sharded_cluster",
           "computed by pickling one shard's message and reply -> cpu_us_per_point, points_per_s @ sharded_cluster"),
    _layer("sharding.pipe_pickle_us_per_point", "us", "lower", "sharded_cluster",
           "computed: dumps + loads of that message and reply -> cpu_us_per_point @ sharded_cluster"),
    _layer("sharding.router.overhead_ms_per_batch", "ms", "lower", "sharded_cluster",
           "p50 router.ingest_grid - p50 in-process durable ingest of the largest shard's slice "
           "-> latency_p50_ms, points_per_s @ sharded_cluster; != durable_session"),
    _layer("sharding.worker_cpu_share", "ratio", "higher", "sharded_cluster",
           "worker CPU / all CPU over the window -> cpu_us_per_point @ sharded_cluster"),
    _layer("faults.retry.call_overhead_us", "us", "lower", "sharded_cluster",
           "RetryPolicy.call around a no-op -> sharded_cluster only"),
    *(
        _layer(f"serving.protocol.{call}", "us", "lower", "served_http",
               f"{call.split('_us')[0]} -> latency_p50_ms, cpu_us_per_point @ served_http; != all others")
        for call in (
            "encode_grid_us_per_point",
            "decode_grid_us_per_point",
            "encode_summary_us_per_key",
            "decode_summary_us_per_key",
        )
    ),
    _layer("serving.wire_bytes_per_point", "bytes", "lower", "served_http",
           "request + response body bytes (exact) -> latency_p50_ms @ served_http"),
    _layer("serving.app.handle_us_per_point", "us", "lower", "served_http",
           "in-process ServingApp.handle(Request.post('/v1/ingest', body)) -> points_per_s @ served_http"),
    _layer("serving.app.self_us_per_point", "us", "lower", "served_http",
           "handle - EngineBackend.ingest -> points_per_s @ served_http"),
    _layer("serving.app.ring_extend_us_per_anomaly", "us", "lower", "served_http",
           "AnomalyRing.extend_from_result -> points_per_s @ served_http when batches carry anomalies"),
    _layer("serving.server.self_us_per_point", "us", "lower", "served_http",
           "client-observed request - in-process handle -> latency_p50_ms, points_per_s @ served_http"),
    _layer("serving.server.idle_health_ms_p50", "ms", "lower", "served_http",
           "/health before the window -> latency_p50_ms @ served_http (fixed per-request cost)"),
    *(
        _layer(f"serving.read.{kind}_ms_p50", "ms", "lower", "served_http",
               f"reader connection, {kind} reads timed from when they were due: lock-hold time "
               "of an ingest; falls before points_per_s @ served_http rises")
        for kind in ("health", "stats", "forecast", "anomalies")
    ),
    _layer("serving.read.late_ms_p50", "ms", "lower", "served_http", "how late the paced reader sent its reads"),
    _layer("serving.read.answered_share", "ratio", "higher", "served_http", "reads answered correctly / reads sent"),
    _layer("serving.rejected_503", "count", "lower", "served_http", "requests refused with 503 -> failed_share"),
    _layer("ledger.trace_overhead_share", "ratio", "lower", ALL,
           "gap between operations in traced vs untraced cycles of one window / cycle wall"),
    _layer("ledger.ladder_residual_share", "ratio", "lower", ALL,
           "(end-to-end us/point - sum of self times) / end-to-end: what the ladder does not explain"),
)

METRICS = {metric.name: metric for metric in END_TO_END + PER_LAYER}
