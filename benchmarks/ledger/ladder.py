"""The per-layer ledger: a differential ladder measured from outside.

A ``--traced`` run prices each layer by timing calls into its *public*
functions on the workload's own batches.  The same batches go through
successively deeper entry points on twins cloned from one warmed state
(``snapshot()`` / ``restore()``, or a reopened store -- never a second
initialisation), and a layer's self time is its rung minus the rungs
below it:

====================  =====================================================
rung                  timed call
====================  =====================================================
kernel                ``FleetKernel.pack(models).update_block(block)``
scorer                ``ColumnarNSigma.pack(scorers).update_block(...)``
engine (plain)        ``MultiSeriesEngine.ingest_grid`` on a restored twin
engine (durable)      the same on an engine with a store attached
app                   ``ServingApp.handle(Request.post("/v1/ingest", ..))``
top                   the workload's own window (router, HTTP client)
====================  =====================================================

Codecs, the WAL and the retry wrapper are timed directly.  Every timed
call is one span (child of its rung's span, child of ``ladder``); they
land in ``results/trace_<workload>.json`` beside the window's spans.

The rungs run *after* the window, so nothing here can perturb an
end-to-end number.
"""

from __future__ import annotations

import pickle

import numpy as np

from repro.core import OneShotSTL
from repro.core.fleet import ColumnarNSigma, FleetKernel
from repro.durability import DirectoryCheckpointStore
from repro.durability.format import (
    decode_wal_record,
    encode_segment,
    encode_wal_record,
    wal_name,
)
from repro.faults import RetryPolicy
from repro.serving.app import AnomalyRing, EngineBackend, Request, ServingApp
from repro.serving.protocol import (
    decode_grid,
    decode_summary,
    encode_grid,
    encode_summary,
)
from repro.sharding import ConsistentHashRing
from repro.streaming.engine import MultiSeriesEngine

from load import (
    BATCH_ROUNDS,
    INIT_ROUNDS,
    MIXED_READS,
    PERIOD,
    FleetLoad,
)
from measure import clock, median, percentile


def residual_share(points_per_s: float, explained_us_per_point: float) -> float:
    """(end-to-end us/point - explained us/point) / end-to-end."""
    total = 1e6 / points_per_s
    return (total - explained_us_per_point) / total


class Rungs:
    """Times calls and files each one as a span under its rung."""

    def __init__(self, run):
        self.tracer = run.tracer
        self.blocks = run.scale.ladder_blocks
        self.root = self.tracer.open("ladder")

    def time(self, name: str, calls) -> np.ndarray:
        """Durations of each zero-argument callable in ``calls``."""
        rung = self.tracer.open(name, self.root)
        durations = []
        for call in calls:
            start = clock()
            call()
            end = clock()
            self.tracer.add(name, start, end, rung)
            durations.append(end - start)
        self.tracer.close(rung)
        return np.asarray(durations)

    def once(self, name: str, call) -> tuple[float, object]:
        start = clock()
        result = call()
        end = clock()
        self.tracer.add(name, start, end, self.root)
        return end - start, result

    def done(self) -> None:
        self.tracer.close(self.root)


def update_percentiles(durations: np.ndarray) -> dict:
    """Percentiles of ``OneShotSTL.update`` calls, and of the slow ones.

    An update that runs the seasonality-shift search tries 41 candidate
    shifts and costs tens of ordinary updates; p99 only lands on it once
    a hundredth of all updates search, so the searches are also reported
    on their own (slower than ten medians).
    """
    typical = percentile(durations, 50)
    searches = durations[durations > 10 * typical]
    metrics = {
        "core.oneshotstl.update_us_p50": 1e6 * typical,
        "core.oneshotstl.update_us_p99": 1e6 * percentile(durations, 99),
    }
    if searches.size:
        metrics["core.oneshotstl.search_update_us_p50"] = 1e6 * median(searches)
    return metrics


def typical(durations) -> float:
    """The lower quartile: the window reads its timings off the better
    quartile of segments (see measure.Window), and so do the rungs."""
    return percentile(durations, 25)


def _us_per_point(durations: np.ndarray, points: int, robust: bool = True) -> float:
    """Cost per point of equally sized calls: their typical duration, or
    the mean when the calls are deliberately unequal (anomalous batches)."""
    return 1e6 * (typical(durations) if robust else float(np.mean(durations))) / points


def _twin(warmed: dict) -> MultiSeriesEngine:
    twin = MultiSeriesEngine.for_oneshotstl(PERIOD)
    twin.restore(warmed)
    return twin


def _initialize_ms(rungs: Rungs, load: FleetLoad, columns) -> float:
    window = load.rounds(0, INIT_ROUNDS)
    durations = rungs.time(
        "OneShotSTL.initialize",
        [lambda c=c: OneShotSTL(PERIOD).initialize(window[:, c]) for c in columns],
    )
    return 1e3 * median(durations)


def _kernel_rungs(rungs: Rungs, warmed: dict, keys: list, blocks: list, robust: bool = True) -> dict:
    """Kernel and scorer cost on ``blocks``; also what packing costs."""
    models = [warmed[key].pipeline.decomposer for key in keys]
    scorers = [warmed[key].pipeline.scorer for key in keys]
    pack_s, kernel = rungs.once("FleetKernel.pack", lambda: FleetKernel.pack(models))
    scorer = ColumnarNSigma.pack(scorers)
    outputs = []
    kernel_s = rungs.time(
        "FleetKernel.update_block",
        [lambda b=block: outputs.append(kernel.update_block(b)) for block in blocks],
    )
    scorer_s = rungs.time(
        "ColumnarNSigma.update_block",
        [lambda o=out: scorer.update_block(o.detection_residual) for out in outputs],
    )
    # The engine twin spends its first block absorbing the restored
    # series, so every rung is read from the blocks after it.
    points = blocks[0].size
    return {
        "kernel": _us_per_point(kernel_s[1:], points, robust),
        "scorer": _us_per_point(scorer_s[1:], points, robust),
        "pack_ms_per_series": 1e3 * pack_s / len(keys),
    }


def _core_and_engine(
    rungs: Rungs, metrics: dict, warmed: dict, keys: list, blocks: list, robust: bool = True
) -> tuple[float, float]:
    """The three lowest rungs; returns ``(plain engine, kernel)`` us/point."""
    lower = _kernel_rungs(rungs, warmed, keys, blocks, robust)
    twin = _twin(warmed)
    twin.ingest_grid(keys, blocks[0])  # absorbs the restored series
    grid_s = rungs.time(
        "MultiSeriesEngine.ingest_grid", [lambda b=block: twin.ingest_grid(keys, b) for block in blocks[1:]]
    )
    grid = _us_per_point(grid_s, blocks[0].size, robust)
    metrics.update(
        {
            "core.fleet.nsigma_update_block_us_per_point": lower["scorer"],
            "core.fleet.pack_ms_per_series": lower["pack_ms_per_series"],
            "streaming.engine.grid_us_per_point": grid,
            "streaming.engine.staging_self_us_per_point": grid - lower["kernel"] - lower["scorer"],
        }
    )
    return grid, lower["kernel"]


def _wal_rungs(rungs: Rungs, metrics: dict, scratch, keys: list, blocks: list, fsync: bool) -> float:
    """Direct cost of WAL encode, decode and append; returns their sum
    (encode + append [+ fsync]) in us/point -- what a durable ingest adds."""
    points = blocks[0].size
    records = []
    encode_s = rungs.time(
        "encode_wal_record",
        [lambda b=block: records.append(encode_wal_record("grid", keys, b)) for block in blocks],
    )
    decode_s = rungs.time(
        "decode_wal_record", [lambda r=record: decode_wal_record(r, "ladder") for record in records]
    )
    appends = {}
    for sync in (False, True) if fsync else (False,):
        store = DirectoryCheckpointStore(scratch / f"wal-sync-{int(sync)}", wal_sync=sync)
        try:
            store.wal_start(wal_name(0))
            appends[sync] = rungs.time(
                f"wal_append(sync={sync})",
                [lambda r=record: store.wal_append(r) for record in records],
            )
        finally:
            store.close()
    metrics.update(
        {
            "durability.format.encode_wal_record_us_per_point": _us_per_point(encode_s, points),
            "durability.format.decode_wal_record_us_per_point": _us_per_point(decode_s, points),
            "durability.directory.wal_append_us_per_point": _us_per_point(appends[False], points),
        }
    )
    added = (
        metrics["durability.format.encode_wal_record_us_per_point"]
        + metrics["durability.directory.wal_append_us_per_point"]
    )
    if fsync:
        fsync_s = typical(appends[True]) - typical(appends[False])
        metrics["durability.directory.wal_fsync_ms_per_append"] = 1e3 * fsync_s
        added += 1e6 * fsync_s / points
    return added


def _blocks(load: FleetLoad, first: int, count: int, columns=None) -> list:
    blocks = [load.op(first + index) for index in range(count)]
    if columns is not None:
        blocks = [np.ascontiguousarray(block[:, columns]) for block in blocks]
    return blocks


# ----------------------------------------------------------------- workloads


def fleet_ladder(run, outcome, window, load: FleetLoad, warmed: dict, kind: str) -> None:
    rungs = Rungs(run)
    metrics = outcome.metrics
    clean = kind == "clean"
    blocks = _blocks(load, 0, rungs.blocks + 1)
    grid, kernel = _core_and_engine(rungs, metrics, warmed, load.keys, blocks, robust=clean)
    columns = load.sample_columns(8, run.scale.check_ops)
    metrics["core.oneshotstl.initialize_ms_per_series"] = _initialize_ms(rungs, load, columns)
    if clean:
        metrics["core.fleet.update_block_us_per_point"] = kernel
        metrics["ledger.ladder_residual_share"] = residual_share(metrics["points_per_s"], grid)
    else:
        metrics["core.fleet.update_block_anomalous_us_per_point"] = kernel
        metrics["core.fleet.flagged_points"] = outcome.counts["flagged_points"]
        metrics["core.fleet.flagged_per_injected"] = (
            outcome.counts["flagged_points"] / outcome.counts["injected_spikes"]
        )
        # Anomalous batches differ in cost by design, so like is compared
        # with like: the window's cost on the very batches the twin saw.
        same = window.durations()[1 : rungs.blocks + 1]
        window_us = 1e6 * float(same.mean()) / blocks[0].size
        metrics["ledger.ladder_residual_share"] = (window_us - grid) / window_us
        # The scalar update, on the series the overlay hits: the fleet
        # falls back to exactly this call for every flagged point.
        updates = []
        for column in columns:
            series = load.column_series(column, run.scale.check_ops)
            model = OneShotSTL(PERIOD)
            model.initialize(series[:INIT_ROUNDS])
            updates.append(
                rungs.time("OneShotSTL.update", [lambda v=v: model.update(v) for v in series[INIT_ROUNDS:]])
            )
        metrics.update(update_percentiles(np.concatenate(updates)))
    rungs.done()


def mixed_ladder(run, outcome, window, load: FleetLoad, warmed: dict) -> None:
    rungs = Rungs(run)
    metrics = outcome.metrics
    keys = load.keys
    n = load.n
    names = np.asarray(window.names)
    points = np.asarray(window.points)
    durations = window.durations()
    for name in ("subset", "dict", "rows", "nan_grid", "ingest_many", "process"):
        mask = names == name
        metrics[f"streaming.engine.{name}_us_per_point"] = 1e6 * typical(durations[mask] / points[mask])
    for name in ("series_stats", "forecast"):
        # one operation is a group of reads; the catalogue reports one read
        reads = durations[names == name] / MIXED_READS
        metrics[f"streaming.engine.{name}_us"] = 1e6 * typical(reads)

    blocks = _blocks(load, 0, rungs.blocks)
    models = [warmed[key].pipeline.decomposer for key in keys]
    pack_s, kernel = rungs.once("FleetKernel.pack", lambda: FleetKernel.pack(models))
    metrics["core.fleet.pack_ms_per_series"] = 1e3 * pack_s / n
    single_rounds = [row[None, :] for block in blocks[: max(1, rungs.blocks // 4)] for row in block]
    single_s = rungs.time(
        "FleetKernel.update_block(T=1)", [lambda r=r: kernel.update_block(r) for r in single_rounds]
    )
    metrics["core.fleet.update_block_t1_us_per_point"] = _us_per_point(single_s, n)
    kernel = FleetKernel.pack(models)
    quarter = np.arange(n // 4)
    subset_s = rungs.time(
        "FleetKernel.update_block(columns)",
        [lambda b=block: kernel.update_block(b[:, quarter], columns=quarter) for block in blocks],
    )
    metrics["core.fleet.update_block_subset_us_per_point"] = _us_per_point(
        subset_s, BATCH_ROUNDS * quarter.size
    )
    twin = _twin(warmed)
    results = [twin.ingest_grid(keys, block) for block in blocks[: max(2, rungs.blocks // 4)]]
    records_s = rungs.time("IngestResult.records", [result.records for result in results])
    metrics["streaming.engine.records_us_per_point"] = _us_per_point(records_s, blocks[0].size)
    metrics["core.oneshotstl.initialize_ms_per_series"] = _initialize_ms(
        rungs, load, load.sample_columns(8, 0)
    )
    # Every phase is its own rung here, so what the sum of typical phase
    # times leaves of a cycle is generator and loop overhead.
    first = window.cycle_first_op
    per_cycle = first[1] - first[0]
    typical_cycle = sum(
        typical(durations[offset::per_cycle]) for offset in range(per_cycle)
    )
    cycle_points = int(points[:per_cycle].sum())
    metrics["ledger.ladder_residual_share"] = residual_share(
        metrics["points_per_s"], 1e6 * typical_cycle / cycle_points
    )
    rungs.done()


def durable_ladder(run, outcome, window, load: FleetLoad, warmed: dict, engine, next_op: int) -> None:
    """``engine`` is the recovered session; the ladder closes it."""
    rungs = Rungs(run)
    metrics = outcome.metrics
    counts = outcome.counts
    scale = run.scale
    keys = load.keys
    root = run.tmp / "store"
    try:
        blocks = _blocks(load, 0, rungs.blocks + 1)
        plain, metrics["core.fleet.update_block_us_per_point"] = _core_and_engine(
            rungs, metrics, warmed, keys, blocks
        )
        wal_added = _wal_rungs(rungs, metrics, run.tmp, keys, blocks[1:], fsync=True)
        points = blocks[0].size
        durable = 1e6 * typical(window.durations()) / points
        metrics["durability.wal_self_us_per_point"] = durable - plain
        metrics["durability.wal_bytes_per_point"] = counts["wal_tail_bytes"] / (scale.tail_ops * points)
        metrics["durability.segment_bytes_per_series"] = counts["segment_bytes"] / load.n
        cohort = engine.checkpoint_cohort_size
        metrics["durability.format.encode_segment_ms_per_cohort"] = 1e3 * median(
            rungs.time(
                "encode_segment",
                [lambda: encode_segment({key: warmed[key] for key in keys[:cohort]})] * 5,
            )
        )
        # One dirty cohort: advance only the first cohort's keys.
        engine.checkpoint()
        one_cohort = []
        for offset in range(3):
            engine.ingest_grid(keys[:cohort], load.op(next_op + offset)[:, :cohort])
            one_cohort.append(rungs.once("checkpoint(one cohort)", engine.checkpoint)[0])
        metrics["durability.checkpoint_one_cohort_s"] = median(one_cohort)
        # Recovery with nothing to replay is the load; the rest is replay.
        engine.close(checkpoint=True)
        load_s, engine = rungs.once(
            "open(empty WAL)",
            lambda: MultiSeriesEngine.open(DirectoryCheckpointStore(root, wal_sync=True, exclusive=True)),
        )
        metrics["durability.recovery_load_s"] = load_s
        metrics["durability.recovery_replay_us_per_point"] = (
            1e6 * (metrics["recovery_s"] - load_s) / (scale.tail_ops * points)
        )
        metrics["core.oneshotstl.initialize_ms_per_series"] = _initialize_ms(
            rungs, load, load.sample_columns(8, 0)
        )
        # Explained: plain ingest, what the WAL adds, and the checkpoint
        # every `checkpoint_every` operations.
        checkpoint_us = 1e6 * metrics["checkpoint_s"] / (scale.checkpoint_every * points)
        metrics["ledger.ladder_residual_share"] = residual_share(
            metrics["points_per_s"], plain + wal_added + checkpoint_us
        )
    finally:
        engine.close(checkpoint=False)
        rungs.done()


def sharded_ladder(run, outcome, window, load: FleetLoad, cluster, next_op: int, worker_cpu: float) -> None:
    rungs = Rungs(run)
    metrics = outcome.metrics
    keys = load.keys
    shard_ids = [shard.shard_id for shard in cluster.shards]
    ring = ConsistentHashRing(shard_ids, virtual_nodes=cluster.virtual_nodes)
    parts = ring.assignments(keys)
    assign_s = rungs.time("ConsistentHashRing.assignments", [lambda: ring.assignments(keys)] * rungs.blocks)
    metrics["sharding.hashring.assignments_us_per_key"] = _us_per_point(assign_s, len(keys))
    sizes = [len(positions) for positions in parts.values()]
    metrics["sharding.shard_skew"] = max(sizes) / (sum(sizes) / len(sizes))

    # In-process twin of the largest shard, recovered from its own store.
    largest = max(parts, key=lambda shard_id: len(parts[shard_id]))
    columns = np.asarray(parts[largest], dtype=np.intp)
    shard_keys = [keys[column] for column in columns]
    engine = MultiSeriesEngine.open(
        DirectoryCheckpointStore(cluster.shard(largest).store_path, exclusive=True)
    )
    try:
        warmed = engine.snapshot()
        blocks = _blocks(load, next_op, rungs.blocks + 1, columns)
        _plain, metrics["core.fleet.update_block_us_per_point"] = _core_and_engine(
            rungs, metrics, warmed, shard_keys, blocks
        )
        _wal_rungs(rungs, metrics, run.tmp, shard_keys, blocks[1:], fsync=False)
        durable_s = rungs.time(
            "ingest_grid(durable, largest shard)",
            [lambda b=block: engine.ingest_grid(shard_keys, b) for block in blocks],
        )
        reply = engine.ingest_grid(shard_keys, _blocks(load, next_op + len(blocks), 1, columns)[0])
    finally:
        engine.close(checkpoint=False)
    points = blocks[0].size
    router_p50 = typical(window.durations())
    metrics["sharding.router.overhead_ms_per_batch"] = 1e3 * (router_p50 - typical(durable_s))
    metrics["sharding.worker_cpu_share"] = worker_cpu / window.cpu_seconds

    # Pipe traffic, *computed*: the ledger pickles what the router and a
    # worker would send each other for this slice, it does not tap the pipe.
    message = ("ingest", (shard_keys, blocks[0]))
    answer = (
        "ok",
        tuple(
            getattr(reply, name)
            for name in (
                "index",
                "value",
                "trend",
                "seasonal",
                "residual",
                "anomaly_score",
                "is_anomaly",
                "detection_residual",
                "live",
            )
        ),
    )
    sent = [pickle.dumps(message), pickle.dumps(answer)]
    pickle_s = rungs.time(
        "pickle(message + reply)",
        [lambda: [pickle.loads(pickle.dumps(part)) for part in (message, answer)]] * rungs.blocks,
    )
    metrics["sharding.pipe_bytes_per_point"] = sum(map(len, sent)) / points
    metrics["sharding.pipe_pickle_us_per_point"] = _us_per_point(pickle_s, points)

    policy = RetryPolicy()
    calls = 2000
    bare_s = rungs.time("no-op", [lambda: [_noop() for _ in range(calls)]] * 5)
    wrapped_s = rungs.time("RetryPolicy.call(no-op)", [lambda: [policy.call(_noop) for _ in range(calls)]] * 5)
    metrics["faults.retry.call_overhead_us"] = 1e6 * (typical(wrapped_s) - typical(bare_s)) / calls
    metrics["core.oneshotstl.initialize_ms_per_series"] = _initialize_ms(
        rungs, load, load.sample_columns(8, 0)
    )
    # The router's own rung is the window, so the ladder explains a batch
    # up to its p50, plus the checkpoint every `checkpoint_every` batches.
    batch = window.points[0]
    checkpoint_us = 1e6 * metrics["checkpoint_s"] / (run.scale.checkpoint_every * batch)
    metrics["ledger.ladder_residual_share"] = residual_share(
        metrics["points_per_s"], 1e6 * router_p50 / batch + checkpoint_us
    )
    rungs.done()


def _noop() -> None:
    return None


def served_ladder(run, outcome, window, load: FleetLoad, engine, next_op: int, reader, idle_health) -> None:
    """``engine`` is the server's store, reopened in this process."""
    rungs = Rungs(run)
    metrics = outcome.metrics
    keys = load.keys
    count = rungs.blocks
    warmed = engine.snapshot()
    blocks = _blocks(load, next_op, 3 * count + 2)
    points = blocks[0].size
    _plain, metrics["core.fleet.update_block_us_per_point"] = _core_and_engine(
        rungs, metrics, warmed, keys, blocks[: count + 1]
    )
    _wal_rungs(rungs, metrics, run.tmp, keys, blocks[1 : count + 1], fsync=False)

    bodies = []
    encode_s = rungs.time("encode_grid", [lambda b=b: bodies.append(encode_grid(keys, b)) for b in blocks[:count]])
    decode_s = rungs.time("decode_grid", [lambda body=body: decode_grid(body) for body in bodies])
    app = ServingApp(EngineBackend(engine))
    replies = []
    handle_s = rungs.time(
        "ServingApp.handle(/v1/ingest)",
        [lambda body=body: replies.append(app.handle(Request.post("/v1/ingest", body))) for body in bodies],
    )
    backend = EngineBackend(engine)
    backend_s = rungs.time(
        "EngineBackend.ingest",
        [lambda b=b: backend.ingest(keys, b, False) for b in blocks[count : 2 * count]],
    )
    summaries = []
    decode_summary_s = rungs.time(
        "decode_summary", [lambda r=r: summaries.append(decode_summary(r.body)) for r in replies]
    )
    encode_summary_s = rungs.time("encode_summary", [lambda s=s: encode_summary(s) for s in summaries])
    # The ring only does work on anomalies: feed it a batch that has some.
    spiked = blocks[2 * count].copy()
    spiked[-1, :: max(1, load.n // 50)] += 3.0
    result = engine.ingest_grid(keys, spiked)
    ring = AnomalyRing()
    ring_s = rungs.time("AnomalyRing.extend_from_result", [lambda: ring.extend_from_result(keys, result)] * count)

    handle = _us_per_point(handle_s, points)
    request_p50 = typical(window.durations())
    metrics.update(
        {
            "serving.protocol.encode_grid_us_per_point": _us_per_point(encode_s, points),
            "serving.protocol.decode_grid_us_per_point": _us_per_point(decode_s, points),
            "serving.protocol.encode_summary_us_per_key": _us_per_point(encode_summary_s, load.n),
            "serving.protocol.decode_summary_us_per_key": _us_per_point(decode_summary_s, load.n),
            # bodies only: HTTP request and status lines are not counted
            "serving.wire_bytes_per_point": (len(bodies[0]) + len(replies[0].body)) / points,
            "serving.app.handle_us_per_point": handle,
            "serving.app.self_us_per_point": handle - _us_per_point(backend_s, points),
            "serving.app.ring_extend_us_per_anomaly": 1e6
            * median(ring_s)
            / max(1, int(result.is_anomaly.sum())),
            "serving.server.self_us_per_point": 1e6 * request_p50 / points - handle,
            "serving.server.idle_health_ms_p50": 1e3 * median(idle_health),
        }
    )
    reads = reader.reads
    for kind in ("health", "stats", "forecast", "anomalies"):
        waits = [answered - due for read_kind, due, _sent, answered, _ok in reads if read_kind == kind]
        if waits:
            metrics[f"serving.read.{kind}_ms_p50"] = 1e3 * median(waits)
    metrics["serving.read.late_ms_p50"] = 1e3 * median([sent - due for _k, due, sent, _a, _ok in reads])
    metrics["serving.read.answered_share"] = sum(read[4] for read in reads) / len(reads)
    metrics["serving.rejected_503"] = reader.refused + outcome.counts.get("writer_503", 0)
    metrics["core.oneshotstl.initialize_ms_per_series"] = _initialize_ms(
        rungs, load, load.sample_columns(8, 0)
    )
    # The top rung is the writer's own request, so the ladder explains a
    # request up to its p50; the residual is what the paced reader and
    # the gaps between requests take out of the median segment rate.
    metrics["ledger.ladder_residual_share"] = residual_share(
        metrics["points_per_s"], 1e6 * request_p50 / points
    )
    rungs.done()
