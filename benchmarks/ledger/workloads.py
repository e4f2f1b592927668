"""The seven workloads.

Each function drives one public entry point of the system in a closed
loop with one batch in flight, for the timed window, then checks the
outputs.  The end-to-end numbers come from the window alone; the
per-layer numbers of a ``--traced`` run come from :mod:`ladder`, which
each workload calls after its window with what the ladder needs (a
warmed state, the batches the window used).

Why each workload exists is recorded next to its name in
``BENCHMARK.json`` and in the README's workload table.
"""

from __future__ import annotations

import copy
import gc
import os
import signal
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core import OneShotSTL
from repro.durability import DirectoryCheckpointStore
from repro.metrics import mae
from repro.serving import ServingClient, ServingError
from repro.sharding import ClusterSpec, ShardRouter
from repro.streaming.engine import MultiSeriesEngine

import ladder
from checks import (
    OutputLog,
    Verdict,
    arrays_equal,
    f1_score,
    scalar_replay,
    sha256_arrays,
)
from load import (
    BATCH_ROUNDS,
    INIT_ROUNDS,
    MIXED_CYCLE_ROUNDS,
    MIXED_PROCESS_KEYS,
    MIXED_READS,
    PERIOD,
    TIMED_START,
    FleetLoad,
    Scale,
    paper_series,
)
from measure import (
    Tracer,
    Window,
    clock,
    median,
    peak_rss_mb,
    process_cpu_seconds,
)

SRC = Path(__file__).resolve().parents[2] / "src"
SAMPLED_KEYS = 8


@dataclass
class Run:
    """What one workload invocation is given."""

    scale: Scale
    seed: int
    seconds: float
    tracer: Tracer | None
    #: scratch directory of this run, removed by the caller on every path
    tmp: Path
    #: perf_counter at process start: set-up time counts from here
    started: float


@dataclass
class Outcome:
    """What one workload invocation reports."""

    metrics: dict = field(default_factory=dict)
    #: exact per-seed values: operation and point counts, digests
    counts: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)


def _finish(run: Run, window: Window, verdict: Verdict, outcome: Outcome, setup_s: float, failed_ops: int = 0) -> Outcome:
    """Fill in the metrics every workload reports."""
    durations = window.durations()
    outcome.attempted = window.ops + verdict.attempted + outcome.attempted
    outcome.failed = failed_ops + len(verdict.failures) + outcome.failed
    outcome.failures.extend(verdict.failures)
    outcome.metrics.update(
        {
            "points_per_s": window.points_per_s(),
            "cpu_us_per_point": window.cpu_us_per_point(),
            "latency_p50_ms": window.latency_ms(50),
            "latency_p90_ms": window.latency_ms(90),
            "failed_share": outcome.failed / outcome.attempted,
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb(),
        }
    )
    outcome.counts.update(
        {
            "latency_samples": int(durations.size),
            "window_points": int(sum(window.points)),
            "window_s": window.closed - window.opened,
            "segment_points_per_s": [round(rate) for rate in window.segment_rates()],
        }
    )
    if run.tracer is not None:
        outcome.metrics["ledger.trace_overhead_share"] = window.trace_overhead_share()
    return outcome


def _engine() -> MultiSeriesEngine:
    return MultiSeriesEngine.for_oneshotstl(PERIOD)


def _warm(ingest_grid, load: FleetLoad) -> None:
    """Initialise and warm a fleet through any ``ingest_grid`` callable."""
    ingest_grid(load.keys, load.rounds(0, INIT_ROUNDS))
    ingest_grid(load.keys, load.rounds(INIT_ROUNDS, TIMED_START))


def _sample(load: FleetLoad, scale: Scale) -> tuple[list[int], list[str]]:
    columns = load.sample_columns(SAMPLED_KEYS, scale.check_ops)
    return columns, [load.keys[column] for column in columns]


def _check_fleet_outputs(verdict: Verdict, log: OutputLog, load: FleetLoad, ops: int, outcome: Outcome) -> None:
    """Digest plus scalar replay of the sampled keys over ``ops`` batches."""
    digest, series = log.settle()
    outcome.counts["output_digest"] = digest
    column_of = {key: index for index, key in enumerate(load.keys)}
    verdict.replay_matches(
        series,
        lambda key: load.column_series(column_of[key], ops),
        ops * BATCH_ROUNDS,
    )


def _expected_points(load: FleetLoad, timed_ops: int) -> int:
    return (TIMED_START + timed_ops * BATCH_ROUNDS) * load.n


# --------------------------------------------------------------- paper_scalar


def paper_scalar(run: Run) -> Outcome:
    """``OneShotSTL.update`` one point at a time (the paper's own claim)."""
    scale = run.scale
    outcome = Outcome()
    verdict = Verdict()
    errors = {}
    init_seconds = []
    for name in ("syn1", "syn2"):
        data = paper_series(name, scale, run.seed)
        period = data.period
        model = OneShotSTL(period)
        start = clock()
        model.initialize(data.values[: 4 * period])
        init_seconds.append(clock() - start)
        points = [model.update(value) for value in data.values[4 * period :]]
        online = slice(4 * period, None)
        errors[f"{name}_trend"] = mae(data.trend[online], [p.trend for p in points])
        errors[f"{name}_seasonal"] = mae(data.seasonal[online], [p.seasonal for p in points])
    outcome.metrics["decomp_mae"] = float(np.mean(list(errors.values())))
    syn1 = paper_series("syn1", scale, run.seed)

    # Figure 7 protocol: Syn1 repeated for as long as the window lasts.
    period = syn1.period
    stream = syn1.values
    model = OneShotSTL(period)
    model.initialize(stream[: 4 * period])
    position = 4 * period
    for _ in range(2 * period):  # past the solver's dense warm-up
        model.update(stream[position % stream.size])
        position += 1
    first_timed = position
    gc.collect()
    setup_s = clock() - run.started

    window = Window(run.seconds, scale.min_ops, run.tracer)
    kept = []
    keep = scale.check_ops * BATCH_ROUNDS
    # One lap of the series per cycle: shift searches cluster around its
    # trend breaks, so shorter stretches are not alike -- and from the
    # same warmed model every time, because laps get dearer as the seams
    # of the repetition pile up in the model's state.
    warmed = copy.deepcopy(model)

    def rewind() -> None:
        nonlocal model, position
        model = copy.deepcopy(warmed)
        position = first_timed

    window.start()
    while window.open_cycle():
        if kept:
            window.skip(rewind)
        for _ in range(stream.size):
            value = stream[position % stream.size]
            start = clock()
            point = model.update(value)
            end = clock()
            window.add("update", start, end, 1)
            if len(kept) < keep:
                kept.append(point)
            position += 1

    # The scalar model and the engine's one-series path are one code path
    # wrapped twice; the first timed points must agree exactly.
    indices = np.arange(first_timed + keep) % stream.size
    expected = scalar_replay(stream[indices], first_timed, period=period)
    for name in ("trend", "seasonal", "residual"):
        verdict.check(
            f"engine.process matches OneShotSTL.update ({name})",
            arrays_equal(np.array([getattr(p, name) for p in kept]), expected[name]),
        )
    outcome.counts["output_digest"] = sha256_arrays(
        [np.array([getattr(p, name) for p in kept]) for name in ("trend", "seasonal", "residual")]
        + [np.array([errors[name] for name in sorted(errors)])]
    )
    verdict.check("decomposition errors are finite", bool(np.isfinite(list(errors.values())).all()))

    _finish(run, window, verdict, outcome, setup_s)
    if run.tracer is not None:
        durations = window.durations()
        outcome.metrics.update(
            {
                **ladder.update_percentiles(durations),
                "core.oneshotstl.initialize_ms_per_series": 1e3 * median(init_seconds),
                **{f"core.oneshotstl.{name}_mae": value for name, value in errors.items()},
                # one layer, one rung: what the mean update leaves of the
                # end-to-end cost per point is loop and clock overhead
                "ledger.ladder_residual_share": ladder.residual_share(
                    outcome.metrics["points_per_s"], 1e6 * float(durations.mean())
                ),
            }
        )
    return outcome


# ---------------------------------------------------- in-process fleet family


def fleet_clean(run: Run) -> Outcome:
    """Full-width ``ingest_grid`` on a clean fleet: the kernel's workload."""
    return _fleet_grid(run, "clean")


def fleet_anomalous(run: Run) -> Outcome:
    """Same engine and batches, with spikes and phase shifts injected."""
    return _fleet_grid(run, "anomalous")


def _fleet_grid(run: Run, kind: str) -> Outcome:
    scale = run.scale
    outcome = Outcome()
    verdict = Verdict()
    load = FleetLoad(run.seed, scale.series, kind)
    engine = _engine()
    _warm(engine.ingest_grid, load)
    clean = kind == "clean"
    # Spikes leave lasting marks (a spiked series ends up flagged once a
    # period for good), so an anomalous fleet gets dearer the longer it
    # runs.  It is therefore rewound to its warmed state every
    # `anomalous_ops` batches: every cycle is the same work, whatever the
    # window's length or the machine's speed.
    warmed = engine.snapshot() if run.tracer is not None or not clean else None
    if not clean:
        engine.restore(warmed)  # so that the first cycle starts like the others
    gc.collect()
    setup_s = clock() - run.started

    _columns, sample_keys = _sample(load, scale)
    log = OutputLog(sample_keys)
    window = Window(run.seconds, scale.min_ops, run.tracer)
    keys = load.keys
    flagged = []
    ops = index = 0
    window.start()
    while window.open_cycle():
        if not clean and ops:
            window.skip(lambda: engine.restore(warmed))
            index = 0
        for _ in range(1 if clean else scale.anomalous_ops):
            block = load.op(index)
            start = clock()
            result = engine.ingest_grid(keys, block)
            end = clock()
            window.add("ingest_grid", start, end, block.size)
            if ops < scale.check_ops:
                log.keep(result)
            if not clean and ops < scale.anomalous_ops:
                flagged.append(result.is_anomaly)
            index += 1
            ops += 1

    _check_fleet_outputs(verdict, log, load, scale.check_ops, outcome)
    stats = engine.fleet_stats()
    verdict.equal("points conserved", stats.points_total, _expected_points(load, index))
    outcome.counts["ops"] = ops

    if not clean:
        # Scored on the first cycle: every run completes it.
        flags = np.concatenate(flagged)
        labels = np.concatenate(
            [load.spike_labels(op).reshape(-1) for op in range(scale.anomalous_ops)]
        )
        outcome.metrics["anomaly_f1"] = f1_score(flags, labels)
        outcome.counts["flagged_points"] = int(flags.sum())
        outcome.counts["injected_spikes"] = int(labels.sum())

    _finish(run, window, verdict, outcome, setup_s)
    if run.tracer is not None:
        ladder.fleet_ladder(run, outcome, window, load, warmed, kind)
    return outcome


def fleet_mixed_forms(run: Run) -> Outcome:
    """Every public ingest form and two reads, in a fixed cycle.

    One cycle advances every series :data:`MIXED_CYCLE_ROUNDS` rounds
    through six phases; an *operation* is one call of a phase (the 80
    ``process`` calls and each group of 20 reads count as one).
    """
    scale = run.scale
    outcome = Outcome()
    verdict = Verdict()
    load = FleetLoad(run.seed, scale.series)
    engine = _engine()
    _warm(engine.ingest_grid, load)
    warmed = engine.snapshot() if run.tracer is not None else None
    gc.collect()
    setup_s = clock() - run.started

    n = load.n
    keys = load.keys
    quarter = n // 4
    quarters = [slice(part * quarter, n if part == 3 else (part + 1) * quarter) for part in range(4)]
    process_count = min(MIXED_PROCESS_KEYS, n // 2)
    _columns, sample_keys = _sample(load, scale)
    log = OutputLog(sample_keys)
    # The checked prefix must cover whole cycles, in whole batches.
    check_cycles = -(-scale.check_ops * BATCH_ROUNDS // MIXED_CYCLE_ROUNDS)
    min_ops = max(scale.min_ops, 12 * check_cycles)
    window = Window(run.seconds, min_ops, run.tracer)
    nan_cells = {}
    round_now = TIMED_START
    cycle = 0

    def values(rounds: int) -> np.ndarray:
        """The next ``rounds`` rounds of the stream, full width."""
        nonlocal round_now
        block = load.rounds(round_now, round_now + rounds)
        round_now += rounds
        return block

    def timed(name: str, points: int, call, *arguments):
        start = clock()
        result = call(*arguments)
        end = clock()
        window.add(name, start, end, points)
        if cycle < check_cycles:
            log.keep(result)
        return result

    window.start()
    while window.open_cycle():
        # (a) 16 rounds as four quarter-width grids
        block = values(16)
        for part in quarters:
            timed(
                "subset",
                16 * (part.stop - part.start),
                engine.ingest_grid,
                keys[part],
                np.ascontiguousarray(block[:, part]),
            )
        # (b) 8 rounds as a {key: values} dict
        block = values(8)
        timed("dict", block.size, engine.ingest_columnar, dict(zip(keys, block.T)))
        # (c) 4 rounds as (key, value) rows, records out
        block = values(4)
        rows = [(key, value) for row in block.tolist() for key, value in zip(keys, row)]
        timed("rows", block.size, engine.ingest, rows)
        # (d) 8 rounds full width, two of them with missing cells
        block = values(8)
        rng = np.random.default_rng([run.seed, 2, cycle])
        holes = rng.choice(n, size=max(1, n // 100), replace=False)
        block[2, holes] = block[5, holes] = np.nan
        nan_cells[cycle] = holes
        timed("nan_grid", block.size, engine.ingest_grid, keys, block)
        # (e) 8 rounds as two 4-round grids under one group commit
        block = values(8)
        timed("ingest_many", block.size, engine.ingest_many, [(keys, block[:4]), (keys, block[4:])])
        # (f) 4 rounds: single values for a few keys, a grid for the rest
        block = values(4)
        singles = [
            (keys[column], value)
            for row in block[:, :process_count].tolist()
            for column, value in enumerate(row)
        ]
        timed("process", len(singles), lambda: [engine.process(key, value) for key, value in singles])
        timed(
            "subset_rest",
            4 * (n - process_count),
            engine.ingest_grid,
            keys[process_count:],
            np.ascontiguousarray(block[:, process_count:]),
        )
        # reads beside the writes
        read_keys = [keys[(cycle * MIXED_READS + offset) % n] for offset in range(MIXED_READS)]
        start = clock()
        stats = [engine.series_stats(key) for key in read_keys]
        middle = clock()
        forecasts = [engine.forecast(key, PERIOD) for key in read_keys]
        end = clock()
        window.add("series_stats", start, middle, 0)
        window.add("forecast", middle, end, 0)
        if cycle < check_cycles:
            expected_points = round_now
            verdict.check(
                f"reads of cycle {cycle}",
                all(item.points == expected_points for item in stats)
                and all(np.isfinite(item).all() and item.shape == (PERIOD,) for item in forecasts),
            )
        cycle += 1

    # Scalar replay: per key, the phases hand back rows in different
    # orders (phase f serves its single-value keys before the rest), but
    # each key's own rows stay in time order -- which is all settle()
    # relies on.
    digest, series = log.settle()
    outcome.counts["output_digest"] = digest
    checked_rounds = check_cycles * MIXED_CYCLE_ROUNDS
    stream = load.rounds(0, TIMED_START + checked_rounds)
    for index in range(check_cycles):
        base = TIMED_START + index * MIXED_CYCLE_ROUNDS + 28
        stream[base + 2, nan_cells[index]] = np.nan
        stream[base + 5, nan_cells[index]] = np.nan
    column_of = {key: index for index, key in enumerate(keys)}
    verdict.replay_matches(series, lambda key: stream[:, column_of[key]], checked_rounds)
    stats = engine.fleet_stats()
    verdict.equal("points conserved", stats.points_total, round_now * n)
    outcome.counts["cycles"] = cycle

    _finish(run, window, verdict, outcome, setup_s)
    if run.tracer is not None:
        ladder.mixed_ladder(run, outcome, window, load, warmed)
    return outcome


# ------------------------------------------------------------ durable_session


def _ingest_with_checkpoints(window: Window, scale: Scale, load: FleetLoad, log: OutputLog, name: str, ingest_grid, checkpoint):
    """The window of the two durable workloads: cycles of
    ``checkpoint_every`` batches and one checkpoint.

    Returns ``(batches run, seconds of each checkpoint, what each returned)``.
    """
    keys = load.keys
    seconds, returned = [], []
    index = 0
    while window.open_cycle():
        for _ in range(scale.checkpoint_every):
            block = load.op(index)
            start = clock()
            result = ingest_grid(keys, block)
            end = clock()
            window.add(name, start, end, block.size)
            if index < scale.check_ops:
                log.keep(result)
            index += 1
        start = clock()
        returned.append(checkpoint())
        end = clock()
        window.add_work("checkpoint", start, end)
        seconds.append(end - start)
    return index, seconds, returned


def _store(path: Path, wal_sync: bool) -> DirectoryCheckpointStore:
    return DirectoryCheckpointStore(path, wal_sync=wal_sync, exclusive=True)


def durable_session(run: Run) -> Outcome:
    """``fleet_clean`` plus WAL, fsync, checkpoints and a timed recovery."""
    scale = run.scale
    outcome = Outcome()
    verdict = Verdict()
    load = FleetLoad(run.seed, scale.series)
    root = run.tmp / "store"
    store = _store(root, wal_sync=True)
    engine = MultiSeriesEngine.open(store, _engine().spec)
    _warm(engine.ingest_grid, load)
    warmed = engine.snapshot() if run.tracer is not None else None
    gc.collect()
    setup_s = clock() - run.started

    _columns, sample_keys = _sample(load, scale)
    log = OutputLog(sample_keys)
    window = Window(run.seconds, scale.min_ops, run.tracer)
    keys = load.keys
    window.start()
    index, checkpoint_seconds, summaries = _ingest_with_checkpoints(
        window, scale, load, log, "ingest_grid", engine.ingest_grid, engine.checkpoint
    )
    verdict.check(
        "every checkpoint wrote every cohort",
        all(summary.cohorts_written == summary.cohorts_total for summary in summaries),
    )

    # A fixed WAL tail, then a crash-style close and a timed recovery.
    for _ in range(scale.tail_ops):
        engine.ingest_grid(keys, load.op(index))
        index += 1
    wal_bytes = sum(store.wal_tail(name)[2] for name in store.list_wals())
    segment_bytes = sum(len(store.read_segment(name)) for name in store.list_segments())
    engine.close(checkpoint=False)
    start = clock()
    engine = MultiSeriesEngine.open(_store(root, wal_sync=True))
    recovery_s = clock() - start
    if run.tracer is not None:
        run.tracer.add("recovery", start, start + recovery_s)
    try:
        verdict.check("recovery was clean", engine.last_recovery is None or engine.last_recovery.clean)
        verdict.equal(
            "points conserved across recovery",
            engine.fleet_stats().points_total,
            _expected_points(load, index),
        )
        _check_fleet_outputs(verdict, log, load, scale.check_ops, outcome)
        outcome.metrics["checkpoint_s"] = median(checkpoint_seconds)
        outcome.metrics["recovery_s"] = recovery_s
        outcome.counts.update(
            ops=index,
            checkpoints=len(checkpoint_seconds),
            wal_tail_bytes=wal_bytes,
            segment_bytes=segment_bytes,
        )
        _finish(run, window, verdict, outcome, setup_s)
        if run.tracer is not None:
            ladder.durable_ladder(run, outcome, window, load, warmed, engine, index)
    finally:
        engine.close(checkpoint=False)
    return outcome


# ------------------------------------------------------------ sharded_cluster

CLUSTER_WORKERS = 2


def sharded_cluster(run: Run) -> Outcome:
    """Two durable worker processes behind a ``ShardRouter``."""
    scale = run.scale
    outcome = Outcome()
    verdict = Verdict()
    load = FleetLoad(run.seed, CLUSTER_WORKERS * scale.series)
    cluster = ClusterSpec.for_root(_engine().spec, run.tmp / "cluster", CLUSTER_WORKERS)
    router = ShardRouter(cluster)
    try:
        _warm(router.ingest_grid, load)
        gc.collect()
        setup_s = clock() - run.started

        _columns, sample_keys = _sample(load, scale)
        log = OutputLog(sample_keys)
        window = Window(run.seconds, scale.min_ops, run.tracer)
        keys = load.keys
        worker_pids = [health.pid for health in router.health().values()]
        worker_cpu = -sum(map(process_cpu_seconds, worker_pids))
        window.start(worker_pids)
        index, checkpoint_seconds, _ = _ingest_with_checkpoints(
            window, scale, load, log, "router.ingest_grid", router.ingest_grid, router.checkpoint
        )
        worker_cpu += sum(map(process_cpu_seconds, worker_pids))

        for _ in range(scale.tail_ops):
            router.ingest_grid(keys, load.op(index))
            index += 1
        # Crash one worker the way an operator would see it: pid from the
        # public health report, SIGKILL, then an explicit failover.
        victim, health = sorted(router.health().items())[0]
        expected_on_victim = health.points_confirmed
        os.kill(health.pid, signal.SIGKILL)
        report = router.failover(victim)
        if run.tracer is not None:
            end = clock()
            run.tracer.add("failover", end - report.duration_seconds, end)
        verdict.equal("failover recovered every confirmed point", report.recovered_points, expected_on_victim)
        verdict.equal(
            "points conserved across failover",
            router.stats().points_total,
            _expected_points(load, index),
        )
        _check_fleet_outputs(verdict, log, load, scale.check_ops, outcome)
        outcome.metrics["checkpoint_s"] = median(checkpoint_seconds)
        outcome.metrics["recovery_s"] = report.duration_seconds
        outcome.counts.update(ops=index, checkpoints=len(checkpoint_seconds))
        router.close(checkpoint=True)
        _finish(run, window, verdict, outcome, setup_s)
        if run.tracer is not None:
            ladder.sharded_ladder(run, outcome, window, load, cluster, index, worker_cpu)
    finally:
        router.close(checkpoint=False)
    return outcome


# --------------------------------------------------------------- served_http

SERVER_THREADS = 4
READ_KINDS = ("health", "stats", "forecast", "anomalies")


class _Server:
    """A real ``python -m repro.serving`` subprocess on a fresh store."""

    def __init__(self, store: Path):
        environment = dict(os.environ)
        environment["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), environment.get("PYTHONPATH")])
        )
        self.process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.serving",
                "--store",
                str(store),
                "--period",
                str(PERIOD),
                "--port",
                "0",
                "--workers",
                str(SERVER_THREADS),
            ],
            env=environment,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        ready = self.process.stdout.readline()
        if "ready on http://" not in ready:
            self.kill()
            raise RuntimeError(f"server did not come up: {ready!r} {self.process.stderr.read()}")
        self.port = int(ready.rsplit(":", 1)[1])

    def terminate(self) -> int:
        """SIGTERM and reap: a drained shutdown exits 0."""
        self.process.send_signal(signal.SIGTERM)
        return self.process.wait(timeout=120)

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        for stream in (self.process.stdout, self.process.stderr):
            stream.close()


class _Reader(threading.Thread):
    """Connection 2: an open loop of reads, each timed from when it was due."""

    def __init__(self, port: int, keys: list[str], hertz: float):
        super().__init__(name="ledger-reader")
        self.port = port
        self.keys = keys
        self.period = 1.0 / hertz
        self.stop = threading.Event()
        #: (kind, due, sent, answered, ok)
        self.reads: list[tuple] = []
        self.refused = 0

    def _read(self, client: ServingClient, kind: str, turn: int) -> bool:
        key = self.keys[(turn * 37) % len(self.keys)]
        if kind == "health":
            return client.health()["http_status"] == 200
        if kind == "stats":
            return client.series_stats(key)["key"] == key
        if kind == "forecast":
            return client.forecast(key, PERIOD).shape == (PERIOD,)
        listing = client.anomalies(limit=10, sort="-index")
        cursor = listing["page"]["next_cursor"]
        if cursor is not None:
            client.anomalies(limit=10, sort="-index", cursor=cursor)
        return len(listing["items"]) > 0

    def run(self) -> None:
        origin = clock()
        turn = 0
        with ServingClient("127.0.0.1", self.port, timeout=60.0) as client:
            while True:
                due = origin + turn * self.period
                if self.stop.wait(max(0.0, due - clock())):
                    return
                kind = READ_KINDS[turn % len(READ_KINDS)]
                sent = clock()
                try:
                    ok = self._read(client, kind, turn)
                except ServingError as error:
                    ok = False
                    self.refused += error.status == 503
                except OSError:
                    ok = False
                self.reads.append((kind, due, sent, clock(), ok))
                turn += 1


def served_http(run: Run) -> Outcome:
    """One RCW1 writer and one paced reader against a real server process."""
    scale = run.scale
    outcome = Outcome()
    verdict = Verdict()
    load = FleetLoad(run.seed, scale.series, "warm_spiked")
    store = run.tmp / "served"
    server = _Server(store)
    reader = None
    try:
        keys = load.keys
        with ServingClient("127.0.0.1", server.port, timeout=120.0) as writer:
            _warm(writer.ingest, load)
            idle_health = []
            for _ in range(20):
                start = clock()
                health = writer.health()
                idle_health.append(clock() - start)
            verdict.check("warm-up filled the anomaly ring", health["anomalies_seen"] > 0)
            gc.collect()
            setup_s = clock() - run.started

            columns, sample_keys = _sample(load, scale)
            summaries = []
            acknowledged = TIMED_START * load.n
            failed_ops = refused = 0
            index = 0
            window = Window(run.seconds, scale.min_ops, run.tracer)
            reader = _Reader(server.port, keys, scale.read_hz)
            window.start([server.process.pid])
            reader.start()
            while window.open_cycle():
                block = load.op(index)
                start = clock()
                try:
                    summary = writer.ingest(keys, block)
                except ServingError as error:
                    summary = None
                    refused += error.status == 503
                end = clock()
                window.add("client.ingest", start, end, block.size)
                if summary is None or not summary.complete or summary.rows != block.size:
                    failed_ops += 1
                else:
                    acknowledged += summary.rows
                    if index < scale.check_ops:
                        summaries.append(summary)
                index += 1
            reader.stop.set()
            reader.join(timeout=60)
            verdict.check("reader thread ended", not reader.is_alive())

        exit_code = server.terminate()
        verdict.equal("SIGTERM drained to exit code", exit_code, 0)
        engine = MultiSeriesEngine.open(_store(store, wal_sync=False))
        try:
            verdict.equal(
                "reopened store holds every acknowledged point",
                engine.fleet_stats().points_total,
                acknowledged,
            )
            # The wire returns per-key summaries, not the decomposition:
            # the sampled keys' last score and anomaly count per request
            # must equal the scalar path's.
            checked = len(summaries)
            for column, key in zip(columns, sample_keys):
                expected = scalar_replay(load.column_series(column, checked), TIMED_START)
                scores = expected["anomaly_score"].reshape(checked, BATCH_ROUNDS)
                flags = expected["is_anomaly"].reshape(checked, BATCH_ROUNDS)
                verdict.check(
                    f"scalar replay of {key}",
                    arrays_equal([s.last_score[column] for s in summaries], scores[:, -1])
                    and [int(s.anomalies[column]) for s in summaries] == flags.sum(axis=1).tolist(),
                )
            outcome.counts["output_digest"] = sha256_arrays(
                array for s in summaries for array in (s.points, s.anomalies, s.last_score)
            )
            reads_ok = sum(read[4] for read in reader.reads)
            outcome.attempted = len(reader.reads)
            outcome.failed = len(reader.reads) - reads_ok
            outcome.counts.update(
                ops=index,
                reads=len(reader.reads),
                acknowledged_points=acknowledged,
                writer_503=int(refused),
            )
            _finish(run, window, verdict, outcome, setup_s, failed_ops)
            if run.tracer is not None:
                ladder.served_ladder(run, outcome, window, load, engine, index, reader, idle_health)
        finally:
            engine.close(checkpoint=False)
    finally:
        if reader is not None and reader.is_alive():
            reader.stop.set()
            reader.join(timeout=60)
        server.kill()
    return outcome
