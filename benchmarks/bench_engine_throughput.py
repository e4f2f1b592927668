"""Engine throughput: points/sec for 1, 100 and 1000 concurrent series.

The multi-series engine exists so that the O(1) update can be ran on
*every* monitored metric of a fleet.  This harness measures

* the raw single-series OneShotSTL hot path (shift search enabled with the
  paper's default ``shift_window = 20``, ``I = 8`` iterations) -- the
  number to compare across commits when the kernel changes,
* :class:`~repro.streaming.MultiSeriesEngine` throughput while multiplexing
  1, 100 and 1000 independent keyed series through batched row ``ingest``
  (large same-spec fleets take the columnar fleet-kernel path),
* the columnar ``ingest({key: values})`` form on the largest fleet, which
  skips the per-record Python tuples on the way in (checked to be at least
  as fast as the row form -- the input paths share every downstream cost),
* the fully columnar ``ingest_columnar({key: values})`` form -- arrays in,
  arrays out, records on demand -- which additionally skips the per-row
  ``EngineRecord`` construction that otherwise dominates large-fleet
  steady state (the kernel advances every planned round of a batch per
  call: whole blocks of rounds per array op),
* a group-growth micro-benchmark absorbing 500 series into a fleet kernel
  one at a time, whose two halves are compared to show the
  capacity-doubling absorption path is linear rather than quadratic,
* the durability rows on the largest fleet: time-blocked ``ingest_many``
  grid chunks with the write-ahead log on vs off (group commit journals
  the whole call in one fsync, so the WAL-on form must stay within
  ``WAL_INGEST_FLOOR`` of WAL-off throughput), and the latency of a full
  checkpoint (every cohort dirty) vs an incremental one (a single dirty
  cohort), whose ratio must reach ``CHECKPOINT_SPEEDUP_FLOOR`` -- the
  property that makes frequent checkpoints of a mostly-idle fleet cheap,
* the supervision row: the identical time-blocked ``ingest_many`` chunk
  stream driven directly vs through the sharding tier's
  :meth:`~repro.faults.RetryPolicy.call` wrapper -- the per-call
  bookkeeping a self-healing router adds on the success path -- whose
  throughput ratio must stay above ``SUPERVISED_INGEST_FLOOR``,
* the sharded rows: a 10,000-series fleet (1,000 under ``--smoke``)
  served through a :class:`~repro.sharding.ShardRouter` across
  ``SHARDED_WORKERS`` durable worker processes -- aggregate steady-state
  points/sec through the full columnar fan-out/fan-in IPC path (must
  reach ``SHARDED_COLUMNAR_FLOOR`` of the single-process 1000-series
  columnar number measured in the same run), plus the latency of
  failing over a SIGKILLed worker (lease takeover + manifest load +
  WAL replay), reported as ``failover_recovery_seconds``.

Reported throughput counts *steady-state online* points only: the
per-series batch initialization phase runs untimed, and a short online
warm-up is excluded on every configuration (the raw benchmark skips 50
points; the engine benchmarks skip ``ONLINE_WARMUP`` points, which also
covers the fleet kernel's absorption of freshly live series -- the
measured regime is the one a long-running monitor spends its life in).
Invoke directly for a standalone run::

    PYTHONPATH=src python benchmarks/bench_engine_throughput.py [--smoke]

``--smoke`` shrinks the stream lengths to a seconds-long run for quick
local iteration (it keeps a reduced 1000-series case so the large-fleet
kernel path is still exercised).  Note the perf-regression gate
(``check_perf_regression.py``) compares like with like and therefore
rejects smoke numbers: CI and baseline refreshes run the full workload.
"""

from __future__ import annotations

import math
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))

from repro.core import OneShotSTL
from repro.streaming import MultiSeriesEngine

from helpers import is_paper_scale, report, report_json

PERIOD = 24
INITIALIZATION = 4 * PERIOD
#: untimed online points per series before the timed engine measurement
#: (covers solver warm-up and fleet-kernel absorption).
ONLINE_WARMUP = 10

#: allowed columnar-input shortfall vs row input within one run (noise);
#: shared with check_perf_regression so the two CI steps enforce one policy.
INPUT_PATH_TOLERANCE = 0.10

#: one-at-a-time absorption halves ratio above this reads as quadratic
#: (a truly quadratic path measures ~4); shared with check_perf_regression.
ABSORB_RATIO_CEILING = 3.0

#: minimum WAL-on / WAL-off ingest throughput ratio: with group commit
#: (one write + fsync per ``ingest_many`` call) journaling must cost at
#: most a tenth of the throughput; shared with check_perf_regression so
#: the two CI steps enforce one policy.
WAL_INGEST_FLOOR = 0.9

#: minimum full-checkpoint / incremental-checkpoint latency ratio on a
#: 1000-series fleet with one dirty cohort; shared with
#: check_perf_regression.
CHECKPOINT_SPEEDUP_FLOOR = 5.0

#: minimum sharded aggregate throughput (the 10k-series fleet fanned out
#: across 4 worker processes) relative to the same run's single-process
#: 1000-series columnar ingest: the 10x-larger fleet's kernel
#: amortization must survive the fan-out/fan-in IPC hop even when the
#: workers time-slice one core; shared with check_perf_regression.
SHARDED_COLUMNAR_FLOOR = 1.0

#: minimum supervised / direct ingest throughput ratio: wrapping every
#: call in the sharding tier's RetryPolicy costs one generator and one
#: ``try`` frame on the success path, which must stay under 5% of
#: throughput; shared with check_perf_regression.
SUPERVISED_INGEST_FLOOR = 0.95

#: worker processes in the sharded benchmark
SHARDED_WORKERS = 4


def _series_values(length: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    time_axis = np.arange(length)
    return (
        np.sin(2 * np.pi * time_axis / PERIOD)
        + 0.01 * time_axis
        + rng.normal(0.0, 0.05, length)
    )


def _workload(smoke: bool):
    """(fleet sizes, online points per series for each fleet size)."""
    if smoke:
        return [1, 100, 1000], {1: 400, 100: 20, 1000: 8}
    if is_paper_scale():
        return [1, 100, 1000], {1: 10000, 100: 200, 1000: 50}
    return [1, 100, 1000], {1: 2000, 100: 60, 1000: 30}


def _bench_raw_single_series(online_points: int) -> dict:
    """Single OneShotSTL, no engine: the kernel hot-path number."""
    values = _series_values(INITIALIZATION + online_points + 50, seed=0)
    model = OneShotSTL(PERIOD)  # paper defaults: I=8, shift_window=20
    model.initialize(values[:INITIALIZATION])
    timed = values[INITIALIZATION + 50 :]
    for value in values[INITIALIZATION : INITIALIZATION + 50]:
        model.update(float(value))
    start = time.perf_counter()
    for value in timed:
        model.update(float(value))
    elapsed = time.perf_counter() - start
    return {
        "config": "raw OneShotSTL",
        "series": 1,
        "online_points": timed.size,
        "points_per_sec": timed.size / elapsed,
        "us_per_point": elapsed / timed.size * 1e6,
    }


def _warmed_engine(data: dict) -> MultiSeriesEngine:
    """Engine with every series initialized and past the online warm-up."""
    engine = MultiSeriesEngine.for_oneshotstl(PERIOD)
    for position in range(INITIALIZATION + ONLINE_WARMUP):
        engine.ingest([(key, values[position]) for key, values in data.items()])
    return engine


def _fleet_data(n_series: int, online_points: int) -> dict:
    length = INITIALIZATION + ONLINE_WARMUP + online_points
    return {
        f"series-{index}": _series_values(length, seed=1000 + index)
        for index in range(n_series)
    }


def _engine_row(config: str, n_series: int, online_points: int, elapsed: float):
    total_points = n_series * online_points
    return {
        "config": config,
        "series": n_series,
        "online_points": total_points,
        "points_per_sec": total_points / elapsed,
        "us_per_point": elapsed / total_points * 1e6,
    }


def _bench_engine_fleet(
    n_series: int, online_points: int, with_columnar: bool = False
) -> list[dict]:
    """Batched ingest across a keyed fleet; warm-up untimed.

    With ``with_columnar`` the same warmed engine is rewound (via
    snapshot/restore) and fed the identical stream through the columnar
    ``ingest({key: values})`` form -- the expensive initialization phase is
    paid once for both measurements.
    """
    data = _fleet_data(n_series, online_points)
    online_start = INITIALIZATION + ONLINE_WARMUP
    engine = _warmed_engine(data)
    checkpoint = engine.snapshot() if with_columnar else None

    batches = [
        [(key, values[position]) for key, values in data.items()]
        for position in range(online_start, online_start + online_points)
    ]
    start = time.perf_counter()
    for batch in batches:
        engine.ingest(batch)
    elapsed = time.perf_counter() - start
    stats = engine.fleet_stats()
    assert stats.series_live == n_series
    rows = [_engine_row("engine ingest", n_series, online_points, elapsed)]

    if with_columnar:
        columnar = {
            key: values[online_start + 1 :] for key, values in data.items()
        }

        def rewind():
            # restore() installs the snapshot's columns as columns; the
            # stream's first point is then fed untimed, because the timed
            # columnar feed below starts one point after it.
            engine.restore(checkpoint)
            engine.ingest(
                {
                    key: values[online_start : online_start + 1]
                    for key, values in data.items()
                }
            )

        rewind()
        start = time.perf_counter()
        engine.ingest(columnar)
        elapsed = time.perf_counter() - start
        rows.append(
            _engine_row(
                "engine ingest (columnar)", n_series, online_points - 1, elapsed
            )
        )

        def timed_pass():
            # rewind() restores the identical engine state before every
            # pass, so every pass consumes the same stream.
            rewind()
            start = time.perf_counter()
            result = engine.ingest_columnar(columnar)
            elapsed = time.perf_counter() - start
            assert len(result) == (online_points - 1) * n_series
            return elapsed

        # One untimed pass first pays the one-off workspace allocations;
        # the row keeps the best of five timed passes, so a load spike on
        # a busy machine does not set the number.
        timed_pass()
        rows.append(
            _engine_row(
                "engine ingest (columnar results)",
                n_series,
                online_points - 1,
                min(timed_pass() for _ in range(5)),
            )
        )
    return rows


def _bench_absorption(total: int = 500) -> dict:
    """One-at-a-time absorption of ``total`` series into one fleet kernel.

    The halves ratio is the linearity check: absorbing the second half into
    an ever-larger kernel must cost about the same as the first half
    (capacity-doubled growth); the pre-amortization concatenation path made
    it grow with the kernel size (quadratic total).
    """
    import copy

    from repro.core.fleet import FleetKernel

    values = _series_values(INITIALIZATION + 16, seed=4242)
    prototype = OneShotSTL(PERIOD, iterations=2)
    prototype.initialize(values[:INITIALIZATION])
    for value in values[INITIALIZATION:]:
        prototype.update(float(value))
    singles = [
        FleetKernel.pack([copy.deepcopy(prototype)]) for _ in range(total)
    ]

    kernel = FleetKernel.pack([copy.deepcopy(prototype)])
    start = time.perf_counter()
    for single in singles[: total // 2]:
        kernel.append(single)
    first_half = time.perf_counter() - start
    start = time.perf_counter()
    for single in singles[total // 2 :]:
        kernel.append(single)
    second_half = time.perf_counter() - start
    return {
        "config": f"absorb {total} one-at-a-time",
        "series": kernel.n_series,
        "online_points": 0,
        "points_per_sec": 0.0,
        "us_per_point": (first_half + second_half) / total * 1e6,
        "absorb_halves_ratio": second_half / first_half,
    }


#: rounds per grid chunk in the durability rows: small enough that one
#: ``ingest_many`` call carries several WAL records (so group commit has
#: something to batch), large enough that the kernel still advances in
#: blocks.
WAL_CHUNK_ROUNDS = 6


def _bench_durability(n_series: int, online_points: int) -> list[dict]:
    """WAL ingest overhead and full vs incremental checkpoint latency.

    One warmed engine serves all four measurements: time-blocked
    ``ingest_many`` grid chunks without a store, the first checkpoint
    after :meth:`attach_store` (every cohort dirty -- the full-snapshot
    cost), the same ``ingest_many`` chunks with the whole call journaled
    to the WAL in one group commit (one write + flush + fsync for all of
    the call's records), and an incremental checkpoint after touching
    only the first durable cohort of the fleet.  The WAL-on and WAL-off
    windows run the identical code path -- the only difference is
    whether a store is attached -- so the ratio isolates journaling cost.
    """
    import shutil
    import tempfile

    from repro.durability import DirectoryCheckpointStore

    # Each measurement consumes its own contiguous window of the stream:
    # re-feeding one window twice would land out of phase and trigger the
    # (expensive, rare-by-design) shift-search fallback on every series,
    # which would measure the fallback, not the WAL.  The WAL-on/WAL-off
    # comparison is repeated with alternated ordering (off-on, then
    # on-off) so slow-drift effects -- allocator state, cache warmth --
    # cancel instead of biasing one side.
    data = _fleet_data(n_series, 5 * online_points + 8)
    online_start = INITIALIZATION + ONLINE_WARMUP
    position = online_start

    def take_grids(rounds, chunk_rounds, keys=None):
        nonlocal position
        chunks = []
        taken = 0
        while taken < rounds:
            count = min(chunk_rounds, rounds - taken)
            chunks.append(
                {
                    key: data[key][position + taken : position + taken + count]
                    for key in (data if keys is None else keys)
                }
            )
            taken += count
        position += rounds
        return chunks

    engine = _warmed_engine(data)
    # settle: first post-warmup rounds run untimed
    engine.ingest_many(take_grids(4, WAL_CHUNK_ROUNDS))

    roots: list[Path] = []

    def fresh_store() -> DirectoryCheckpointStore:
        root = Path(tempfile.mkdtemp(prefix="bench-durability-"))
        roots.append(root)
        return DirectoryCheckpointStore(root)

    wal_off = wal_on = 0.0
    try:
        for order in (("off", "on"), ("on", "off")):
            for mode in order:
                if mode == "on":
                    engine.attach_store(fresh_store(), checkpoint=False)
                chunks = take_grids(online_points, WAL_CHUNK_ROUNDS)
                start = time.perf_counter()
                engine.ingest_many(chunks)
                elapsed = time.perf_counter() - start
                if mode == "on":
                    wal_on += elapsed
                    engine.close(checkpoint=False)
                else:
                    wal_off += elapsed

        engine.attach_store(fresh_store(), checkpoint=False)
        start = time.perf_counter()
        full = engine.checkpoint()
        full_seconds = time.perf_counter() - start
        assert full.series_written == n_series

        dirty_keys = list(data)[: engine.checkpoint_cohort_size]
        engine.ingest_many(take_grids(4, WAL_CHUNK_ROUNDS, keys=dirty_keys))
        start = time.perf_counter()
        incremental = engine.checkpoint()
        incremental_seconds = time.perf_counter() - start
        assert incremental.cohorts_written == min(
            1, incremental.cohorts_total
        ), "only the touched cohort should have been rewritten"
        engine.close(checkpoint=False)
    finally:
        for root in roots:
            shutil.rmtree(root, ignore_errors=True)

    total = 2 * n_series * online_points
    return [
        {
            "config": "engine ingest_many (WAL off)",
            "series": n_series,
            "online_points": total,
            "points_per_sec": total / wal_off,
            "us_per_point": wal_off / total * 1e6,
        },
        {
            "config": "engine ingest_many (WAL on, group commit)",
            "series": n_series,
            "online_points": total,
            "points_per_sec": total / wal_on,
            "us_per_point": wal_on / total * 1e6,
            "wal_ingest_ratio": wal_off / wal_on,
        },
        {
            "config": "checkpoint (full fleet)",
            "series": n_series,
            "online_points": 0,
            "points_per_sec": 0.0,
            "us_per_point": full_seconds / n_series * 1e6,
            "checkpoint_seconds": full_seconds,
        },
        {
            "config": "checkpoint (1 dirty cohort)",
            "series": n_series,
            "online_points": 0,
            "points_per_sec": 0.0,
            "us_per_point": incremental_seconds / n_series * 1e6,
            "checkpoint_seconds": incremental_seconds,
            "checkpoint_incremental_speedup": full_seconds / incremental_seconds,
        },
    ]


def _bench_supervision(n_series: int, online_points: int) -> list[dict]:
    """Per-call overhead of the fault-supervision retry wrapper.

    The self-healing router wraps worker requests in
    :meth:`~repro.faults.RetryPolicy.call`; on the success path that is
    one ``delays()`` generator plus one ``try`` frame per call.  Both
    sides drive the identical per-chunk ``ingest_many`` call pattern --
    each chunk is its own call, matching the router's one-request-per-
    batch granularity -- over their own contiguous stream windows.  The
    windows run as alternating pairs with the starting side swapped each
    round, and each side keeps its best pass: the gated ratio is overhead
    in the ~1% range, so a single load spike landing on one side would
    otherwise dominate it.
    """
    from repro.faults import RetryPolicy

    pairs = 3
    data = _fleet_data(n_series, 2 * pairs * online_points + 8)
    online_start = INITIALIZATION + ONLINE_WARMUP
    position = online_start

    def take_grids(rounds, chunk_rounds):
        nonlocal position
        chunks = []
        taken = 0
        while taken < rounds:
            count = min(chunk_rounds, rounds - taken)
            chunks.append(
                {
                    key: data[key][position + taken : position + taken + count]
                    for key in data
                }
            )
            taken += count
        position += rounds
        return chunks

    engine = _warmed_engine(data)
    engine.ingest_many(take_grids(4, WAL_CHUNK_ROUNDS))  # settle, untimed
    policy = RetryPolicy()
    direct = supervised = math.inf
    for round_index in range(pairs):
        order = (
            ("direct", "supervised")
            if round_index % 2 == 0
            else ("supervised", "direct")
        )
        for mode in order:
            chunks = take_grids(online_points, WAL_CHUNK_ROUNDS)
            if mode == "supervised":
                start = time.perf_counter()
                for chunk in chunks:
                    policy.call(lambda chunk=chunk: engine.ingest_many([chunk]))
                supervised = min(supervised, time.perf_counter() - start)
            else:
                start = time.perf_counter()
                for chunk in chunks:
                    engine.ingest_many([chunk])
                direct = min(direct, time.perf_counter() - start)

    total = n_series * online_points
    return [
        {
            "config": "engine ingest_many (direct calls)",
            "series": n_series,
            "online_points": total,
            "points_per_sec": total / direct,
            "us_per_point": direct / total * 1e6,
        },
        {
            "config": "engine ingest_many (supervised retry wrapper)",
            "series": n_series,
            "online_points": total,
            "points_per_sec": total / supervised,
            "us_per_point": supervised / total * 1e6,
            "supervised_ingest_ratio": direct / supervised,
        },
    ]


def _bench_sharded(smoke: bool, n_workers: int = SHARDED_WORKERS) -> list[dict]:
    """Aggregate throughput and failover latency of the sharded tier.

    A :class:`~repro.sharding.ShardRouter` fans a fleet an order of
    magnitude past the single-process rows (10k series full, 1k smoke)
    out across ``n_workers`` durable worker processes -- one columnar
    message per shard per batch -- and the timed window measures
    steady-state aggregate points/sec through the full fan-out/fan-in
    path (pickle, pipes, result scatter included).  The cluster is
    checkpointed right after warm-up, modelling a periodically
    checkpointed production fleet; the failover row then SIGKILLs one
    worker and times :meth:`~repro.sharding.ShardRouter.failover` --
    lease takeover, manifest load and replay of the timed window's
    surviving WAL -- as the recovery-latency number.
    """
    import shutil
    import tempfile

    from repro.sharding import ClusterSpec, ShardRouter

    n_series = 1000 if smoke else 10_000
    online_points = 8 if smoke else 48
    warm_rounds = 8  # absorption settles by ~6 rounds; timed window is steady
    length = INITIALIZATION + warm_rounds + online_points
    data = {
        f"series-{index}": _series_values(length, seed=7000 + index)
        for index in range(n_series)
    }
    online_start = INITIALIZATION + warm_rounds

    root = Path(tempfile.mkdtemp(prefix="bench-sharded-"))
    try:
        spec = MultiSeriesEngine.for_oneshotstl(PERIOD).spec
        cluster = ClusterSpec.for_root(spec, root, n_workers)
        router = ShardRouter(cluster)
        try:
            router.ingest(
                {key: values[:online_start] for key, values in data.items()}
            )
            router.checkpoint()

            # One columnar batch for the whole timed window, matching the
            # single-process "engine ingest (columnar)" row it is gated
            # against -- the per-batch fan-out cost (pickle, pipe, result
            # scatter) amortizes over the window just as the engine's
            # per-call overhead does.
            start = time.perf_counter()
            router.ingest(
                {key: values[online_start:] for key, values in data.items()}
            )
            elapsed = time.perf_counter() - start
            total = n_series * online_points

            victim = router.shard_ids[0]
            # Reach one layer down for the kill: the public surface has no
            # reason to expose worker pids, and the bench wants a real
            # SIGKILL mid-life, exactly what the failover path is for.
            router._workers[victim].process.kill()
            report = router.failover(victim)
            stats = router.stats()
            assert stats.points_total == n_series * length, (
                "failover lost points: recovery must replay the full "
                "surviving WAL"
            )
            rows = [
                {
                    "config": f"sharded ingest ({n_workers} workers)",
                    "series": n_series,
                    "online_points": total,
                    "points_per_sec": total / elapsed,
                    "us_per_point": elapsed / total * 1e6,
                    "sharded_workers": n_workers,
                },
                {
                    "config": "sharded failover (SIGKILL + recovery)",
                    "series": n_series,
                    "online_points": 0,
                    "points_per_sec": 0.0,
                    "us_per_point": 0.0,
                    "failover_recovery_seconds": report.duration_seconds,
                    "failover_recovered_points": report.recovered_points,
                },
            ]
        finally:
            router.close(checkpoint=False)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return rows


def _collect(smoke: bool = False) -> list[dict]:
    fleet_sizes, points_per_series = _workload(smoke)
    largest = max(fleet_sizes)
    rows = [_bench_raw_single_series(points_per_series[1])]
    for n_series in fleet_sizes:
        rows.extend(
            _bench_engine_fleet(
                n_series,
                points_per_series[n_series],
                with_columnar=n_series == largest,
            )
        )
    rows.append(_bench_absorption(total=120 if smoke else 500))
    rows.extend(_bench_durability(largest, points_per_series[largest]))
    rows.extend(_bench_supervision(largest, points_per_series[largest]))
    rows.extend(_bench_sharded(smoke))
    return rows


def _config_throughput(rows: list[dict], config: str, series: int) -> float:
    return next(
        row["points_per_sec"]
        for row in rows
        if row["config"] == config and row["series"] == series
    )


def _check_columnar_paths(rows: list[dict], largest: int) -> list[str]:
    """Assertion-style sanity checks printed with (and gating) the results.

    * columnar *input* must not be slower than row input (they share every
      downstream cost, so a regression here means the input path itself
      rotted -- this was a real historical regression);
    * columnar *results* must beat the eager record list (skipping the
      per-row record construction is the whole point);
    * one-at-a-time absorption must stay linear (halves ratio well under
      the ~4x a quadratic path would show).

    A small tolerance absorbs benchmark-machine noise on the input check.
    """
    row_form = _config_throughput(rows, "engine ingest", largest)
    columnar_in = _config_throughput(rows, "engine ingest (columnar)", largest)
    columnar_out = _config_throughput(
        rows, "engine ingest (columnar results)", largest
    )
    absorb = next(row for row in rows if "absorb_halves_ratio" in row)
    checks = [
        (
            f"columnar input >= row input ({columnar_in:.0f} vs {row_form:.0f} "
            f"pts/s)",
            columnar_in >= (1.0 - INPUT_PATH_TOLERANCE) * row_form,
        ),
        (
            f"columnar results > row records ({columnar_out:.0f} vs "
            f"{row_form:.0f} pts/s)",
            columnar_out > row_form,
        ),
        (
            "one-at-a-time absorption linear (halves ratio "
            f"{absorb['absorb_halves_ratio']:.2f} < {ABSORB_RATIO_CEILING})",
            absorb["absorb_halves_ratio"] < ABSORB_RATIO_CEILING,
        ),
    ]
    lines = []
    failures = []
    for label, passed in checks:
        lines.append(f"[{'ok' if passed else 'FAIL'}] {label}")
        if not passed:
            failures.append(label)
    print("\n".join(lines))
    return failures


def _check_durability(rows: list[dict]) -> list[str]:
    """Self-checks of the durability rows (same shape as the columnar ones).

    * journaling every ingested batch to the WAL must keep at least
      ``WAL_INGEST_FLOOR`` of the WAL-off throughput;
    * an incremental checkpoint touching one dirty cohort of the large
      fleet must be at least ``CHECKPOINT_SPEEDUP_FLOOR`` times faster
      than re-serializing the whole fleet;
    * the supervision retry wrapper must keep at least
      ``SUPERVISED_INGEST_FLOOR`` of the direct-call throughput.
    """
    wal_row = next(row for row in rows if "wal_ingest_ratio" in row)
    speedup_row = next(
        row for row in rows if "checkpoint_incremental_speedup" in row
    )
    supervised_row = next(
        row for row in rows if "supervised_ingest_ratio" in row
    )
    checks = [
        (
            f"WAL-on ingest >= {WAL_INGEST_FLOOR:.0%} of WAL-off "
            f"(ratio {wal_row['wal_ingest_ratio']:.2f})",
            wal_row["wal_ingest_ratio"] >= WAL_INGEST_FLOOR,
        ),
        (
            "incremental checkpoint >= "
            f"{CHECKPOINT_SPEEDUP_FLOOR:.0f}x faster than full "
            f"(speedup {speedup_row['checkpoint_incremental_speedup']:.1f})",
            speedup_row["checkpoint_incremental_speedup"]
            >= CHECKPOINT_SPEEDUP_FLOOR,
        ),
        (
            f"supervised ingest >= {SUPERVISED_INGEST_FLOOR:.0%} of direct "
            f"(ratio {supervised_row['supervised_ingest_ratio']:.2f})",
            supervised_row["supervised_ingest_ratio"]
            >= SUPERVISED_INGEST_FLOOR,
        ),
    ]
    lines = []
    failures = []
    for label, passed in checks:
        lines.append(f"[{'ok' if passed else 'FAIL'}] {label}")
        if not passed:
            failures.append(label)
    print("\n".join(lines))
    return failures


def _check_sharded(rows: list[dict], smoke: bool = False) -> list[str]:
    """Self-check of the sharded rows.

    The full workload's sharded fleet is 10x the single-process
    1000-series case, so its aggregate throughput through 4 workers must
    reach at least ``SHARDED_COLUMNAR_FLOOR`` times the same run's
    single-process columnar ingest -- the fleet-amortization win has to
    survive the IPC hop.  The smoke workload shards the *same* 1000
    series it measures single-process, which isolates the IPC overhead
    but leaves no amortization headroom to gate on -- the ratio is
    reported without a threshold there (as is failover recovery latency
    everywhere: its absolute value is machine-bound, and correctness of
    the recovery is asserted inside the benchmark itself).
    """
    sharded = next(row for row in rows if "sharded_workers" in row)
    failover = next(row for row in rows if "failover_recovery_seconds" in row)
    columnar = _config_throughput(rows, "engine ingest (columnar)", 1000)
    ratio = sharded["points_per_sec"] / columnar
    lines = [
        "[info] sharded failover recovery "
        f"{failover['failover_recovery_seconds']:.3f}s "
        f"({failover['failover_recovered_points']} points recovered)"
    ]
    failures = []
    label = (
        f"sharded {sharded['series']}-series aggregate >= "
        f"{SHARDED_COLUMNAR_FLOOR:.1f}x single-process 1000-series "
        f"columnar ({sharded['points_per_sec']:.0f} vs {columnar:.0f} "
        f"pts/s, ratio {ratio:.2f})"
    )
    if smoke:
        lines.append(f"[info] {label} -- not gated on the smoke workload")
    else:
        passed = ratio >= SHARDED_COLUMNAR_FLOOR
        lines.append(f"[{'ok' if passed else 'FAIL'}] {label}")
        if not passed:
            failures.append(label)
    print("\n".join(lines))
    return failures


def _emit(rows: list[dict], smoke: bool) -> None:
    """Write the human-readable table and the machine-readable JSON artifact.

    ``BENCH_engine.json`` maps fleet size -> points/sec (plus the raw kernel
    number and the full rows), so CI can track the perf trajectory across
    PRs without parsing the text table.  The ``workload`` field records
    whether the numbers come from the seconds-long ``--smoke`` workload
    (CI's artifact) or a full run at the configured scale -- the two are
    not comparable.
    """
    report(
        "engine_throughput",
        "Engine throughput: points/sec vs concurrent series",
        rows,
    )
    report_json(
        "BENCH_engine.json",
        "engine_throughput",
        rows,
        workload="smoke" if smoke else "full",
        points_per_sec={
            str(row["series"]): row["points_per_sec"]
            for row in rows
            if row["config"] == "engine ingest"
        },
        columnar_points_per_sec={
            str(row["series"]): row["points_per_sec"]
            for row in rows
            if row["config"] == "engine ingest (columnar)"
        },
        columnar_results_points_per_sec={
            str(row["series"]): row["points_per_sec"]
            for row in rows
            if row["config"] == "engine ingest (columnar results)"
        },
        absorb_halves_ratio=next(
            row["absorb_halves_ratio"]
            for row in rows
            if "absorb_halves_ratio" in row
        ),
        wal_ingest_ratio=next(
            row["wal_ingest_ratio"] for row in rows if "wal_ingest_ratio" in row
        ),
        supervised_ingest_ratio=next(
            row["supervised_ingest_ratio"]
            for row in rows
            if "supervised_ingest_ratio" in row
        ),
        checkpoint_full_seconds=next(
            row["checkpoint_seconds"]
            for row in rows
            if row["config"] == "checkpoint (full fleet)"
        ),
        checkpoint_incremental_seconds=next(
            row["checkpoint_seconds"]
            for row in rows
            if row["config"] == "checkpoint (1 dirty cohort)"
        ),
        checkpoint_incremental_speedup=next(
            row["checkpoint_incremental_speedup"]
            for row in rows
            if "checkpoint_incremental_speedup" in row
        ),
        raw_kernel_points_per_sec=next(
            row["points_per_sec"] for row in rows if row["config"] == "raw OneShotSTL"
        ),
        sharded_points_per_sec=next(
            row["points_per_sec"] for row in rows if "sharded_workers" in row
        ),
        sharded_workers=next(
            row["sharded_workers"] for row in rows if "sharded_workers" in row
        ),
        sharded_series=next(
            row["series"] for row in rows if "sharded_workers" in row
        ),
        sharded_vs_columnar_ratio=next(
            row["points_per_sec"] for row in rows if "sharded_workers" in row
        )
        / next(
            row["points_per_sec"]
            for row in rows
            if row["config"] == "engine ingest (columnar)"
        ),
        failover_recovery_seconds=next(
            row["failover_recovery_seconds"]
            for row in rows
            if "failover_recovery_seconds" in row
        ),
    )


def test_engine_throughput(run_once):
    rows = run_once(_collect)
    _emit(rows, smoke=False)
    by_series = {
        row["series"]: row for row in rows if row["config"] == "engine ingest"
    }
    raw = next(row for row in rows if row["config"] == "raw OneShotSTL")
    # The engine must sustain the largest configured fleet...
    largest = max(by_series)
    assert by_series[largest]["points_per_sec"] > 0
    # ...and its per-point bookkeeping overhead on a single series must stay
    # a small factor over the raw kernel hot path.
    assert by_series[1]["us_per_point"] < 3.0 * raw["us_per_point"]
    # The columnar input/result paths must not regress behind the row path
    # (and absorption must stay linear) -- see _check_columnar_paths.
    assert not _check_columnar_paths(rows, largest)
    # WAL overhead and incremental-checkpoint speedup -- see _check_durability.
    assert not _check_durability(rows)
    # The sharded tier must keep the large-fleet amortization through the
    # worker fan-out -- see _check_sharded.
    assert not _check_sharded(rows, smoke=False)


if __name__ == "__main__":
    smoke = "--smoke" in sys.argv
    rows = _collect(smoke=smoke)
    _emit(rows, smoke=smoke)
    failures = _check_columnar_paths(
        rows, max(row["series"] for row in rows if row["config"] == "engine ingest")
    )
    failures.extend(_check_durability(rows))
    failures.extend(_check_sharded(rows, smoke=smoke))
    if failures:
        sys.exit(f"columnar-path/durability/sharded checks failed: {failures}")
