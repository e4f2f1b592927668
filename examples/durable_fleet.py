"""Durable fleet monitoring: open, ingest, checkpoint, crash, recover.

A monitoring engine that serves real traffic cannot afford either failure
mode of naive snapshotting: losing everything since the last snapshot
when the process dies, or paying a full-fleet serialization every time it
wants safety.  This example walks the durable-session lifecycle that
fixes both:

1. ``MultiSeriesEngine.open(store, spec=...)`` starts a session whose
   configuration is committed to the store's manifest immediately;
2. every ingested batch is appended to the write-ahead log *before* the
   engine advances, so a kill -9 at any moment loses at most the
   in-flight batch;
3. ``engine.checkpoint()`` persists only the *cohorts* that changed --
   on a mostly-idle fleet that is a couple of small segment files;
4. a "crashed" process (here: simply abandoning the engine object
   without ``close()``) is recovered by reopening the store: spec from
   the manifest, state from the segments, the surviving WAL tail
   replayed bit-identically;
5. the recovered engine's outputs are compared against an uninterrupted
   twin to show the streams are exactly equal.

Run with::

    PYTHONPATH=src python examples/durable_fleet.py
"""

import shutil
import tempfile
from pathlib import Path

import numpy as np

from repro.specs import DecomposerSpec, DetectorSpec, EngineSpec, PipelineSpec
from repro.streaming import MultiSeriesEngine

PERIOD = 48
N_HOSTS = 12
ROUNDS = PERIOD * 10


def make_fleet(seed: int = 7) -> dict:
    """Per-host latency-like series: daily season, drift, noise."""
    rng = np.random.default_rng(seed)
    time_axis = np.arange(ROUNDS)
    fleet = {}
    for host in range(N_HOSTS):
        values = (
            20.0
            + 6.0 * np.sin(2 * np.pi * time_axis / PERIOD + 0.3 * host)
            + 0.01 * time_axis
            + rng.normal(0.0, 0.4, ROUNDS)
        )
        fleet[f"web-{host:02d}.latency_ms"] = values
    return fleet


def main() -> None:
    spec = EngineSpec(
        pipeline=PipelineSpec(
            decomposer=DecomposerSpec("oneshotstl", {"period": PERIOD}),
            detector=DetectorSpec("nsigma", {"threshold": 5.0}),
        ),
        initialization_length=4 * PERIOD,
    )
    fleet = make_fleet()
    batches = [
        [(key, values[position]) for key, values in fleet.items()]
        for position in range(ROUNDS)
    ]
    root = Path(tempfile.mkdtemp(prefix="durable-fleet-")) / "store"

    # ------------------------------------------------- phase 1: live engine
    engine = MultiSeriesEngine.open(root, spec=spec)
    checkpoint_at = PERIOD * 6
    crash_at = PERIOD * 8
    for batch in batches[:checkpoint_at]:
        engine.ingest(batch)
    summary = engine.checkpoint()
    print(
        f"checkpoint: generation {summary.generation}, wrote "
        f"{summary.cohorts_written}/{summary.cohorts_total} cohorts "
        f"({summary.series_written} series)"
    )
    for batch in batches[checkpoint_at:crash_at]:
        engine.ingest(batch)
    points_before_crash = engine.fleet_stats().points_total
    print(
        f"crash! engine dies with {points_before_crash} points ingested, "
        f"{crash_at - checkpoint_at} rounds of them only in the WAL"
    )
    # No close(), no checkpoint: the process is gone.  (The WAL already
    # holds every batch since the last checkpoint.)
    del engine

    # ------------------------------------------------- phase 2: recovery
    recovered = MultiSeriesEngine.open(root)  # spec comes from the manifest
    print(
        f"recovered: {len(recovered)} series, "
        f"{recovered.fleet_stats().points_total} points "
        "(checkpoint + WAL replay)"
    )
    assert recovered.fleet_stats().points_total == points_before_crash

    # ------------------------------------- phase 3: prove nothing was lost
    oracle = MultiSeriesEngine.from_spec(spec)
    for batch in batches[:crash_at]:
        oracle.ingest(batch)
    mismatches = 0
    anomalies = 0
    for batch in batches[crash_at:]:
        recovered_records = recovered.ingest(batch)
        oracle_records = oracle.ingest(batch)
        anomalies += sum(record.is_anomaly for record in recovered_records)
        if [r.record for r in recovered_records] != [
            r.record for r in oracle_records
        ]:
            mismatches += 1
    print(
        f"streamed {ROUNDS - crash_at} post-recovery rounds: "
        f"{mismatches} mismatching rounds vs an uninterrupted engine, "
        f"{anomalies} anomalies flagged"
    )
    assert mismatches == 0, "recovery must be bit-identical"

    recovered.close()  # final checkpoint; WAL is now empty
    print(f"closed cleanly; removing the example's store at {root}")
    shutil.rmtree(root.parent, ignore_errors=True)


if __name__ == "__main__":
    main()
