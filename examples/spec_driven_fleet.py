"""Spec-driven fleet: JSON configuration, per-key overrides, portable stores.

Where ``fleet_monitoring.py`` hand-wires its engine, this script treats the
deployment as *data*, the way a production config system would:

* the whole fleet -- decomposer, scorer, initialization window, and
  per-metric-class overrides -- is one JSON document, parsed into an
  :class:`~repro.specs.EngineSpec` and built through the component
  registry (``repro.registry``);
* most metrics run the fleet default (OneShotSTL, 15-minute daily
  seasonality), while one latency metric overrides to a different period
  and a stricter threshold -- heterogeneous fleets, one engine;
* mid-stream the engine checkpoints into a **versioned store directory**
  (``MANIFEST.json`` with the format version and the spec, one segment
  per cohort of series) and a brand-new engine is opened from that
  directory alone, simulating a worker handoff; the script verifies the
  continued stream is identical to the uninterrupted one.

Run with:  PYTHONPATH=src python examples/spec_driven_fleet.py
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import numpy as np

from repro import EngineSpec, MultiSeriesEngine, build
from repro.durability import DirectoryCheckpointStore

PERIOD = 96  # one day at 15-minute resolution
DAYS = 7

#: the deployment, exactly as it would sit in a config repository
FLEET_CONFIG = json.dumps(
    {
        "pipeline": {
            "decomposer": {
                "name": "oneshotstl",
                # Stiff trend (lambda=100): the trend must not bend around
                # outliers before the residual is scored (README quickstart).
                "params": {
                    "period": PERIOD,
                    "lambda1": 100.0,
                    "lambda2": 100.0,
                    "shift_window": 0,
                },
            },
            "detector": {"name": "nsigma", "params": {"threshold": 5.0}},
        },
        "initialization_length": 4 * PERIOD,
        "overrides": {
            # Latency has a shorter cycle and pages earlier than traffic.
            "db-01.latency_ms": {
                "decomposer": {
                    "name": "oneshotstl",
                    "params": {
                        "period": PERIOD // 2,
                        "lambda1": 100.0,
                        "lambda2": 100.0,
                        "shift_window": 0,
                    },
                },
                "detector": {"name": "nsigma", "params": {"threshold": 4.0}},
            }
        },
    }
)


def make_metric(key: str, rng: np.random.Generator) -> np.ndarray:
    time = np.arange(PERIOD * DAYS)
    if key == "db-01.latency_ms":
        values = 3.0 + 0.5 * np.sin(2 * np.pi * time / (PERIOD // 2))
        values = values + rng.normal(0.0, 0.05, time.size)
        values[PERIOD * 5 + 17] += 4.0  # a slow-query incident
        return values
    host = int(key.split("-")[1].split(".")[0])
    level = 50.0 + 10.0 * host
    values = level + 8.0 * np.sin(2 * np.pi * time / PERIOD)
    values = values + rng.normal(0.0, 0.8, time.size)
    if host == 2:
        values[PERIOD * 5 + 40] += 35.0  # a traffic spike
    return values


def main() -> None:
    rng = np.random.default_rng(23)
    spec = EngineSpec.from_json(FLEET_CONFIG)
    print("fleet default:", spec.pipeline.decomposer.name, spec.pipeline.decomposer.params)
    for key, override in spec.overrides.items():
        print(f"override for {key}:", override.decomposer.params)

    engine = build(spec)
    keys = [f"host-{index:02d}.req_rate" for index in range(1, 5)]
    keys.append("db-01.latency_ms")
    data = {key: make_metric(key, rng) for key in keys}
    length = PERIOD * DAYS
    cut = PERIOD * 5  # checkpoint here, mid-stream

    def batches(start: int, stop: int):
        for position in range(start, stop):
            yield [(key, float(data[key][position])) for key in keys]

    for batch in batches(0, cut):
        engine.ingest(batch)

    with tempfile.TemporaryDirectory() as scratch:
        store = Path(scratch) / "fleet-store"
        # Bind the engine to the store (its current state is checkpointed
        # at once) and end the session: the directory is the handoff.
        engine.attach_store(store)
        engine.close()
        manifest = json.loads((store / "MANIFEST.json").read_text())
        stored = sum(path.stat().st_size for path in store.rglob("*") if path.is_file())
        print(
            f"\ncheckpointed into {store.name}/: format {manifest['format_version']}, "
            f"{len(manifest['cohorts'])} cohort segment(s), {stored} bytes"
        )

        # Continue the original engine...
        original_tail = [engine.ingest(batch) for batch in batches(cut, length)]
        # ...and, independently, a fresh engine opened from the directory
        # alone: configuration from the manifest, state from the segments.
        restored = MultiSeriesEngine.open(store)
        restored_tail = [restored.ingest(batch) for batch in batches(cut, length)]
        restored.close()
        report = DirectoryCheckpointStore(store).verify(deep=True)
        print(report)
        if not report.ok:
            raise SystemExit("the store does not verify after the handoff!")

    identical = all(
        [r.record for r in expected] == [r.record for r in actual]
        for expected, actual in zip(original_tail, restored_tail)
    )
    print("restored stream identical to uninterrupted run:", identical)
    if not identical:
        raise SystemExit("checkpoint round-trip diverged!")

    print("\nper-series anomalies (restored engine):")
    stats = restored.fleet_stats()
    for key in keys:
        series = stats.per_series[key]
        print(f"  {key:22s} status={series.status.value:7s} anomalies={series.anomalies}")


if __name__ == "__main__":
    main()
