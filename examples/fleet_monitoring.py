"""Fleet monitoring: one engine, hundreds of metrics, checkpoint/resume.

The paper's O(1) update makes online decomposition cheap enough to run on
*every* monitored metric.  This script simulates a small service fleet --
one request-rate metric per host, all with daily seasonality but different
levels and noise -- and drives them through a single
:class:`~repro.streaming.MultiSeriesEngine`:

* observations arrive interleaved across hosts, exactly as a metrics
  gateway would deliver them, and are ingested in batches;
* the steady-state feed switches to the fully columnar form -- ``{key:
  values}`` chunks in, :class:`~repro.streaming.IngestResult` arrays out
  -- so neither input tuples nor per-row record objects are built on the
  hot path, and alert triage runs as vectorized NumPy over the result
  arrays (records are materialized only for the rows actually reported);
* one host develops a traffic spike and another a seasonality shift
  (a maintenance job moving its daily peak);
* the engine is checkpointed mid-stream and restored, demonstrating that
  a monitoring service can persist its state and resume deterministically;
* at the end the fleet statistics report per-host anomaly counts and
  update-latency percentiles (the hosts of one kernel cohort share their
  cohort's: its blocks advance them together).

Run with:  PYTHONPATH=src python examples/fleet_monitoring.py
"""

from __future__ import annotations

import numpy as np

from repro.streaming import MultiSeriesEngine

PERIOD = 96  # one day at 15-minute resolution
DAYS = 8
HOSTS = 12


def make_host_metric(host: int, rng: np.random.Generator) -> np.ndarray:
    time = np.arange(PERIOD * DAYS)
    level = 50.0 + 10.0 * host
    daily = (8.0 + host) * np.sin(2 * np.pi * time / PERIOD)
    values = level + daily + rng.normal(0.0, 0.8, time.size)
    if host == 3:  # a sudden traffic spike on day 6
        values[PERIOD * 6 + 30] += 40.0
    if host == 7:  # a maintenance job shifts this host's daily peak
        shifted = time[PERIOD * 6 :] + 10
        values[PERIOD * 6 :] = (
            level
            + (8.0 + host) * np.sin(2 * np.pi * shifted / PERIOD)
            + rng.normal(0.0, 0.8, shifted.size)
        )
    return values


def main() -> None:
    rng = np.random.default_rng(7)
    metrics = {f"host-{host:02d}": make_host_metric(host, rng) for host in range(HOSTS)}

    # Stiff trend (lambda = 100), as the TSAD detectors use: for anomaly
    # detection the trend must not bend around outliers, otherwise part of
    # the anomaly is absorbed before the residual is scored.
    engine = MultiSeriesEngine.for_oneshotstl(
        PERIOD,
        anomaly_threshold=5.0,
        shift_window=20,
        lambda1=100.0,
        lambda2=100.0,
    )

    # Stream the first six days interleaved, as a metrics gateway would.
    length = PERIOD * DAYS
    checkpoint_at = PERIOD * 6
    for position in range(checkpoint_at):
        engine.ingest([(key, series[position]) for key, series in metrics.items()])

    # Take an in-memory rewind point mid-stream, then keep going.
    checkpoint = engine.snapshot()
    print(f"checkpoint taken after {checkpoint_at} points per host")

    # Steady state goes fully columnar: chunked {key: values} batches in,
    # struct-of-arrays IngestResult out.  The triage below never builds a
    # per-row record for the ~99% of points that are normal.
    alerts: dict[str, list[int]] = {}
    chunk = PERIOD // 4
    for start in range(checkpoint_at, length, chunk):
        stop = min(start + chunk, length)
        result = engine.ingest_columnar(
            {key: series[start:stop] for key, series in metrics.items()}
        )
        for position in np.flatnonzero(result.is_anomaly):
            record = result[int(position)]  # record built on demand
            alerts.setdefault(record.key, []).append(
                start + int(position) // len(metrics)
            )

    # A crashed service restores the checkpoint and replays the same feed --
    # and lands on the identical alert set.
    replayed = MultiSeriesEngine.for_oneshotstl(
        PERIOD,
        anomaly_threshold=5.0,
        shift_window=20,
        lambda1=100.0,
        lambda2=100.0,
    )
    replayed.restore(checkpoint)
    replayed_alerts: dict[str, list[int]] = {}
    for position in range(checkpoint_at, length):
        for record in replayed.ingest(
            [(key, series[position]) for key, series in metrics.items()]
        ):
            if record.is_anomaly:
                replayed_alerts.setdefault(record.key, []).append(position)
    identical = alerts == replayed_alerts
    print(f"restore + replay reproduces alerts exactly: {identical}")
    if not identical:
        raise SystemExit("restore + replay diverged from the original alerts!")

    stats = engine.fleet_stats()
    print(
        f"\nfleet: {stats.series_total} hosts, "
        f"{stats.points_total} points ingested, "
        f"{stats.anomalies_total} anomalous points"
    )
    print(f"{'host':10s}  {'points':>7s}  {'alerts':>6s}  {'p50 us':>8s}  {'p99 us':>8s}")
    for key in sorted(metrics):
        series = stats.per_series[key]
        latency = series.latency
        print(
            f"{key:10s}  {series.points:7d}  {series.anomalies:6d}  "
            f"{latency.median_seconds * 1e6:8.1f}  {latency.p99_seconds * 1e6:8.1f}"
        )

    spiked = alerts.get("host-03", [])
    print(
        f"\nhost-03 spike at index {PERIOD * 6 + 30}: "
        f"{'detected' if any(abs(a - (PERIOD * 6 + 30)) <= 1 for a in spiked) else 'missed'}"
    )
    shift_alerts = alerts.get("host-07", [])
    print(
        "host-07 seasonality shift: onset flagged by the detection residual "
        f"({len(shift_alerts)} alert points), then re-explained by the "
        "phase-shift search"
    )

    # Capacity planning: forecast the next three hours for every host.
    forecasts = {key: engine.forecast(key, 12) for key in sorted(metrics)[:3]}
    for key, forecast in forecasts.items():
        print(f"forecast {key}: {np.round(forecast[:4], 1)} ...")


if __name__ == "__main__":
    main()
