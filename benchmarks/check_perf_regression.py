"""Perf-regression gate for the engine throughput benchmark.

Compares a fresh ``BENCH_engine.json`` (written by
``bench_engine_throughput.py``) against the committed baseline and fails --
exit code 1 -- if large-fleet throughput regressed beyond the tolerance.

Because CI machines and the machine that produced the committed baseline
run at different absolute speeds, the gated metrics are *normalized*: the
1000-series engine throughput (both the eager row-record form and the
columnar arrays-out ``ingest_columnar`` form) divided by the raw
single-series kernel throughput measured in the same run.  Those ratios
capture how well the fleet kernel amortizes the per-point cost across a
large fleet -- the property this gate protects -- while machine speed
cancels out.  A ratio drop of more than ``--tolerance`` (default 0.30,
i.e. 30%) vs the baseline fails the gate.  The gate additionally checks,
within the current run alone, that columnar *input* did not fall behind
row input (a historical regression), that one-at-a-time kernel
absorption stayed linear, that group-committing ingested batches to the
write-ahead log keeps at least ``WAL_INGEST_FLOOR`` of the WAL-off
throughput, that the fault-
supervision retry wrapper keeps at least ``SUPERVISED_INGEST_FLOOR`` of
the direct-call ingest throughput, that an incremental
checkpoint of the 1000-series fleet with one dirty cohort stays at least
5x faster than a full snapshot, and that the sharded tier (the 10k-series
fleet fanned out across 4 worker processes) keeps its aggregate
throughput at or above the single-process 1000-series columnar ingest of
the same run -- with a failover recovery latency actually measured, and
that the network serving layer (``bench_serving.py``, whose fields merge
into the same document) kept at least ``SERVED_COLUMNAR_FLOOR`` of the
same run's in-process columnar throughput while answering every read
poll during the bulk-ingest window (thresholds are imported from the
bench modules so the CI steps enforce one policy)::

    PYTHONPATH=src python benchmarks/bench_engine_throughput.py
    PYTHONPATH=src python benchmarks/bench_serving.py
    PYTHONPATH=src python benchmarks/check_perf_regression.py

The two documents must come from the same workload (the committed baseline
is a *full* run; ``--smoke`` numbers are not comparable and are rejected).
The committed baseline lives at ``benchmarks/BENCH_engine.json`` (the
results directory is gitignored; re-running the benchmark never clobbers
the baseline).  Refresh it deliberately after a change that moves
throughput::

    PYTHONPATH=src python benchmarks/bench_engine_throughput.py
    cp benchmarks/results/BENCH_engine.json benchmarks/BENCH_engine.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: fleet size whose normalized throughput is gated
GATED_FLEET = "1000"

#: gated metrics: JSON field -> human label
GATED_METRICS = {
    "points_per_sec": "row ingest",
    "columnar_results_points_per_sec": "columnar results ingest",
}

#: thresholds shared with the benchmark's own assertion-style checks, so
#: the bench step and this gate enforce a single policy (imported lazily
#: inside current_run_checks to keep this script path-independent).


def normalized_ratio(document: dict, source: str, metric: str) -> float:
    """1000-series engine throughput relative to the raw kernel's."""
    try:
        fleet = document[metric][GATED_FLEET]
        raw = document["raw_kernel_points_per_sec"]
    except KeyError as error:
        raise SystemExit(
            f"{source}: missing {error.args[0]!r}; regenerate with "
            "bench_engine_throughput.py (the workload must include the "
            f"{GATED_FLEET}-series case)"
        )
    if raw <= 0:
        raise SystemExit(f"{source}: non-positive raw kernel throughput")
    return fleet / raw


def current_run_checks(current: dict, source: str) -> list[str]:
    """Self-contained checks on the fresh run (no baseline needed)."""
    sys.path.insert(0, str(Path(__file__).parent))
    from bench_engine_throughput import (
        ABSORB_RATIO_CEILING,
        CHECKPOINT_SPEEDUP_FLOOR,
        INPUT_PATH_TOLERANCE,
        SHARDED_COLUMNAR_FLOOR,
        SUPERVISED_INGEST_FLOOR,
        WAL_INGEST_FLOOR,
    )
    from bench_serving import SERVED_COLUMNAR_FLOOR

    failures = []
    try:
        row_form = current["points_per_sec"][GATED_FLEET]
        columnar_in = current["columnar_points_per_sec"][GATED_FLEET]
    except KeyError as error:
        raise SystemExit(f"{source}: missing {error.args[0]!r}")
    if columnar_in < (1.0 - INPUT_PATH_TOLERANCE) * row_form:
        failures.append(
            f"columnar input path fell behind row input "
            f"({columnar_in:.0f} vs {row_form:.0f} pts/s)"
        )
    absorb = current.get("absorb_halves_ratio")
    if absorb is not None and absorb >= ABSORB_RATIO_CEILING:
        failures.append(
            f"one-at-a-time absorption looks quadratic "
            f"(halves ratio {absorb:.2f} >= {ABSORB_RATIO_CEILING})"
        )
    try:
        wal_ratio = current["wal_ingest_ratio"]
        speedup = current["checkpoint_incremental_speedup"]
    except KeyError as error:
        raise SystemExit(
            f"{source}: missing {error.args[0]!r}; regenerate with "
            "bench_engine_throughput.py (the workload includes the "
            "durability rows)"
        )
    if wal_ratio < WAL_INGEST_FLOOR:
        failures.append(
            f"WAL-on ingest fell below {WAL_INGEST_FLOOR:.0%} of WAL-off "
            f"throughput (ratio {wal_ratio:.2f})"
        )
    try:
        supervised_ratio = current["supervised_ingest_ratio"]
    except KeyError as error:
        raise SystemExit(
            f"{source}: missing {error.args[0]!r}; regenerate with "
            "bench_engine_throughput.py (the workload includes the "
            "supervision row)"
        )
    if supervised_ratio < SUPERVISED_INGEST_FLOOR:
        failures.append(
            f"retry-supervised ingest fell below "
            f"{SUPERVISED_INGEST_FLOOR:.0%} of direct-call throughput "
            f"(ratio {supervised_ratio:.2f}): the supervision wrapper's "
            "success path grew a real per-call cost"
        )
    if speedup < CHECKPOINT_SPEEDUP_FLOOR:
        failures.append(
            f"incremental checkpoint is only {speedup:.1f}x faster than a "
            f"full snapshot (required: {CHECKPOINT_SPEEDUP_FLOOR:.0f}x on "
            f"the {GATED_FLEET}-series fleet with one dirty cohort)"
        )
    try:
        sharded_ratio = current["sharded_vs_columnar_ratio"]
        sharded_series = current["sharded_series"]
        sharded_workers = current["sharded_workers"]
        recovery = current["failover_recovery_seconds"]
    except KeyError as error:
        raise SystemExit(
            f"{source}: missing {error.args[0]!r}; regenerate with "
            "bench_engine_throughput.py (the workload includes the "
            "sharded rows)"
        )
    if sharded_ratio < SHARDED_COLUMNAR_FLOOR:
        failures.append(
            f"sharded {sharded_series}-series aggregate throughput across "
            f"{sharded_workers} workers fell below "
            f"{SHARDED_COLUMNAR_FLOOR:.1f}x the single-process "
            f"{GATED_FLEET}-series columnar ingest (ratio "
            f"{sharded_ratio:.2f}): the fleet amortization no longer "
            "survives the fan-out/fan-in IPC hop"
        )
    if not recovery > 0:
        failures.append(
            f"failover recovery latency is {recovery!r}: the sharded "
            "benchmark's SIGKILL-and-failover measurement did not run"
        )
    try:
        served_ratio = current["served_vs_inprocess_ratio"]
        served_workload = current["served_workload"]
        served_p99 = current["served_request_p99_ms"]
        polls_ok = current["served_polls_ok"]
        polls_failed = current["served_polls_failed"]
    except KeyError as error:
        raise SystemExit(
            f"{source}: missing {error.args[0]!r}; regenerate with "
            "bench_serving.py (the serving benchmark merges its fields "
            "into the same document)"
        )
    if served_workload != "full":
        raise SystemExit(
            f"{source}: served_workload is {served_workload!r}; the "
            "served-throughput gate needs a full run.  Re-run "
            "bench_serving.py without --smoke."
        )
    if served_ratio < SERVED_COLUMNAR_FLOOR:
        failures.append(
            f"served throughput across {current.get('served_clients', '?')} "
            f"concurrent HTTP clients is only {served_ratio:.2f}x the same "
            f"run's in-process {GATED_FLEET}-series columnar ingest (floor "
            f"{SERVED_COLUMNAR_FLOOR:.1f}x): the network front door costs "
            "more than half the library's speed"
        )
    if polls_ok == 0 or polls_failed > 0:
        failures.append(
            f"reads starved behind bulk writes: {polls_ok} health+anomaly "
            f"polls answered, {polls_failed} failed during the served "
            "ingest window"
        )
    if not served_p99 > 0:
        failures.append(
            f"served request p99 latency is {served_p99!r}: the latency "
            "measurement did not run"
        )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--baseline",
        type=Path,
        default=Path(__file__).parent / "BENCH_engine.json",
        help="committed baseline JSON (default: benchmarks/BENCH_engine.json)",
    )
    parser.add_argument(
        "--current",
        type=Path,
        default=Path(__file__).parent / "results" / "BENCH_engine.json",
        help="freshly measured JSON (default: benchmarks/results/BENCH_engine.json)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.30,
        help="allowed fractional drop of the normalized ratio (default 0.30)",
    )
    arguments = parser.parse_args(argv)

    baseline = json.loads(arguments.baseline.read_text())
    current = json.loads(arguments.current.read_text())
    for field in ("workload", "scale"):
        baseline_value = baseline.get(field)
        current_value = current.get(field)
        if baseline_value != current_value:
            raise SystemExit(
                f"{field} mismatch: baseline is {baseline_value!r} but the "
                f"current run is {current_value!r}; the two regimes are not "
                "comparable.  Re-run bench_engine_throughput.py with the "
                "baseline's regime (no --smoke, default REPRO_BENCH_SCALE, "
                "for the committed baseline)."
            )
    failed = False
    for metric, label in GATED_METRICS.items():
        baseline_ratio = normalized_ratio(baseline, str(arguments.baseline), metric)
        current_ratio = normalized_ratio(current, str(arguments.current), metric)
        floor = baseline_ratio * (1.0 - arguments.tolerance)
        print(
            f"{GATED_FLEET}-series {label} / raw kernel throughput:\n"
            f"  baseline  {baseline_ratio:8.3f}"
            f"  ({baseline[metric][GATED_FLEET]:12.0f} pts/s,"
            f" workload={baseline.get('workload', '?')})\n"
            f"  current   {current_ratio:8.3f}"
            f"  ({current[metric][GATED_FLEET]:12.0f} pts/s,"
            f" workload={current.get('workload', '?')})\n"
            f"  floor     {floor:8.3f}  (tolerance {arguments.tolerance:.0%})"
        )
        if current_ratio < floor:
            print(
                f"FAIL: {GATED_FLEET}-series normalized {label} throughput "
                f"regressed {1.0 - current_ratio / baseline_ratio:.0%} vs the "
                "committed baseline (allowed: "
                f"{arguments.tolerance:.0%}).  If the regression is "
                "intentional, refresh benchmarks/BENCH_engine.json (see "
                "module docstring)."
            )
            failed = True
    for failure in current_run_checks(current, str(arguments.current)):
        print(f"FAIL: {failure}")
        failed = True
    print(
        f"sharded tier: {current['sharded_series']}-series aggregate is "
        f"{current['sharded_vs_columnar_ratio']:.2f}x the single-process "
        f"{GATED_FLEET}-series columnar ingest across "
        f"{current['sharded_workers']} workers; failover recovery "
        f"{current['failover_recovery_seconds']:.2f}s"
    )
    print(
        f"serving tier: {current['served_clients']} concurrent HTTP "
        f"clients sustained {current['served_vs_inprocess_ratio']:.2f}x "
        "the in-process columnar ingest "
        f"(p50 {current['served_request_p50_ms']:.1f} ms, "
        f"p99 {current['served_request_p99_ms']:.1f} ms; "
        f"{current['served_polls_ok']} read polls answered during ingest)"
    )
    if failed:
        return 1
    print("OK: no large-fleet throughput regression beyond tolerance.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
