"""The repository benchmark: one command, every metric by name.

    python3 benchmarks/ledger/run.py [--workload NAME] [--seed N]
        [--seconds S] [--traced | --trace {0,1}] [--scale full|smoke]
        [--repeat N] [--out FILE]

Without ``--traced`` a run measures the end-to-end metrics; with it, the
per-layer ones (see ``ladder.py``) and ``results/trace_<workload>.json``.
Each workload runs in a process of its own: the one this command starts
in when ``--workload`` is given, a child per workload (and per repeat)
otherwise.  Output checks run inside every workload; a failed check
counts into ``failed_share`` and makes the command exit non-zero.

The last line of a single-workload run is the result object of the
driver contract in ``BENCHMARK.json``.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()  # set-up time counts from process start

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

LEDGER = Path(__file__).resolve().parent
ROOT = LEDGER.parents[1]
RESULTS = LEDGER / "results"
DEFAULT_SEED = 7
#: --repeat: (max - min) / median every end-to-end metric must stay within
REPEATABILITY = 0.10


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload (default: all seven)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, help="length of the timed window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", dest="trace", action="store_const", const=1)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--repeat", type=int, default=1, help="runs per workload; prints quartiles")
    parser.add_argument("--out", type=Path, help="append the runs to this JSON file")
    return parser


# ------------------------------------------------------------- one workload


def _filesystem_of(path: Path) -> str:
    """Filesystem type holding ``path`` (fsync numbers mean nothing without it)."""
    best, kind = "", "unknown"
    try:
        mounts = Path("/proc/mounts").read_text().splitlines()
    except OSError:
        return kind
    target = str(path.resolve())
    for line in mounts:
        _device, mount, fstype = line.split()[:3]
        if target.startswith(mount.rstrip("/") + "/") or target == mount:
            if len(mount) > len(best):
                best, kind = mount, fstype
    return kind


def _git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` (no child process: a
    forked ``git`` would count into ``peak_rss_mb``)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        reference = head[5:]
        loose = git / reference
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + reference):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _environment(arguments, seconds: float) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "seed": arguments.seed,
        "scale": arguments.scale,
        "seconds": seconds,
        "traced": bool(arguments.trace),
        "store_filesystem": _filesystem_of(RESULTS),
    }


def run_workload(arguments) -> dict:
    """Run one workload in this process and return its record."""
    import catalog
    import workloads
    from load import SCALES
    from measure import Tracer

    if arguments.workload not in catalog.WORKLOADS:
        raise SystemExit(f"unknown workload {arguments.workload!r}; one of {list(catalog.WORKLOADS)}")
    scale = SCALES[arguments.scale]
    seconds = scale.seconds if arguments.seconds is None else arguments.seconds
    tracer = Tracer() if arguments.trace else None
    RESULTS.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=RESULTS))
    environment = _environment(arguments, seconds)
    try:
        run = workloads.Run(scale, arguments.seed, seconds, tracer, scratch, STARTED)
        outcome = getattr(workloads, arguments.workload)(run)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if tracer is not None:
        tracer.write(
            RESULTS / f"trace_{arguments.workload}.json",
            {"workload": arguments.workload, "environment": environment},
        )
    metrics = {
        name: {"value": float(value), "unit": catalog.METRICS[name].unit}
        for name, value in outcome.metrics.items()
    }
    return {
        "workload": arguments.workload,
        "environment": environment,
        "metrics": metrics,
        "counts": outcome.counts,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "failures": outcome.failures,
    }


def _print_record(record: dict) -> None:
    print(f"== {record['workload']}  seed {record['environment']['seed']}"
          f"  scale {record['environment']['scale']}"
          f"  {'traced' if record['environment']['traced'] else 'end-to-end'}")
    for name, entry in record["metrics"].items():
        print(f"  {name:<52} {entry['value']:>14.6g} {entry['unit']}")
    for name, value in record["counts"].items():
        print(f"  # {name:<50} {value}")
    print(f"  # attempted {record['attempted']}  failed {record['failed']}")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")


def _contract_line(record: dict) -> str:
    """The driver's result object: every declared metric, by name.

    A per-layer metric the workload does not report reads 0: that layer
    is not on the workload's path, so it spends nothing there.
    """
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = "per_layer" if record["environment"]["traced"] else "end_to_end"
    metrics = {}
    for entry in declared[section]:
        found = record["metrics"].get(entry["name"])
        metrics[entry["name"]] = {
            "value": found["value"] if found else 0.0,
            "unit": entry["unit"],
        }
    return json.dumps(
        {
            "correct": record["failed"] == 0,
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": metrics,
        }
    )


def _append(path: Path, records: list[dict]) -> None:
    document = json.loads(path.read_text()) if path.exists() else {"runs": []}
    document["runs"].extend(records)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=1) + "\n")


# ------------------------------------------------------------ many workloads


def _child(arguments, workload: str, handoff: Path) -> dict | None:
    """Run one workload in a fresh process; None if it produced nothing."""
    command = [
        sys.executable,
        str(LEDGER / "run.py"),
        "--workload", workload,
        "--seed", str(arguments.seed),
        "--trace", str(arguments.trace),
        "--scale", arguments.scale,
        "--out", str(handoff),
    ]
    if arguments.seconds is not None:
        command += ["--seconds", str(arguments.seconds)]
    handoff.unlink(missing_ok=True)
    done = subprocess.run(command, capture_output=True, text=True, timeout=900)
    if not handoff.exists():
        print(f"== {workload}: no result (exit {done.returncode})\n{done.stderr}", file=sys.stderr)
        return None
    record = json.loads(handoff.read_text())["runs"][-1]
    record["exit_code"] = done.returncode
    return record


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    first, middle, third = statistics.quantiles(values, n=4)
    return first, middle, third


def _print_repeats(workload: str, records: list[dict]) -> bool:
    """Median and quartiles per metric; True if the repeatability rule holds."""
    import catalog

    print(f"== {workload}: {len(records)} runs")
    steady = True
    for name in records[0]["metrics"]:
        values = [record["metrics"][name]["value"] for record in records if name in record["metrics"]]
        first, middle, third = _quartiles(values)
        spread = (max(values) - min(values)) / middle if middle else 0.0
        metric = catalog.METRICS[name]
        gated = metric.bound is not None and name != "setup_s"
        verdict = ""
        if gated and spread > max(REPEATABILITY, metric.bound):
            verdict = "  UNSTEADY"
            steady = False
        print(f"  {name:<52} {middle:>14.6g} {metric.unit:<9}"
              f" q1 {first:.6g} q3 {third:.6g} spread {spread:.3f}{verdict}")
    exact = {json.dumps(record["counts"].get("output_digest")) for record in records}
    if len(exact) > 1:
        print("  UNSTEADY output_digest differs between runs of one seed")
        steady = False
    return steady


def run_many(arguments) -> int:
    import catalog

    names = [arguments.workload] if arguments.workload else list(catalog.WORKLOADS)
    RESULTS.mkdir(exist_ok=True)
    handoff = Path(tempfile.mkdtemp(prefix="handoff-", dir=RESULTS))
    status = 0
    try:
        for workload in names:
            records = []
            for _ in range(arguments.repeat):
                record = _child(arguments, workload, handoff / "record.json")
                if record is None:
                    status = 1
                    continue
                records.append(record)
                if record["failed"] or record["exit_code"]:
                    status = 1
            if not records:
                continue
            if arguments.repeat == 1:
                _print_record(records[0])
            elif not _print_repeats(workload, records):
                status = 1
            if arguments.out is not None:
                _append(arguments.out, records)
    finally:
        shutil.rmtree(handoff, ignore_errors=True)
    print("OK: every workload ran and every output check passed." if status == 0
          else "FAILED: see above.")
    return status


def main(argv: list[str] | None = None) -> int:
    arguments = _parser().parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"run.py: no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if arguments.workload is None or arguments.repeat > 1:
        return run_many(arguments)
    record = run_workload(arguments)
    _print_record(record)
    if arguments.out is not None:
        _append(arguments.out, [record])
    print(_contract_line(record))
    return 1 if record["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
