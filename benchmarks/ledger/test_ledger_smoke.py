"""Smoke self-test of the ledger benchmark (collected by the tier-1 run).

Runs every workload once at ``--scale smoke`` -- traced, which also runs
the end-to-end window -- and checks the benchmark's own promises: every
name ``BENCHMARK.json`` declares is emitted with its unit, the catalogue
and ``BENCHMARK.json`` agree, exact outputs repeat for a seed and move
with it, and no process or temporary store is left behind.  Timings at
this scale mean nothing and are not looked at.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

LEDGER = Path(__file__).resolve().parent
ROOT = LEDGER.parents[1]
RUN = LEDGER / "run.py"
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

sys.path.insert(0, str(LEDGER))
import catalog  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, seed: int, trace: int) -> dict:
    """One smoke run; its record and the driver's result object."""
    out = LEDGER / "results" / f"smoke-{workload}-{seed}-{trace}.json"
    out.unlink(missing_ok=True)
    done = subprocess.run(
        [
            sys.executable, str(RUN),
            "--workload", workload,
            "--seed", str(seed),
            "--trace", str(trace),
            "--scale", "smoke",
            "--out", str(out),
        ],
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert done.returncode == 0, f"{workload}: exit {done.returncode}\n{done.stdout}\n{done.stderr}"
    record = json.loads(out.read_text())["runs"][-1]
    out.unlink()
    record["result"] = json.loads(done.stdout.strip().splitlines()[-1])
    return record


@pytest.fixture(scope="module")
def traced_runs() -> dict:
    # two at a time: smoke runs are checked for content, never for speed
    with ThreadPoolExecutor(max_workers=2) as pool:
        records = pool.map(lambda workload: _run(workload, 7, 1), catalog.WORKLOADS)
    return dict(zip(catalog.WORKLOADS, records))


def test_benchmark_json_matches_catalogue():
    assert set(DECLARED) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert DECLARED["paths"] == ["benchmarks/ledger"]
    assert {w["name"]: w["why"] for w in DECLARED["workloads"]} == catalog.WORKLOADS
    declared = DECLARED["end_to_end"] + DECLARED["per_layer"]
    names = [entry["name"] for entry in declared]
    assert len(names) == len(set(names))
    assert set(names) == set(catalog.METRICS)
    assert [entry["name"] for entry in DECLARED["end_to_end"]] == list(catalog.UNIVERSAL)
    for entry in declared:
        metric = catalog.METRICS[entry["name"]]
        assert NAME.fullmatch(entry["name"])
        assert (entry["unit"], entry["better"]) == (metric.unit, metric.better)
        if "bound" in entry:
            assert entry["bound"] == metric.bound and 0 < metric.bound <= 0.25
    for entry in DECLARED["end_to_end"]:
        assert catalog.METRICS[entry["name"]].workloads == catalog.ALL


def test_every_declared_name_is_emitted_with_its_unit(traced_runs):
    emitted: dict = {}
    for workload, record in traced_runs.items():
        assert record["failed"] == 0 and record["failures"] == [], (workload, record["failures"])
        assert record["result"]["correct"] is True
        for name, entry in record["metrics"].items():
            assert workload in catalog.METRICS[name].workloads, (workload, name)
            emitted.setdefault(name, set()).add(entry["unit"])
        # the driver's line carries every declared per-layer name
        assert list(record["result"]["metrics"]) == [e["name"] for e in DECLARED["per_layer"]]
    for entry in DECLARED["end_to_end"] + DECLARED["per_layer"]:
        assert emitted.get(entry["name"]) == {entry["unit"]}, entry["name"]
    for name in catalog.UNIVERSAL:
        assert all(name in record["metrics"] for record in traced_runs.values())


def test_traces_are_written(traced_runs):
    for workload in traced_runs:
        trace = json.loads((LEDGER / "results" / f"trace_{workload}.json").read_text())
        spans = trace["spans"]
        names = {span[2] for span in spans}
        assert {"window", "ladder"} <= names or workload == "paper_scalar", (workload, names)
        identities = {span[0] for span in spans}
        assert all(span[1] == -1 or span[1] in identities for span in spans)
        assert all(span[5] >= span[4] for span in spans)


def test_exact_outputs_repeat_for_a_seed_and_move_with_it(traced_runs):
    exact = ("output_digest", "flagged_points", "injected_spikes", "wal_tail_bytes")
    for workload in ("fleet_anomalous", "durable_session"):
        first = traced_runs[workload]["counts"]
        again = _run(workload, 7, 0)
        other = _run(workload, 8, 0)
        # the end-to-end line carries every declared end-to-end name, none 0
        assert list(again["result"]["metrics"]) == list(catalog.UNIVERSAL)
        assert all(entry["value"] > 0 for entry in again["result"]["metrics"].values())
        for name in exact:
            assert again["counts"].get(name) == first.get(name), (workload, name)
        assert other["counts"]["output_digest"] != first["output_digest"]
    assert (
        traced_runs["durable_session"]["counts"]["output_digest"]
        == traced_runs["fleet_clean"]["counts"]["output_digest"]
    ), "the durable session must produce exactly the plain engine's floats"


def test_nothing_outlives_a_run(traced_runs):
    leftovers = [path.name for path in (LEDGER / "results").iterdir() if path.is_dir()]
    assert leftovers == [], f"temporary stores left behind: {leftovers}"
    marker = str(LEDGER / "results").encode()
    alive = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                command = (entry / "cmdline").read_bytes()
            except OSError:
                continue
            if marker in command or (str(RUN).encode() in command and b"--workload" in command):
                alive.append(command.replace(b"\0", b" ").decode(errors="replace"))
    assert alive == [], f"processes left behind: {alive}"


def test_exits_non_zero_without_the_program(tmp_path):
    bare = tmp_path / "benchmarks" / "ledger"
    bare.mkdir(parents=True)
    for source in LEDGER.glob("*.py"):
        (bare / source.name).write_text(source.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, str(bare / "run.py"), "--workload", "fleet_clean", "--scale", "smoke"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert done.returncode != 0
    assert done.stdout == ""
