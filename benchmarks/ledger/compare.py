"""Compare two sets of ledger runs: parent ``A.json`` against change ``B.json``.

    python3 benchmarks/ledger/compare.py A.json B.json

Both files come from ``run.py --out`` (which appends, so alternate the
two commits run by run: A, B, B, A, ...).  The i-th run of a workload in
``A`` is paired with the i-th in ``B``.  One row per (workload, metric):

improved
    at least ten pairs, the change wins at least nine tenths of them
    (ties count for neither side) and the medians differ by more than
    the distance between the parent's own quartiles.
regressed
    the change's median is worse than the parent's by more than the
    bound the catalogue fixes for the metric.
unresolved
    neither, but the parent's own quartile spread is wider than the
    bound: the runs cannot tell.
unchanged
    neither, and the spread is within the bound.

Every change is given as a share of its base, the parent's median.
Per-layer metrics carry no bound; their rows show the two medians and
the ratio only.  Exit status 1 if any row regressed or any digest of a
seed present on both sides differs.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

import catalog

MIN_PAIRS = 10
WIN_SHARE = 0.9


def _load(path: Path) -> dict:
    """``{(workload, traced): [run, ...]}`` in file order."""
    grouped: dict = {}
    for run in json.loads(path.read_text())["runs"]:
        grouped.setdefault((run["workload"], run["environment"]["traced"]), []).append(run)
    return grouped


def _values(runs: list, name: str) -> list[float]:
    return [run["metrics"][name]["value"] for run in runs if name in run["metrics"]]


def _quartile_spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    first, _middle, third = statistics.quantiles(values, n=4)
    return third - first


def judge(metric: catalog.Metric, parent: list[float], change: list[float]) -> dict:
    """Verdict and the numbers behind it for one (workload, metric)."""
    sign = 1.0 if metric.better == "higher" else -1.0
    base = statistics.median(parent)
    new = statistics.median(change)
    gain = sign * (new - base)  # positive: the change is better
    pairs = list(zip(parent, change))
    wins = sum(1 for a, b in pairs if sign * (b - a) > 0)
    losses = sum(1 for a, b in pairs if sign * (b - a) < 0)
    spread = _quartile_spread(parent)
    scale = abs(base) if base else 1.0
    row = {
        "base": base,
        "new": new,
        "change_share": (new - base) / scale,
        "wins": wins,
        "losses": losses,
        "pairs": len(pairs),
        "spread_share": spread / scale,
    }
    if metric.bound is None:
        row["verdict"] = "-"
    elif len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs) and gain > spread:
        row["verdict"] = "improved"
    elif -gain > metric.bound * scale:
        row["verdict"] = "regressed"
    elif spread > metric.bound * scale:
        row["verdict"] = "unresolved"
    else:
        row["verdict"] = "unchanged"
    return row


def compare(parent_path: Path, change_path: Path) -> int:
    parent = _load(parent_path)
    change = _load(change_path)
    status = 0
    print(f"{'workload':<18} {'metric':<50} {'verdict':<10} {'parent':>12} {'change':>12} "
          f"{'of base':>9} {'wins':>7} {'IQR/base':>9}")
    for key in sorted(parent.keys() & change.keys()):
        workload, traced = key
        names = list(parent[key][0]["metrics"])
        for name in names:
            metric = catalog.METRICS[name]
            # end-to-end metrics are judged on untraced runs only
            if traced and metric.bound is not None:
                continue
            a, b = _values(parent[key], name), _values(change[key], name)
            if not a or not b:
                continue
            row = judge(metric, a, b)
            status |= row["verdict"] == "regressed"
            print(f"{workload:<18} {name:<50} {row['verdict']:<10} {row['base']:>12.6g} "
                  f"{row['new']:>12.6g} {row['change_share']:>+9.1%} "
                  f"{row['wins']:>3}/{row['pairs']:<3} {row['spread_share']:>9.1%}")
        digests = {}
        for side, runs in (("parent", parent[key]), ("change", change[key])):
            for run in runs:
                digests.setdefault(run["environment"]["seed"], {})[side] = run["counts"].get("output_digest")
        for seed, sides in sorted(digests.items()):
            if len(sides) == 2:
                same = sides["parent"] == sides["change"]
                status |= not same
                print(f"{workload:<18} {'output_digest (seed ' + str(seed) + ')':<50} "
                      f"{'same' if same else 'DIFFERS'}")
    for key in sorted(parent.keys() ^ change.keys()):
        print(f"{key[0]:<18} (traced={key[1]}) present on one side only; not compared")
    return status


def main(argv: list[str] | None = None) -> int:
    arguments = sys.argv[1:] if argv is None else argv
    if len(arguments) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    return compare(Path(arguments[0]), Path(arguments[1]))


if __name__ == "__main__":
    sys.exit(main())
