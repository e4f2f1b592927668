"""Figure 7: per-point update latency versus the seasonal period T.

The paper's headline efficiency result: every existing method's per-point
cost grows linearly with T, while OneShotSTL's is flat.  The harness
repeats Syn1 to build a long stream, sweeps T, measures the mean per-point
update latency of each online method and reports the table behind the
figure.  Absolute numbers are Python-interpreter-bound (the paper's 20
microseconds refer to a Java implementation); the *scaling shape* -- flat
for OneShotSTL, linear for the others, with a crossover once T grows past a
few hundred -- is the reproduced claim.
"""

from __future__ import annotations

import numpy as np

from repro.core import OneShotSTL
from repro.datasets import make_syn1, repeat_series
from repro.decomposition import OnlineRobustSTL, OnlineSTL, WindowSTL
from repro.streaming import measure_update_latency

from helpers import is_paper_scale, report


def _periods():
    if is_paper_scale():
        return [100, 200, 400, 800, 1600, 3200, 6400, 12800]
    return [100, 200, 400, 800, 1600]


def _stream(period: int, total_points: int):
    base = make_syn1(length=max(6 * period, 3000), period=period, seed=3)
    return repeat_series(base.values, total_points)


def _collect():
    rows = []
    paper = is_paper_scale()
    fast_points = 2000 if paper else 300
    slow_points = 20 if paper else 3
    for period in _periods():
        total = 5 * period + max(fast_points, 2000)
        stream = _stream(period, total)
        initialization = stream[: 4 * period]
        online = stream[4 * period :]

        methods = [
            (
                "OneShotSTL",
                OneShotSTL(period, shift_window=20),
                fast_points,
            ),
            ("OnlineSTL", OnlineSTL(period), fast_points),
            ("Window-STL", WindowSTL(period), slow_points),
        ]
        # The sliding-window RobustSTL baseline becomes impractically slow for
        # long periods (that is the point of the figure); cap it so the small
        # default run stays laptop friendly.
        if period <= 800 or is_paper_scale():
            methods.append(
                ("OnlineRobustSTL", OnlineRobustSTL(period, iterations=2), slow_points)
            )
        for name, method, max_points in methods:
            latency = measure_update_latency(
                method, initialization, online, max_points=max_points, name=name
            )
            rows.append(
                {
                    "period": period,
                    "method": name,
                    "mean_us": latency.mean_microseconds,
                    "median_us": latency.median_seconds * 1e6,
                    "points": latency.points,
                }
            )
    return rows


def test_figure7_latency_scaling(run_once):
    rows = run_once(_collect)
    report("figure7_latency", "Figure 7: per-point latency vs period length", rows)

    latencies: dict[str, dict[int, float]] = {}
    for row in rows:
        latencies.setdefault(row["method"], {})[row["period"]] = row["mean_us"]

    def growth(method: str) -> float:
        periods = sorted(latencies[method])
        return latencies[method][periods[-1]] / latencies[method][periods[0]]

    largest = max(latencies["OneShotSTL"])
    # OneShotSTL's latency is (nearly) flat in T...
    assert growth("OneShotSTL") < 3.0
    # ...while the O(T) methods grow with T (at least 3x over the sweep).
    assert growth("OnlineSTL") > 3.0
    assert growth("Window-STL") > 3.0
    # At the largest period OneShotSTL is far faster than the window/batch
    # style baselines.  (The comparison against OnlineSTL's absolute latency
    # does not transfer to pure Python: OnlineSTL's per-point work is one
    # vectorized numpy reduction while OneShotSTL's constant work is
    # interpreted, so its ~1 ms floor dominates until T reaches tens of
    # thousands.)
    assert latencies["OneShotSTL"][largest] < latencies["Window-STL"][largest]
    damp_like = latencies.get("OnlineRobustSTL", {})
    if damp_like:
        assert latencies["OneShotSTL"][largest] < max(damp_like.values())
