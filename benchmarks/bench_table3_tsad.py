"""Table 3: univariate anomaly detection on the TSB-UAD-like benchmark.

For every dataset family and every detector the harness reports the
average VUS-ROC over the family's series, then aggregates the per-family
averages, the average rank, and the total runtime -- the same three summary
rows as the paper's Table 3.

Expected shape (paper): no single method dominates every family, but
OneShotSTL has the best (lowest) average rank and ties the best average
VUS-ROC, NSigma is surprisingly competitive and by far the fastest, and the
matrix-profile methods win the ECG-like families while the STD methods win
the IoT/AIOps-like families.  Absolute values differ because the data are
synthetic stand-ins (one generated family per TSB-UAD benchmark name, from
:mod:`repro.datasets.tsad_benchmark`, in place of the archive's files).
"""

from __future__ import annotations

import time

import numpy as np

from repro.anomaly import (
    AutoencoderDetector,
    DampDetector,
    NSigmaDetector,
    NormaDetector,
    OneShotSTLDetector,
    OnlineSTLDetector,
    SandDetector,
    StompDetector,
)
from repro.datasets import TSB_UAD_FAMILIES, make_family
from repro.metrics import vus_roc

from helpers import average_rank, is_paper_scale, report


def _families():
    names = [profile.name for profile in TSB_UAD_FAMILIES]
    return names


def _detectors(period: int):
    window = int(min(max(period // 2, 16), 100))
    return [
        ("Autoencoder", lambda: AutoencoderDetector(window=window, epochs=10, sample_stride=4)),
        ("NormA", lambda: NormaDetector(window=window)),
        ("SAND", lambda: SandDetector(window=window)),
        ("STOMPI", lambda: StompDetector(window=window)),
        ("DAMP", lambda: DampDetector(window=window)),
        ("NSigma", lambda: NSigmaDetector()),
        ("OnlineSTL", lambda: OnlineSTLDetector(period)),
        ("OneShotSTL", lambda: OneShotSTLDetector(period)),
    ]


def _collect():
    series_per_family = 2 if is_paper_scale() else 1
    per_family_scores: dict[str, dict[str, float]] = {}
    runtimes: dict[str, float] = {}

    for family_name in _families():
        family = make_family(family_name, series_per_family=series_per_family, seed=7)
        per_family_scores[family_name] = {}
        for detector_name, factory in _detectors(family[0].period):
            scores = []
            start = time.perf_counter()
            for series in family:
                detector = factory()
                point_scores = detector.detect(series.train_values, series.test_values)
                scores.append(
                    vus_roc(
                        series.test_labels,
                        point_scores,
                        max_window=min(series.period // 2, 100),
                        steps=5,
                    )
                )
            runtimes[detector_name] = runtimes.get(detector_name, 0.0) + (
                time.perf_counter() - start
            )
            per_family_scores[family_name][detector_name] = float(np.mean(scores))

    rows = []
    for family_name, scores in per_family_scores.items():
        row = {"dataset": family_name}
        row.update(scores)
        rows.append(row)

    method_names = [name for name, _ in _detectors(100)]
    averages = {
        name: float(np.mean([per_family_scores[f][name] for f in per_family_scores]))
        for name in method_names
    }
    ranks = average_rank(per_family_scores, higher_is_better=True)
    rows.append({"dataset": "Avg. VUS-ROC", **averages})
    rows.append({"dataset": "Avg. Rank", **{name: ranks[name] for name in method_names}})
    rows.append({"dataset": "Time (s)", **{name: runtimes[name] for name in method_names}})
    return rows, averages, ranks, runtimes


def test_table3_tsad_benchmark(run_once):
    rows, averages, ranks, runtimes = run_once(_collect)
    report("table3_tsad", "Table 3: TSAD VUS-ROC on the TSB-UAD-like benchmark", rows)

    # Shape checks mirroring the paper's conclusions (no single method wins
    # everywhere; the STD family is competitive on average and NSigma is by
    # far the fastest).  Absolute rankings shift with the synthetic data, so
    # the assertions are deliberately coarse.
    method_count = len(ranks)
    sorted_by_rank = sorted(ranks, key=ranks.get)
    # The decomposition-based detectors sit in the top half of the field.
    assert sorted_by_rank.index("OnlineSTL") < method_count / 2, ranks
    assert sorted_by_rank.index("OneShotSTL") < method_count * 0.75, ranks
    # OneShotSTL is clearly better than chance and competitive with plain
    # NSigma (which it extends).
    assert averages["OneShotSTL"] > 0.5
    assert averages["OneShotSTL"] > averages["NSigma"] - 0.1
    # No method wins every family (the paper's "no free lunch" observation).
    winners = {
        max(scores, key=scores.get)
        for scores in (
            {m: rows[i][m] for m in averages} for i in range(len(rows) - 3)
        )
    }
    assert len(winners) > 1
    # NSigma is the fastest method by a wide margin.
    assert runtimes["NSigma"] == min(runtimes.values())
