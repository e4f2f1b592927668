"""LOESS (locally weighted regression) smoothing.

This is the smoothing primitive behind the classic STL decomposition
(Cleveland et al. 1990) and the OnlineSTL trend filter.  The implementation
performs degree-0 or degree-1 local regression with the tricube kernel and
optional per-point robustness weights (used by STL's outer loop).

Interior points, whose neighbourhood is a full window, are computed with a
vectorized convolution formulation; points near the boundaries fall back to
an explicit small loop.  This keeps the cost at ``O(n * window)`` with
numpy doing the heavy lifting.

Without robustness weights the regression weights depend on the series
length and the span only, so the unweighted local-linear smooth -- STL's
low-pass filter and, until an outer pass has produced weights, its trend
smoother -- reads every data-free quantity from a table computed once per
``(n, window)`` (:func:`_unweighted_tables`) and is left with the sums
over the data, on the same operands in the same calls: the same bits.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.utils import as_float_array, check_positive_int

__all__ = ["tricube_weights", "loess_smooth", "moving_average"]


def tricube_weights(distances: np.ndarray) -> np.ndarray:
    """Tricube kernel ``(1 - |u|^3)^3`` clipped to zero outside ``|u| < 1``."""
    distances = np.abs(np.asarray(distances, dtype=float))
    weights = np.clip(1.0 - distances ** 3, 0.0, None) ** 3
    return weights


def moving_average(values: np.ndarray, window: int) -> np.ndarray:
    """Centered moving average returning a series of length ``len(values) - window + 1``."""
    values = as_float_array(values, "values")
    window = check_positive_int(window, "window")
    if window > values.size:
        raise ValueError("window cannot exceed the series length")
    cumulative = np.concatenate([[0.0], np.cumsum(values)])
    return (cumulative[window:] - cumulative[:-window]) / window


def _point_fit(
    values: np.ndarray,
    robustness: np.ndarray,
    center: int,
    half: int,
    degree: int,
) -> float:
    """Fit the local regression at ``center`` explicitly (boundary handling)."""
    n = values.size
    start = max(0, center - half)
    stop = min(n, center + half + 1)
    offsets = np.arange(start, stop) - center
    span = max(abs(offsets[0]), abs(offsets[-1])) + 1.0
    weights = tricube_weights(offsets / span) * robustness[start:stop]
    total = weights.sum()
    if total <= 0:
        return float(values[center])
    if degree == 0:
        return float(np.dot(weights, values[start:stop]) / total)
    s0 = total
    s1 = np.dot(weights, offsets)
    s2 = np.dot(weights, offsets ** 2)
    t0 = np.dot(weights, values[start:stop])
    t1 = np.dot(weights, offsets * values[start:stop])
    denominator = s0 * s2 - s1 ** 2
    if abs(denominator) < 1e-12:
        return float(t0 / s0)
    intercept = (s2 * t0 - s1 * t1) / denominator
    return float(intercept)


@lru_cache(maxsize=16)
def _unweighted_tables(n: int, window: int) -> tuple:
    """Everything an unweighted degree-1 smooth knows before it sees data.

    ``(kernel, kernel_offsets, interior, boundary)`` for ``n >= window``
    (odd): the full-window kernel, plain and times its offsets; the
    interior's ``s1``, ``s2``, ``safe`` and the two guarded divisors, from
    the very calls :func:`loess_smooth` makes on an all-ones weight
    vector; and, per boundary centre, ``(center, start, stop, weights,
    offsets, s0, s1, s2, denominator)`` as :func:`_point_fit` computes
    them.  A boundary
    centre's span is ``half + 1`` on both edges, so its weight vector is a
    slice of the one kernel and the table stays ``O(n + window)``.  The
    arrays are shared between calls and read-only.
    """
    half = window // 2
    offsets = np.arange(-half, half + 1, dtype=float)
    kernel = tricube_weights(offsets / (half + 1.0))
    kernel_offsets = kernel * offsets
    ones = np.ones(n)
    s0 = np.correlate(ones, kernel, mode="valid")
    s1 = np.correlate(ones, kernel_offsets, mode="valid")
    s2 = np.correlate(ones, kernel * offsets ** 2, mode="valid")
    denominator = s0 * s2 - s1 ** 2
    safe = np.abs(denominator) > 1e-12
    interior = (
        s1,
        s2,
        safe,
        np.where(safe, denominator, 1.0),
        np.where(s0 > 0, s0, 1.0),
    )
    for array in (kernel, offsets, kernel_offsets, *interior):
        array.setflags(write=False)
    boundary = []
    for center in (*range(half), *range(n - half, n)):
        start = max(0, center - half)
        stop = min(n, center + half + 1)
        first = start - center + half
        weights = kernel[first : first + stop - start]
        int_offsets = np.arange(start, stop) - center
        total = weights.sum()
        moment1 = np.dot(weights, int_offsets)
        moment2 = np.dot(weights, int_offsets ** 2)
        boundary.append(
            (
                center,
                start,
                stop,
                weights,
                offsets[first : first + stop - start],
                total,
                moment1,
                moment2,
                total * moment2 - moment1 ** 2,
            )
        )
    return kernel, kernel_offsets, interior, boundary


def _smooth_unweighted(values: np.ndarray, window: int) -> np.ndarray:
    """Degree-1 LOESS of ``values`` with unit weights, ``n >= window``."""
    n = values.size
    half = window // 2
    kernel, kernel_offsets, interior, boundary = _unweighted_tables(n, window)
    s1, s2, safe, safe_denominator, positive_s0 = interior
    t0 = np.correlate(values, kernel, mode="valid")
    t1 = np.correlate(values, kernel_offsets, mode="valid")
    smoothed = np.empty(n)
    smoothed[half : n - half] = np.where(
        safe, (s2 * t0 - s1 * t1) / safe_denominator, t0 / positive_s0
    )
    for center, start, stop, weights, offsets, total, m1, m2, denominator in boundary:
        window_values = values[start:stop]
        fit0 = np.dot(weights, window_values)
        if abs(denominator) < 1e-12:
            smoothed[center] = fit0 / total
        else:
            fit1 = np.dot(weights, offsets * window_values)
            smoothed[center] = (m2 * fit0 - m1 * fit1) / denominator
    return smoothed


def loess_smooth(
    values,
    window: int,
    degree: int = 1,
    robustness_weights: np.ndarray | None = None,
) -> np.ndarray:
    """Smooth ``values`` with LOESS.

    Parameters
    ----------
    values:
        One-dimensional series.
    window:
        Smoothing span (number of neighbours considered).  Even values are
        rounded up to the next odd number.
    degree:
        Local polynomial degree, ``0`` (weighted average) or ``1`` (local
        linear regression).
    robustness_weights:
        Optional per-point weights in ``[0, 1]`` (from STL's outer loop);
        defaults to all ones.

    Returns
    -------
    numpy.ndarray
        The smoothed series, same length as the input.
    """
    values = as_float_array(values, "values")
    window = check_positive_int(window, "window")
    if degree not in (0, 1):
        raise ValueError("degree must be 0 or 1")
    if window % 2 == 0:
        window += 1
    n = values.size
    if window >= 2 * n:
        window = 2 * (n - 1) + 1
    half = window // 2
    if robustness_weights is None and degree == 1 and n >= window > 1:
        return _smooth_unweighted(values, window)
    if robustness_weights is None:
        robustness = np.ones(n)
    else:
        robustness = np.asarray(robustness_weights, dtype=float)
        if robustness.shape != values.shape:
            raise ValueError("robustness_weights must match the series length")

    smoothed = np.empty(n)
    if half == 0:
        return values.copy()

    # Vectorized interior: the kernel weights only depend on the offset, so
    # every weighted sum is a correlation of the series with a fixed kernel.
    if n >= window:
        offsets = np.arange(-half, half + 1, dtype=float)
        kernel = tricube_weights(offsets / (half + 1.0))
        weighted = robustness * values
        s0 = np.correlate(robustness, kernel, mode="valid")
        t0 = np.correlate(weighted, kernel, mode="valid")
        if degree == 0:
            interior = t0 / np.where(s0 > 0, s0, 1.0)
        else:
            s1 = np.correlate(robustness, kernel * offsets, mode="valid")
            s2 = np.correlate(robustness, kernel * offsets ** 2, mode="valid")
            t1 = np.correlate(weighted, kernel * offsets, mode="valid")
            denominator = s0 * s2 - s1 ** 2
            safe = np.abs(denominator) > 1e-12
            interior = np.where(
                safe,
                (s2 * t0 - s1 * t1) / np.where(safe, denominator, 1.0),
                t0 / np.where(s0 > 0, s0, 1.0),
            )
        smoothed[half : n - half] = interior
        boundary_indices = list(range(half)) + list(range(n - half, n))
    else:
        boundary_indices = list(range(n))

    for center in boundary_indices:
        smoothed[center] = _point_fit(values, robustness, center, half, degree)
    return smoothed
