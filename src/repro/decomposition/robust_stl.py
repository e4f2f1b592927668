"""RobustSTL (Wen et al. 2018) -- robust batch seasonal-trend decomposition.

RobustSTL is the strongest batch baseline in the paper (Table 2 and
Figures 5/6): it handles abrupt trend changes and seasonality shifts by
combining

1. **bilateral denoising** of the raw series,
2. **robust trend extraction** on the seasonally differenced series: the
   trend is the solution of a least-absolute-deviation regression with l1
   penalties on its first and second differences, which preserves sharp
   level shifts, and
3. **non-local seasonal filtering**: each point's seasonal value is a
   similarity-weighted average of detrended values at the same phase in
   neighbouring periods, which adapts to slowly changing seasonal shapes.

Documented substitution: the original implementation solves the trend LAD
step with ADMM; this reproduction uses IRLS (iteratively reweighted least
squares) on the same objective, solved with sparse factorizations.  IRLS
converges to the same optimum for these convex objectives and keeps the
dependency footprint to numpy/scipy.
"""

from __future__ import annotations

import numpy as np

from repro.decomposition.base import BatchDecomposer, DecompositionResult
from repro.utils import as_float_array, check_period, check_positive, check_positive_int

__all__ = ["RobustSTL", "bilateral_filter"]


def bilateral_filter(
    values: np.ndarray,
    window: int = 5,
    sigma_time: float = 2.0,
    sigma_value: float | None = None,
) -> np.ndarray:
    """Edge-preserving bilateral smoothing of a 1-D series.

    Each output value is a weighted average of its neighbours where the
    weights decay both with temporal distance and with value dissimilarity,
    so spikes and level shifts are not smeared.
    """
    values = as_float_array(values, "values")
    window = check_positive_int(window, "window")
    sigma_time = check_positive(sigma_time, "sigma_time")
    if sigma_value is None:
        scale = np.std(values)
        sigma_value = float(scale) if scale > 0 else 1.0
    sigma_value = check_positive(sigma_value, "sigma_value")

    n = values.size
    smoothed = np.empty(n)
    offsets = np.arange(-window, window + 1)
    time_weights = np.exp(-0.5 * (offsets / sigma_time) ** 2)
    for index in range(n):
        start = max(0, index - window)
        stop = min(n, index + window + 1)
        neighbourhood = values[start:stop]
        local_time = time_weights[start - index + window : stop - index + window]
        value_weights = np.exp(
            -0.5 * ((neighbourhood - values[index]) / sigma_value) ** 2
        )
        weights = local_time * value_weights
        smoothed[index] = np.dot(weights, neighbourhood) / weights.sum()
    return smoothed


class RobustSTL(BatchDecomposer):
    """Robust batch decomposition with l1 trend extraction.

    Parameters
    ----------
    period:
        Seasonal period length ``T``.
    trend_smoothness / trend_curvature:
        Weights of the l1 penalties on the first and second trend
        differences (``lambda_1`` and ``lambda_2`` in the original paper).
    denoise_window / denoise_sigma_time:
        Bilateral pre-filter parameters.
    seasonal_neighbours:
        Number of neighbouring periods considered by the non-local seasonal
        filter on each side.
    seasonal_bandwidth:
        Half width (in samples) of the phase neighbourhood within each
        considered period.
    seasonal_sigma:
        Value-similarity scale of the non-local filter; defaults to the
        standard deviation of the detrended series.
    iterations:
        IRLS iterations of the trend step.
    """

    def __init__(
        self,
        period: int,
        trend_smoothness: float = 1.0,
        trend_curvature: float = 0.5,
        denoise_window: int = 3,
        denoise_sigma_time: float = 2.0,
        seasonal_neighbours: int = 2,
        seasonal_bandwidth: int = 2,
        seasonal_sigma: float | None = None,
        iterations: int = 8,
        epsilon: float = 1e-6,
    ):
        self.period = check_period(period)
        self.trend_smoothness = check_positive(trend_smoothness, "trend_smoothness")
        self.trend_curvature = check_positive(trend_curvature, "trend_curvature")
        self.denoise_window = check_positive_int(denoise_window, "denoise_window")
        self.denoise_sigma_time = check_positive(denoise_sigma_time, "denoise_sigma_time")
        self.seasonal_neighbours = check_positive_int(
            seasonal_neighbours, "seasonal_neighbours"
        )
        self.seasonal_bandwidth = check_positive_int(
            seasonal_bandwidth, "seasonal_bandwidth", minimum=0
        )
        self.seasonal_sigma = seasonal_sigma
        self.iterations = check_positive_int(iterations, "iterations")
        self.epsilon = check_positive(epsilon, "epsilon")

    # ------------------------------------------------------------------ API

    def decompose(self, values) -> DecompositionResult:
        values = as_float_array(values, "values", min_length=2 * self.period)
        denoised = bilateral_filter(
            values, window=self.denoise_window, sigma_time=self.denoise_sigma_time
        )
        trend = self._extract_trend(denoised)
        detrended = values - trend
        seasonal = self._nonlocal_seasonal(detrended)
        # Remove the per-period mean from the seasonal component so that the
        # level stays in the trend (the original paper imposes the same
        # normalization as a constraint).
        adjustment = seasonal.mean()
        seasonal = seasonal - adjustment
        trend = trend + adjustment
        residual = values - trend - seasonal
        return DecompositionResult(
            observed=values,
            trend=trend,
            seasonal=seasonal,
            residual=residual,
            period=self.period,
        )

    # ------------------------------------------------------------- internals

    def _extract_trend(self, denoised: np.ndarray) -> np.ndarray:
        """Robust trend via LAD regression on the seasonal difference.

        Minimizes (over the trend ``tau``)

            sum_t |d_t - (tau_t - tau_{t-T})|
            + lambda_1 * sum_t |tau_t - tau_{t-1}|
            + lambda_2 * sum_t |tau_t - 2 tau_{t-1} + tau_{t-2}|

        where ``d_t = y~_t - y~_{t-T}`` is the seasonally differenced,
        denoised series.  The seasonal component cancels from ``d`` (up to
        its slow variation), so the fit term sees only the trend change
        across one period and sharp trend breaks are preserved.
        """
        # scipy is imported here, not at module level, so the online
        # import path (repro.core, repro.streaming) never loads it.
        from scipy import sparse
        from scipy.sparse.linalg import splu

        n = denoised.size
        period = self.period
        seasonal_difference = denoised[period:] - denoised[:-period]

        rows = np.arange(n - period)
        fit_matrix = sparse.csr_matrix(
            (
                np.concatenate([np.ones(n - period), -np.ones(n - period)]),
                (np.concatenate([rows, rows]), np.concatenate([rows + period, rows])),
            ),
            shape=(n - period, n),
        )
        rows = np.arange(n - 1)
        first_diff = sparse.csr_matrix(
            (
                np.concatenate([np.ones(n - 1), -np.ones(n - 1)]),
                (np.concatenate([rows, rows]), np.concatenate([rows + 1, rows])),
            ),
            shape=(n - 1, n),
        )
        rows = np.arange(n - 2)
        second_diff = sparse.csr_matrix(
            (
                np.concatenate([np.ones(n - 2), -2.0 * np.ones(n - 2), np.ones(n - 2)]),
                (
                    np.concatenate([rows, rows, rows]),
                    np.concatenate([rows + 2, rows + 1, rows]),
                ),
            ),
            shape=(n - 2, n),
        )
        # Anchor the overall level: the trend mean should match the series
        # mean over the first period (the constant is otherwise free).
        anchor = sparse.csr_matrix(
            (np.full(period, 1.0 / period), (np.zeros(period, dtype=int), np.arange(period))),
            shape=(1, n),
        )
        anchor_target = np.array([denoised[:period].mean()])

        trend = np.full(n, denoised.mean())
        for _ in range(self.iterations):
            fit_residual = seasonal_difference - fit_matrix @ trend
            fit_weights = 0.5 / np.maximum(np.abs(fit_residual), self.epsilon)
            first_weights = 0.5 / np.maximum(np.abs(first_diff @ trend), self.epsilon)
            second_weights = 0.5 / np.maximum(np.abs(second_diff @ trend), self.epsilon)
            system = (
                fit_matrix.T @ sparse.diags(fit_weights) @ fit_matrix
                + self.trend_smoothness
                * (first_diff.T @ sparse.diags(first_weights) @ first_diff)
                + self.trend_curvature
                * (second_diff.T @ sparse.diags(second_weights) @ second_diff)
                + anchor.T @ anchor
            )
            rhs = (
                fit_matrix.T @ (fit_weights * seasonal_difference)
                + anchor.T @ anchor_target
            )
            trend = splu(system.tocsc()).solve(np.asarray(rhs).ravel())
        return trend

    def _nonlocal_seasonal(self, detrended: np.ndarray) -> np.ndarray:
        """Non-local seasonal filtering of the detrended series."""
        n = detrended.size
        period = self.period
        sigma = self.seasonal_sigma
        if sigma is None:
            scale = np.std(detrended)
            sigma = float(scale) if scale > 0 else 1.0
        seasonal = np.empty(n)
        for index in range(n):
            positions = []
            for cycle in range(1, self.seasonal_neighbours + 1):
                for direction in (-1, 1):
                    center = index + direction * cycle * period
                    for offset in range(-self.seasonal_bandwidth, self.seasonal_bandwidth + 1):
                        position = center + offset
                        if 0 <= position < n:
                            positions.append(position)
            if not positions:
                seasonal[index] = detrended[index]
                continue
            positions = np.asarray(positions)
            neighbours = detrended[positions]
            weights = np.exp(-0.5 * ((neighbours - detrended[index]) / sigma) ** 2)
            total = weights.sum()
            if total <= 0:
                seasonal[index] = detrended[index]
            else:
                seasonal[index] = np.dot(weights, neighbours) / total
        return seasonal
