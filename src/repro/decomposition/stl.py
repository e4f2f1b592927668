"""STL: Seasonal-Trend decomposition using LOESS (Cleveland et al. 1990).

This is a from-scratch implementation of the classic batch STL procedure
with the usual inner loop (cycle-subseries smoothing, low-pass filtering,
trend smoothing) and an optional outer loop of bisquare robustness weights.
It serves three roles in the reproduction:

* the ``STL`` baseline of Table 2 / Figure 5,
* the building block of the ``Window-STL`` online baseline, and
* the default initialization routine of the online methods (OneShotSTL and
  OnlineSTL both run STL on the initialization window, exactly as in the
  paper's Section 3.2).

Small, documented simplification: when extending smoothed cycle-subseries
by one period on each side, the extension repeats the first/last smoothed
value of the subseries instead of extrapolating the local regression.  The
effect is confined to the first and last period and does not change any of
the evaluation conclusions.
"""

from __future__ import annotations

import numpy as np

from repro.decomposition.base import BatchDecomposer, DecompositionResult
from repro.decomposition.loess import loess_smooth, moving_average
from repro.utils import as_float_array, check_period, check_positive_int

__all__ = ["STL", "next_odd"]


def next_odd(value: float) -> int:
    """Smallest odd integer greater than or equal to ``value``."""
    integer = int(np.ceil(value))
    return integer if integer % 2 == 1 else integer + 1


class STL(BatchDecomposer):
    """Batch STL decomposition.

    Parameters
    ----------
    period:
        Seasonal period length ``T``.
    seasonal_window:
        LOESS span for cycle-subseries smoothing, or the string
        ``"periodic"`` to force a strictly periodic seasonal component
        (each phase is the weighted mean of its subseries).
    trend_window:
        LOESS span of the trend smoother; defaults to the value recommended
        in the original paper, ``next_odd(1.5 * period / (1 - 1.5 / seasonal_window))``.
    low_pass_window:
        LOESS span of the low-pass filter; defaults to ``next_odd(period)``.
    inner_iterations / outer_iterations:
        Number of inner loop passes and robustness (outer) passes.
    """

    def __init__(
        self,
        period: int,
        seasonal_window: int | str = 11,
        trend_window: int | None = None,
        low_pass_window: int | None = None,
        inner_iterations: int = 2,
        outer_iterations: int = 1,
    ):
        self.period = check_period(period)
        if isinstance(seasonal_window, str):
            if seasonal_window != "periodic":
                raise ValueError("seasonal_window must be an integer or 'periodic'")
            self.seasonal_window: int | str = "periodic"
            effective_seasonal = 10 * self.period + 1
        else:
            self.seasonal_window = next_odd(check_positive_int(seasonal_window, "seasonal_window", 3))
            effective_seasonal = self.seasonal_window
        if trend_window is None:
            trend_window = next_odd(1.5 * self.period / (1 - 1.5 / effective_seasonal))
        self.trend_window = next_odd(check_positive_int(trend_window, "trend_window", 3))
        if low_pass_window is None:
            low_pass_window = next_odd(self.period)
        self.low_pass_window = next_odd(check_positive_int(low_pass_window, "low_pass_window", 3))
        self.inner_iterations = check_positive_int(inner_iterations, "inner_iterations")
        self.outer_iterations = check_positive_int(outer_iterations, "outer_iterations", minimum=0)

    # ------------------------------------------------------------------ API

    def decompose(self, values) -> DecompositionResult:
        values = as_float_array(values, "values", min_length=2 * self.period)
        n = values.size
        period = self.period

        trend = np.zeros(n)
        seasonal = np.zeros(n)
        robustness = np.ones(n)
        # Until an outer pass has produced weights the trend smoother is
        # unweighted, which LOESS serves from its per-(n, window) tables.
        trend_robustness = None

        total_outer = max(1, self.outer_iterations)
        for outer in range(total_outer):
            for _ in range(self.inner_iterations):
                detrended = values - trend
                cycle = self._smooth_cycle_subseries(detrended, robustness)
                low_pass = self._low_pass(cycle)
                seasonal = cycle[period : period + n] - low_pass
                deseasonalized = values - seasonal
                trend = loess_smooth(
                    deseasonalized,
                    self.trend_window,
                    degree=1,
                    robustness_weights=trend_robustness,
                )
            if outer < total_outer - 1 and self.outer_iterations > 0:
                robustness = self._robustness_weights(values - trend - seasonal)
                trend_robustness = robustness

        residual = values - trend - seasonal
        return DecompositionResult(
            observed=values,
            trend=trend,
            seasonal=seasonal,
            residual=residual,
            period=period,
        )

    # ------------------------------------------------------------- internals

    def _smooth_cycle_subseries(
        self, detrended: np.ndarray, robustness: np.ndarray
    ) -> np.ndarray:
        """Smooth each cycle-subseries and extend one period on each side."""
        n = detrended.size
        period = self.period
        extended = np.zeros(n + 2 * period)
        filled = np.zeros(n + 2 * period, dtype=bool)
        for phase in range(period):
            subseries = detrended[phase::period]
            sub_robustness = robustness[phase::period]
            if self.seasonal_window == "periodic":
                weight_total = sub_robustness.sum()
                if weight_total <= 0:
                    smoothed_value = float(subseries.mean())
                else:
                    smoothed_value = float(
                        np.dot(sub_robustness, subseries) / weight_total
                    )
                smoothed = np.full(subseries.size, smoothed_value)
            else:
                smoothed = loess_smooth(
                    subseries,
                    self.seasonal_window,
                    degree=1,
                    robustness_weights=sub_robustness,
                )
            positions = phase + period + np.arange(subseries.size) * period
            extended[positions] = smoothed
            filled[positions] = True
            extended[phase] = smoothed[0]
            filled[phase] = True
            tail_position = phase + period + subseries.size * period
            if tail_position < extended.size:
                extended[tail_position] = smoothed[-1]
                filled[tail_position] = True
        # Any extension slot that was not filled (when the series length is
        # not a multiple of the period) repeats the value one period earlier.
        for index in range(n + period, n + 2 * period):
            if not filled[index]:
                extended[index] = extended[index - period]
        return extended

    def _low_pass(self, cycle: np.ndarray) -> np.ndarray:
        """Low-pass filter: two MA(T), one MA(3), then a LOESS pass."""
        period = self.period
        first = moving_average(cycle, period)
        second = moving_average(first, period)
        third = moving_average(second, 3)
        smoothed = loess_smooth(third, self.low_pass_window, degree=1)
        return smoothed

    @staticmethod
    def _robustness_weights(residual: np.ndarray) -> np.ndarray:
        """Bisquare robustness weights from the residuals."""
        scale = 6.0 * np.median(np.abs(residual))
        if scale <= 0:
            return np.ones_like(residual)
        u = np.clip(np.abs(residual) / scale, 0.0, 1.0)
        return (1.0 - u ** 2) ** 2
