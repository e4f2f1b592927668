"""Additive Holt-Winters (triple exponential smoothing).

A classical statistical forecaster with level, trend and seasonal states.
It serves two roles: a strong non-deep baseline in its own right, and part
of the proxy family standing in for the paper's GPU-trained forecasters
(no GPU or deep-learning framework is available).  The three smoothing
factors are selected with a small grid search on the training split.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from repro.forecasting.base import Forecaster
from repro.registry import register_forecaster
from repro.utils import check_period

__all__ = ["HoltWintersForecaster"]


@register_forecaster("holt_winters")
class HoltWintersForecaster(Forecaster):
    """Additive Holt-Winters with grid-searched smoothing factors.

    Parameters
    ----------
    period:
        Seasonal period length.
    grid:
        Candidate values tried for each smoothing factor during fitting.
    """

    name = "HoltWinters"

    def __init__(self, period: int, grid: tuple[float, ...] = (0.1, 0.3, 0.6)):
        self.period = check_period(period)
        self.grid = tuple(float(value) for value in grid)
        self.level_smoothing = 0.3
        self.trend_smoothing = 0.1
        self.seasonal_smoothing = 0.1

    # ------------------------------------------------------------------ API

    def fit(self, train_values) -> "HoltWintersForecaster":
        train = self._validate_fit(train_values, min_length=2 * self.period + 2)
        best_error = np.inf
        best = (self.level_smoothing, self.trend_smoothing, self.seasonal_smoothing)
        holdout = min(max(self.period, train.size // 5), train.size // 2)
        fit_part, validation_part = train[:-holdout], train[-holdout:]
        for alpha, beta, gamma in product(self.grid, repeat=3):
            state = self._run(fit_part, alpha, beta, gamma)
            predictions = self._predict_from_state(state, validation_part.size)
            error = float(np.mean(np.abs(predictions - validation_part)))
            if error < best_error:
                best_error = error
                best = (alpha, beta, gamma)
        self.level_smoothing, self.trend_smoothing, self.seasonal_smoothing = best
        return self

    def forecast(self, history, horizon: int) -> np.ndarray:
        history, horizon = self._validate_forecast(history, horizon)
        if history.size < 2 * self.period + 2:
            return np.full(horizon, history[-1])
        state = self._run(
            history, self.level_smoothing, self.trend_smoothing, self.seasonal_smoothing
        )
        return self._predict_from_state(state, horizon)

    # ------------------------------------------------------------- internals

    def _run(self, values: np.ndarray, alpha: float, beta: float, gamma: float) -> dict:
        period = self.period
        seasonal = np.array(
            [values[phase::period][: values.size // period].mean() for phase in range(period)]
        )
        seasonal = seasonal - seasonal.mean()
        level = float(values[:period].mean())
        trend = float((values[period : 2 * period].mean() - values[:period].mean()) / period)
        for index in range(values.size):
            phase = index % period
            observation = values[index]
            previous_level = level
            level = alpha * (observation - seasonal[phase]) + (1 - alpha) * (level + trend)
            trend = beta * (level - previous_level) + (1 - beta) * trend
            seasonal[phase] = gamma * (observation - level) + (1 - gamma) * seasonal[phase]
        return {
            "level": level,
            "trend": trend,
            "seasonal": seasonal,
            "next_phase": values.size % period,
        }

    def _predict_from_state(self, state: dict, horizon: int) -> np.ndarray:
        predictions = np.empty(horizon)
        for step in range(horizon):
            phase = (state["next_phase"] + step) % self.period
            predictions[step] = (
                state["level"] + (step + 1) * state["trend"] + state["seasonal"][phase]
            )
        return predictions
