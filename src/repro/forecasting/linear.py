"""Direct multi-horizon ridge regression ("DLinear-style" proxy).

One of the two learned proxies standing in for the paper's GPU deep
forecasters (a ridge layer solved in closed form replaces a GPU-trained
network).  The model maps the last ``input_window`` (train-standardized)
values directly to all ``horizon`` outputs with a ridge-regularized linear
layer -- the same family of simple direct linear forecasters that has
repeatedly been shown to match transformer models on these benchmarks.
"""

from __future__ import annotations

import numpy as np

from repro.forecasting.base import Forecaster
from repro.registry import register_forecaster
from repro.utils import check_positive, check_positive_int, sliding_window_view

__all__ = ["DirectRidgeForecaster"]


@register_forecaster("direct_ridge")
class DirectRidgeForecaster(Forecaster):
    """Ridge regression from an input window to the full forecast horizon.

    Parameters
    ----------
    input_window:
        Number of most recent values used as the regression input.
    horizon:
        Forecast horizon the model is trained for (requests for shorter
        horizons reuse the leading outputs; longer requests are rejected).
    regularization:
        Ridge penalty added to the normal equations.
    """

    name = "DirectRidge"

    def __init__(self, input_window: int, horizon: int, regularization: float = 1.0):
        self.input_window = check_positive_int(input_window, "input_window", minimum=2)
        self.horizon = check_positive_int(horizon, "horizon")
        self.regularization = check_positive(regularization, "regularization")
        self._weights: np.ndarray | None = None
        self._mean = 0.0
        self._scale = 1.0

    def fit(self, train_values) -> "DirectRidgeForecaster":
        train = self._validate_fit(
            train_values, min_length=self.input_window + self.horizon + 1
        )
        self._mean = float(train.mean())
        scale = float(train.std())
        self._scale = scale if scale > 1e-8 else 1.0
        normalized = (train - self._mean) / self._scale

        window = self.input_window + self.horizon
        segments = sliding_window_view(normalized, window)
        inputs = segments[:, : self.input_window]
        targets = segments[:, self.input_window :]
        design = np.column_stack([np.ones(inputs.shape[0]), inputs])
        gram = design.T @ design + self.regularization * np.eye(design.shape[1])
        self._weights = np.linalg.solve(gram, design.T @ targets)
        return self

    def forecast(self, history, horizon: int) -> np.ndarray:
        history, horizon = self._validate_forecast(history, horizon)
        if self._weights is None:
            raise RuntimeError("fit() must be called before forecast()")
        if horizon > self.horizon:
            raise ValueError(
                f"model was trained for horizon {self.horizon}, got request for {horizon}"
            )
        if history.size < self.input_window:
            return np.full(horizon, history[-1])
        normalized = (history[-self.input_window :] - self._mean) / self._scale
        features = np.concatenate([[1.0], normalized])
        predictions = features @ self._weights
        return predictions[:horizon] * self._scale + self._mean
