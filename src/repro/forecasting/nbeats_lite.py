"""N-BEATS-lite: a residual-stacked MLP forecaster (deep-baseline proxy).

A compact re-creation of N-BEATS' central idea -- a stack of fully connected
blocks where each block produces a *backcast* that is subtracted from the
input before the next block, and a *forecast* that is added to the running
prediction -- trained with the in-repo numpy neural substrate.  Together
with :class:`~repro.forecasting.linear.DirectRidgeForecaster` it stands in
for the GPU deep baselines of Table 5 (a CPU-trained MLP in their place).
"""

from __future__ import annotations

import numpy as np

from repro.forecasting.base import Forecaster
from repro.registry import register_forecaster
from repro.neural import MLPRegressor
from repro.utils import check_positive_int, sliding_window_view

__all__ = ["NBeatsLiteForecaster"]


@register_forecaster("nbeats_lite")
class NBeatsLiteForecaster(Forecaster):
    """Residual stack of MLP blocks mapping an input window to the horizon.

    Parameters
    ----------
    input_window / horizon:
        Input and output lengths.
    blocks:
        Number of residual blocks.
    hidden:
        Hidden width of each block.
    epochs / learning_rate:
        Training hyper-parameters of each block.
    max_training_windows:
        Cap on the number of training windows (sampled uniformly) to bound
        the CPU training cost.
    """

    name = "NBEATS-lite"

    def __init__(
        self,
        input_window: int,
        horizon: int,
        blocks: int = 2,
        hidden: int = 64,
        epochs: int = 40,
        learning_rate: float = 1e-3,
        max_training_windows: int = 2000,
        seed: int = 0,
    ):
        self.input_window = check_positive_int(input_window, "input_window", minimum=2)
        self.horizon = check_positive_int(horizon, "horizon")
        self.blocks = check_positive_int(blocks, "blocks")
        self.hidden = check_positive_int(hidden, "hidden")
        self.epochs = check_positive_int(epochs, "epochs")
        self.learning_rate = learning_rate
        self.max_training_windows = check_positive_int(
            max_training_windows, "max_training_windows"
        )
        self.seed = int(seed)
        self._block_models: list[MLPRegressor] = []
        self._mean = 0.0
        self._scale = 1.0

    def fit(self, train_values) -> "NBeatsLiteForecaster":
        train = self._validate_fit(
            train_values, min_length=self.input_window + self.horizon + 1
        )
        self._mean = float(train.mean())
        scale = float(train.std())
        self._scale = scale if scale > 1e-8 else 1.0
        normalized = (train - self._mean) / self._scale

        window = self.input_window + self.horizon
        segments = sliding_window_view(normalized, window)
        if segments.shape[0] > self.max_training_windows:
            rng = np.random.default_rng(self.seed)
            keep = rng.choice(segments.shape[0], self.max_training_windows, replace=False)
            segments = segments[np.sort(keep)]
        inputs = segments[:, : self.input_window].copy()
        targets = segments[:, self.input_window :].copy()

        self._block_models = []
        residual_inputs = inputs
        residual_targets = targets
        for block_index in range(self.blocks):
            model = MLPRegressor(
                input_size=self.input_window,
                output_size=self.input_window + self.horizon,
                hidden_sizes=(self.hidden, self.hidden),
                epochs=self.epochs,
                learning_rate=self.learning_rate,
                batch_size=64,
                seed=self.seed + block_index,
            )
            block_targets = np.concatenate([residual_inputs, residual_targets], axis=1)
            model.fit(residual_inputs, block_targets)
            self._block_models.append(model)
            predictions = model.predict(residual_inputs)
            backcast = predictions[:, : self.input_window]
            forecast = predictions[:, self.input_window :]
            residual_inputs = residual_inputs - backcast
            residual_targets = residual_targets - forecast
        return self

    def forecast(self, history, horizon: int) -> np.ndarray:
        history, horizon = self._validate_forecast(history, horizon)
        if not self._block_models:
            raise RuntimeError("fit() must be called before forecast()")
        if horizon > self.horizon:
            raise ValueError(
                f"model was trained for horizon {self.horizon}, got request for {horizon}"
            )
        if history.size < self.input_window:
            return np.full(horizon, history[-1])
        residual = (history[-self.input_window :] - self._mean) / self._scale
        combined_forecast = np.zeros(self.horizon)
        for model in self._block_models:
            predictions = model.predict(residual[None, :])[0]
            backcast = predictions[: self.input_window]
            combined_forecast += predictions[self.input_window :]
            residual = residual - backcast
        return combined_forecast[:horizon] * self._scale + self._mean
