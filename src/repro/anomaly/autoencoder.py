"""Autoencoder anomaly detector (proxy for the paper's deep baselines).

The paper compares against three GPU-trained deep detectors (LSTM-VAE,
USAD, TranAD).  Without a GPU or a deep-learning framework in this offline
environment, this module provides the closest classical equivalent built on
the in-repo :mod:`repro.neural` substrate: a window autoencoder trained on
the anomaly-free prefix whose reconstruction error is the anomaly score.
It exercises the same code path as the deep baselines -- train on the
prefix, slide over the test region, score each point -- and shows the same
qualitative behaviour (good on point/collective outliers, weaker on subtle
pattern drift), a CPU stand-in where no GPU or framework is available.
"""

from __future__ import annotations

import numpy as np

from repro.anomaly.base import AnomalyDetector
from repro.registry import register_detector
from repro.neural import MLPRegressor
from repro.utils import check_positive_int, sliding_window_view

__all__ = ["AutoencoderDetector"]


@register_detector("autoencoder")
class AutoencoderDetector(AnomalyDetector):
    """Window autoencoder with reconstruction-error scoring.

    Parameters
    ----------
    window:
        Input window length.
    bottleneck:
        Size of the compression layer.
    epochs / learning_rate:
        Training hyper-parameters of the underlying MLP.
    sample_stride:
        Stride used when building training windows (controls training cost).
    """

    name = "Autoencoder"

    def __init__(
        self,
        window: int,
        bottleneck: int = 8,
        hidden: int = 64,
        epochs: int = 60,
        learning_rate: float = 1e-3,
        sample_stride: int = 2,
        seed: int = 0,
    ):
        self.window = check_positive_int(window, "window", minimum=4)
        self.bottleneck = check_positive_int(bottleneck, "bottleneck")
        self.hidden = check_positive_int(hidden, "hidden")
        self.epochs = check_positive_int(epochs, "epochs")
        self.learning_rate = learning_rate
        self.sample_stride = check_positive_int(sample_stride, "sample_stride")
        self.seed = int(seed)

    def detect(self, train_values, test_values) -> np.ndarray:
        train, test = self._validate(train_values, test_values)
        if self.window >= train.size:
            raise ValueError("window must be smaller than the training prefix")

        mean = train.mean()
        scale = train.std() if train.std() > 1e-8 else 1.0
        normalized_train = (train - mean) / scale

        windows = sliding_window_view(normalized_train, self.window)[:: self.sample_stride]
        model = MLPRegressor(
            input_size=self.window,
            output_size=self.window,
            hidden_sizes=(self.hidden, self.bottleneck, self.hidden),
            epochs=self.epochs,
            learning_rate=self.learning_rate,
            batch_size=min(64, windows.shape[0]),
            seed=self.seed,
        )
        model.fit(windows, windows)

        values = np.concatenate([train, test])
        normalized = (values - mean) / scale
        scores = np.zeros(test.size)
        for index in range(test.size):
            end = train.size + index + 1
            window_values = normalized[end - self.window : end]
            reconstruction = model.predict(window_values[None, :])[0]
            scores[index] = float(np.mean((reconstruction - window_values) ** 2))
        return scores
