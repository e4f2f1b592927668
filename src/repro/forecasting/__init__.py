"""Time-series forecasting methods and evaluation (paper Section 5.5).

Decomposition-based
-------------------
:class:`OneShotSTLForecaster`, :class:`OnlineSTLForecaster`, :class:`STDForecaster`
    Online decomposition + periodic continuation (paper Section 4).

Classical
---------
:class:`AutoARIMAForecaster`, :class:`ARIMAForecaster`
    AR(I)MA with automatic order selection.
:class:`HoltWintersForecaster`
    Additive triple exponential smoothing.
:class:`NaiveForecaster`, :class:`SeasonalNaiveForecaster`, :class:`DriftForecaster`
    Sanity baselines.

Learned proxies (small CPU-trained models standing in for the GPU deep baselines)
----------------------------------------------------------------------------------
:class:`DirectRidgeForecaster`
    Direct multi-horizon ridge regression ("DLinear-style").
:class:`NBeatsLiteForecaster`
    Residual-stacked MLP in the spirit of N-BEATS.

Evaluation
----------
:func:`rolling_origin_evaluation`, :func:`evaluate_on_series`
    The Informer-style rolling protocol used by Table 5.
"""

from repro.forecasting.arima import ARIMAForecaster, AutoARIMAForecaster
from repro.forecasting.base import Forecaster
from repro.forecasting.evaluation import (
    ForecastEvaluation,
    evaluate_on_series,
    rolling_origin_evaluation,
)
from repro.forecasting.holt_winters import HoltWintersForecaster
from repro.forecasting.linear import DirectRidgeForecaster
from repro.forecasting.naive import DriftForecaster, NaiveForecaster, SeasonalNaiveForecaster
from repro.forecasting.nbeats_lite import NBeatsLiteForecaster
from repro.forecasting.std_forecaster import (
    OneShotSTLForecaster,
    OnlineSTLForecaster,
    STDForecaster,
)

__all__ = [
    "ARIMAForecaster",
    "AutoARIMAForecaster",
    "DirectRidgeForecaster",
    "DriftForecaster",
    "ForecastEvaluation",
    "Forecaster",
    "HoltWintersForecaster",
    "NBeatsLiteForecaster",
    "NaiveForecaster",
    "OneShotSTLForecaster",
    "OnlineSTLForecaster",
    "STDForecaster",
    "SeasonalNaiveForecaster",
    "evaluate_on_series",
    "rolling_origin_evaluation",
]
