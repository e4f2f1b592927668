"""Tests for the shared data containers and interfaces."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.datasets import AnomalySeries, ComponentSeries, ForecastSeries
from repro.decomposition import DecompositionPoint, DecompositionResult
from repro.forecasting.base import Forecaster


class TestDecompositionResult:
    def _result(self, n=10, period=5):
        observed = np.arange(float(n))
        trend = 0.5 * observed
        seasonal = np.sin(observed)
        residual = observed - trend - seasonal
        return DecompositionResult(observed, trend, seasonal, residual, period)

    def test_reconstruct_identity(self):
        result = self._result()
        np.testing.assert_allclose(result.reconstruct(), result.observed)

    def test_point_accessor(self):
        result = self._result()
        point = result.point(3)
        assert isinstance(point, DecompositionPoint)
        assert point.value == 3.0
        assert point.reconstruct() == pytest.approx(3.0)

    def test_tail_returns_copy(self):
        result = self._result()
        tail = result.tail(4)
        assert len(tail) == 4
        tail.trend[:] = 0.0
        assert result.trend[-1] != 0.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            DecompositionResult(
                np.zeros(5), np.zeros(4), np.zeros(5), np.zeros(5), period=2
            )

    def test_len(self):
        assert len(self._result(7)) == 7


class TestComponentSeries:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ComponentSeries(
                name="bad",
                values=np.zeros(5),
                trend=np.zeros(4),
                seasonal=np.zeros(5),
                residual=np.zeros(5),
                period=2,
            )


class TestAnomalySeries:
    def _series(self):
        values = np.arange(100.0)
        labels = np.zeros(100, dtype=int)
        labels[80:85] = 1
        return AnomalySeries("demo", values, labels, train_length=50, period=10)

    def test_train_test_split_views(self):
        series = self._series()
        assert series.train_values.size == 50
        assert series.test_values.size == 50
        assert series.test_labels.sum() == 5
        assert series.anomaly_fraction == pytest.approx(0.05)
        assert len(series) == 100

    def test_invalid_train_length_rejected(self):
        with pytest.raises(ValueError):
            AnomalySeries("bad", np.zeros(10), np.zeros(10, dtype=int), train_length=10, period=3)

    def test_label_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            AnomalySeries("bad", np.zeros(10), np.zeros(9, dtype=int), train_length=5, period=3)


class TestForecastSeries:
    def test_split_boundaries(self):
        series = ForecastSeries(
            name="demo",
            values=np.arange(1000.0),
            period=24,
            horizons=(96,),
            train_fraction=0.7,
            validation_fraction=0.1,
        )
        assert series.train_end == 700
        assert series.validation_end == 800
        assert series.train_values.size == 700
        assert series.validation_values.size == 100
        assert series.test_values.size == 200

    def test_invalid_fractions_rejected(self):
        with pytest.raises(ValueError):
            ForecastSeries("bad", np.zeros(10), 2, (4,), train_fraction=1.2)
        with pytest.raises(ValueError):
            ForecastSeries("bad", np.zeros(10), 2, (4,), train_fraction=0.7, validation_fraction=0.4)


class TestForecasterValidation:
    class _Dummy(Forecaster):
        name = "dummy"

        def fit(self, train_values):
            self._validate_fit(train_values, min_length=3)
            return self

        def forecast(self, history, horizon):
            history, horizon = self._validate_forecast(history, horizon)
            return np.full(horizon, history[-1])

    def test_fit_validation(self):
        with pytest.raises(ValueError):
            self._Dummy().fit([1.0, 2.0])

    def test_forecast_validation(self):
        model = self._Dummy().fit([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            model.forecast([1.0], 0)
        np.testing.assert_allclose(model.forecast([1.0, 5.0], 3), [5.0, 5.0, 5.0])


ONLINE_PACKAGES = (
    "repro",
    "repro.streaming",
    "repro.durability",
    "repro.sharding",
    "repro.serving",
)


def test_the_online_import_path_does_not_load_scipy():
    """Only the batch decomposers (JointSTL, RobustSTL, the l1 trend
    filter) use scipy, and they import it when they solve: an engine, a
    worker or a server process never carries it."""
    source = Path(__file__).resolve().parents[1] / "src"
    script = (
        "import sys\n"
        f"import {', '.join(ONLINE_PACKAGES)}\n"
        "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))"
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(source), "PATH": "/usr/bin:/bin"},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
