"""Tests for the decomposition baselines (STL, RobustSTL, OnlineSTL, windowed)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.decomposition import (
    STL,
    OnlineRobustSTL,
    OnlineSTL,
    RobustSTL,
    WindowRobustSTL,
    WindowSTL,
    bilateral_filter,
    l1_trend_filter,
    loess_smooth,
    moving_average,
    tricube_weights,
)
from repro.decomposition.stl import next_odd

from tests.conftest import make_seasonal_series


class TestLoess:
    def test_tricube_weights_shape_and_range(self):
        distances = np.linspace(-2, 2, 101)
        weights = tricube_weights(distances)
        assert np.all(weights >= 0)
        assert np.all(weights <= 1)
        assert weights[50] == pytest.approx(1.0)
        assert weights[0] == 0.0 and weights[-1] == 0.0

    def test_moving_average_constant_series(self):
        values = np.full(20, 3.5)
        np.testing.assert_allclose(moving_average(values, 5), np.full(16, 3.5))

    def test_moving_average_rejects_long_window(self):
        with pytest.raises(ValueError):
            moving_average(np.arange(5.0), 6)

    def test_loess_preserves_linear_signal(self):
        values = 0.5 * np.arange(100.0) + 2.0
        smoothed = loess_smooth(values, 15)
        np.testing.assert_allclose(smoothed, values, atol=1e-6)

    def test_loess_reduces_noise(self):
        rng = np.random.default_rng(0)
        signal = np.sin(np.linspace(0, 4 * np.pi, 400))
        noisy = signal + rng.normal(0, 0.3, size=400)
        smoothed = loess_smooth(noisy, 31)
        assert np.mean((smoothed - signal) ** 2) < 0.5 * np.mean((noisy - signal) ** 2)

    def test_loess_degree_zero(self):
        values = np.ones(50)
        np.testing.assert_allclose(loess_smooth(values, 9, degree=0), values)

    def test_loess_rejects_bad_degree(self):
        with pytest.raises(ValueError):
            loess_smooth(np.arange(10.0), 5, degree=2)

    def test_loess_robustness_weights_downweight_outliers(self):
        values = np.zeros(60)
        values[30] = 50.0
        robustness = np.ones(60)
        robustness[30] = 0.0
        smoothed = loess_smooth(values, 11, robustness_weights=robustness)
        assert abs(smoothed[29]) < 1e-6

    @given(st.integers(min_value=10, max_value=200), st.integers(min_value=3, max_value=31))
    @settings(max_examples=20, deadline=None)
    def test_property_loess_degree_zero_within_input_range(self, n, window):
        rng = np.random.default_rng(n * 31 + window)
        values = rng.uniform(-5, 5, size=n)
        smoothed = loess_smooth(values, window, degree=0)
        assert smoothed.shape == values.shape
        assert np.all(np.isfinite(smoothed))
        assert smoothed.min() >= values.min() - 1e-6
        assert smoothed.max() <= values.max() + 1e-6

    @given(st.integers(min_value=10, max_value=200), st.integers(min_value=3, max_value=31))
    @settings(max_examples=20, deadline=None)
    def test_property_loess_degree_one_is_finite_and_bounded(self, n, window):
        rng = np.random.default_rng(n * 13 + window)
        values = rng.uniform(-5, 5, size=n)
        smoothed = loess_smooth(values, window, degree=1)
        assert smoothed.shape == values.shape
        assert np.all(np.isfinite(smoothed))
        # Local linear fits may overshoot at the boundaries, but never by
        # more than the full data range.
        spread = values.max() - values.min()
        assert smoothed.min() >= values.min() - spread
        assert smoothed.max() <= values.max() + spread

    @pytest.mark.parametrize("n,window", [(96, 37), (96, 25), (30, 29), (31, 3), (500, 75)])
    def test_unweighted_tables_give_the_weighted_path_bits(self, n, window):
        """``None`` is served from per-(n, window) tables, all-ones weights
        by the general code: the same operands in the same calls."""
        rng = np.random.default_rng(n + window)
        values = rng.normal(0.0, 1.0, size=n) + 0.05 * np.arange(n)
        for _ in range(2):  # the second call reads the cached table
            assert np.array_equal(
                loess_smooth(values, window),
                loess_smooth(values, window, robustness_weights=np.ones(n)),
            )


class TestSTL:
    def test_next_odd(self):
        assert next_odd(4) == 5
        assert next_odd(5) == 5
        assert next_odd(5.1) == 7

    def test_reconstruction_is_exact(self, small_seasonal):
        result = STL(small_seasonal["period"]).decompose(small_seasonal["values"])
        np.testing.assert_allclose(
            result.reconstruct(), small_seasonal["values"], atol=1e-9
        )

    def test_recovers_seasonal_shape(self, small_seasonal):
        result = STL(small_seasonal["period"], seasonal_window="periodic").decompose(
            small_seasonal["values"]
        )
        error = np.mean(np.abs(result.seasonal - small_seasonal["seasonal"]))
        assert error < 0.1

    def test_recovers_trend(self, small_seasonal):
        result = STL(small_seasonal["period"]).decompose(small_seasonal["values"])
        error = np.mean(np.abs(result.trend - small_seasonal["trend"]))
        assert error < 0.15

    def test_periodic_seasonal_is_strictly_periodic(self, small_seasonal):
        period = small_seasonal["period"]
        result = STL(period, seasonal_window="periodic", outer_iterations=0).decompose(
            small_seasonal["values"]
        )
        np.testing.assert_allclose(
            result.seasonal[period:], result.seasonal[:-period], atol=1e-8
        )

    def test_rejects_short_series(self):
        with pytest.raises(ValueError):
            STL(24).decompose(np.arange(30.0))

    def test_rejects_bad_seasonal_window(self):
        with pytest.raises(ValueError):
            STL(24, seasonal_window="weekly")

    def test_non_multiple_length_is_handled(self):
        data = make_seasonal_series(24 * 5 + 7, 24, seed=3)
        result = STL(24).decompose(data["values"])
        assert len(result) == 24 * 5 + 7


class TestL1TrendFilter:
    def test_recovers_piecewise_linear_trend(self):
        time = np.arange(300.0)
        trend = np.where(time < 150, 0.02 * time, 3.0 - 0.01 * (time - 150))
        rng = np.random.default_rng(1)
        noisy = trend + rng.normal(0, 0.05, 300)
        estimate = l1_trend_filter(noisy, smoothness=50.0, iterations=15)
        assert np.mean(np.abs(estimate - trend)) < 0.1

    def test_l1_loss_resists_spikes(self):
        time = np.arange(200.0)
        trend = 0.01 * time
        noisy = trend.copy()
        noisy[50] += 20.0
        noisy[150] -= 20.0
        robust = l1_trend_filter(noisy, smoothness=10.0, loss="l1", iterations=15)
        plain = l1_trend_filter(noisy, smoothness=10.0, loss="l2", iterations=15)
        assert np.max(np.abs(robust - trend)) < np.max(np.abs(plain - trend))

    def test_rejects_bad_loss(self):
        with pytest.raises(ValueError):
            l1_trend_filter(np.arange(10.0), 1.0, loss="huber")

    def test_large_smoothness_gives_nearly_linear_trend(self):
        rng = np.random.default_rng(2)
        values = rng.normal(size=150).cumsum()
        trend = l1_trend_filter(values, smoothness=1e5, iterations=10)
        curvature = np.abs(np.diff(trend, n=2))
        assert np.median(curvature) < 1e-3


class TestBilateralFilter:
    def test_preserves_level_shift(self):
        values = np.concatenate([np.zeros(50), np.full(50, 5.0)])
        smoothed = bilateral_filter(values, window=5)
        assert abs(smoothed[49]) < 0.5
        assert abs(smoothed[50] - 5.0) < 0.5

    def test_reduces_gaussian_noise(self):
        rng = np.random.default_rng(3)
        signal = np.sin(np.linspace(0, 2 * np.pi, 200))
        noisy = signal + rng.normal(0, 0.2, 200)
        smoothed = bilateral_filter(noisy, window=4, sigma_value=1.0)
        assert np.mean((smoothed - signal) ** 2) < np.mean((noisy - signal) ** 2)


class TestRobustSTL:
    def test_reconstruction_is_exact(self, small_seasonal):
        result = RobustSTL(small_seasonal["period"], iterations=4).decompose(
            small_seasonal["values"]
        )
        np.testing.assert_allclose(
            result.reconstruct(), small_seasonal["values"], atol=1e-9
        )

    def test_detects_abrupt_trend_change(self):
        data = make_seasonal_series(
            40 * 8, 40, seed=4, trend_break=40 * 4, trend_break_size=4.0, noise=0.05
        )
        result = RobustSTL(40, iterations=6).decompose(data["values"])
        before = result.trend[40 * 3 : 40 * 4 - 5].mean()
        after = result.trend[40 * 4 + 5 : 40 * 5].mean()
        assert after - before > 2.5

    def test_seasonal_component_tracks_truth(self, small_seasonal):
        result = RobustSTL(small_seasonal["period"], iterations=4).decompose(
            small_seasonal["values"]
        )
        error = np.mean(np.abs(result.seasonal - small_seasonal["seasonal"]))
        assert error < 0.25


class TestOnlineSTL:
    def test_requires_initialization(self):
        with pytest.raises(RuntimeError):
            OnlineSTL(24).update(1.0)

    def test_reconstruction_identity(self, small_seasonal):
        period = small_seasonal["period"]
        model = OnlineSTL(period)
        model.initialize(small_seasonal["values"][: 4 * period])
        for value in small_seasonal["values"][4 * period :]:
            point = model.update(float(value))
            assert point.reconstruct() == pytest.approx(point.value, abs=1e-9)

    def test_tracks_seasonal_pattern(self, small_seasonal):
        period = small_seasonal["period"]
        model = OnlineSTL(period)
        result = model.decompose(small_seasonal["values"], 4 * period)
        online = slice(4 * period, None)
        error = np.mean(np.abs(result.seasonal[online] - small_seasonal["seasonal"][online]))
        assert error < 0.3

    def test_forecast_shape(self, small_seasonal):
        period = small_seasonal["period"]
        model = OnlineSTL(period)
        model.initialize(small_seasonal["values"][: 4 * period])
        model.update(float(small_seasonal["values"][4 * period]))
        assert model.forecast(10).shape == (10,)

    def test_rejects_bad_smoothing(self):
        with pytest.raises(ValueError):
            OnlineSTL(24, smoothing=1.5)
        with pytest.raises(ValueError):
            OnlineSTL(24, smoothing=0.0)


class TestWindowedDecomposers:
    def test_window_stl_matches_batch_on_last_point(self, small_seasonal):
        period = small_seasonal["period"]
        values = small_seasonal["values"]
        model = WindowSTL(period, window_periods=4)
        model.initialize(values[: 4 * period])
        point = model.update(float(values[4 * period]))
        window = np.concatenate([values[1 : 4 * period], values[4 * period : 4 * period + 1]])
        batch = STL(period).decompose(window)
        assert point.trend == pytest.approx(batch.trend[-1], abs=1e-9)
        assert point.seasonal == pytest.approx(batch.seasonal[-1], abs=1e-9)

    def test_stride_amortizes_recomputation(self, small_seasonal):
        period = small_seasonal["period"]
        values = small_seasonal["values"]
        model = WindowSTL(period, window_periods=4, recompute_stride=8)
        model.initialize(values[: 4 * period])
        for value in values[4 * period : 4 * period + 16]:
            point = model.update(float(value))
            assert np.isfinite(point.trend)

    def test_window_robust_stl_runs(self):
        data = make_seasonal_series(30 * 5, 30, seed=6)
        model = WindowRobustSTL(30, window_periods=3, recompute_stride=10, iterations=3)
        result = model.decompose(data["values"], 30 * 3)
        np.testing.assert_allclose(result.reconstruct(), data["values"], atol=1e-8)

    def test_online_robust_stl_runs(self):
        data = make_seasonal_series(30 * 5, 30, seed=7)
        model = OnlineRobustSTL(30, recompute_stride=10, iterations=3)
        result = model.decompose(data["values"], 30 * 3)
        assert len(result) == 30 * 5

    def test_requires_initialization(self):
        with pytest.raises(RuntimeError):
            WindowSTL(24).update(0.0)
