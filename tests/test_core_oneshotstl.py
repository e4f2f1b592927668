"""Tests of the core contribution: JointSTL, the Algorithm-2 reference and OneShotSTL."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ContributionWorkspace,
    JointSTL,
    ModifiedJointSTL,
    OneShotSTL,
    point_contributions,
    select_lambda,
)
from repro.decomposition import STL

from tests.conftest import make_seasonal_series


class TestPointContributions:
    def test_first_point_has_no_difference_terms(self):
        updates, rhs = point_contributions(0, 2.0, 0.5, 1.0, 1.0, 1.0, 1.0)
        assert rhs == [2.0, 2.5]
        touched = {(row, column) for row, column, _ in updates}
        assert touched == {(0, 0), (1, 1), (1, 0)}

    def test_third_point_touches_trailing_band_only(self):
        updates, _ = point_contributions(2, 1.0, 0.0, 1.0, 1.0, 1.0, 1.0)
        for row, column, _ in updates:
            assert row >= column
            assert row - column <= 4
            assert column >= 0

    def test_weights_scale_difference_terms(self):
        light, _ = point_contributions(2, 1.0, 0.0, 1.0, 1.0, 1.0, 1.0)
        heavy, _ = point_contributions(2, 1.0, 0.0, 1.0, 1.0, 3.0, 5.0)
        light_total = sum(abs(v) for _, _, v in light)
        heavy_total = sum(abs(v) for _, _, v in heavy)
        assert heavy_total > light_total

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError):
            point_contributions(-1, 1.0, 0.0, 1.0, 1.0, 1.0, 1.0)


class TestContributionWorkspace:
    """The preallocated array form must agree with the reference function."""

    @pytest.mark.parametrize("point_index", [0, 1, 2, 3, 17])
    def test_matches_point_contributions(self, point_index):
        workspace = ContributionWorkspace(lambda1=2.0, lambda2=3.0)
        reference_updates, reference_rhs = point_contributions(
            point_index, 1.5, -0.25, 2.0, 3.0, 0.7, 1.9
        )
        (rows, columns, values), rhs = workspace.fill(
            point_index, 1.5, -0.25, 0.7, 1.9
        )
        assert [
            (int(row), int(column), float(value))
            for row, column, value in zip(rows, columns, values)
        ] == reference_updates
        np.testing.assert_allclose(rhs, reference_rhs)

    def test_steady_state_reuses_buffers(self):
        workspace = ContributionWorkspace(1.0, 1.0)
        (rows_a, _, values_a), _ = workspace.fill(5, 1.0, 0.0, 1.0, 1.0)
        (rows_b, _, values_b), _ = workspace.fill(6, 2.0, 0.5, 3.0, 4.0)
        assert rows_a is rows_b
        assert values_a is values_b

    def test_a_model_pickles_no_uninitialised_memory(self, small_seasonal):
        """OneShotSTL never fills the steady-state arrays (its step is
        ``append_point``), so they must start defined: two models fed the
        same stream pickle to the same bytes."""
        values = small_seasonal["values"]
        blobs = []
        for _ in range(2):
            # other arrays come and go in between, as in a live process
            scratch = [np.full(13, float(index)) for index in range(50)]
            model = OneShotSTL(24)
            model.initialize(values[:96])
            for value in values[96:110]:
                model.update(value)
            blobs.append(pickle.dumps(model))
            del scratch
        assert blobs[0] == blobs[1]


class TestJointSTL:
    def test_reconstruction_is_exact(self, small_seasonal):
        model = JointSTL(small_seasonal["period"], iterations=4)
        result = model.decompose(small_seasonal["values"])
        np.testing.assert_allclose(
            result.reconstruct(), small_seasonal["values"], atol=1e-8
        )

    def test_recovers_smooth_trend(self, small_seasonal):
        model = JointSTL(small_seasonal["period"], lambda1=1.0, lambda2=1.0, iterations=6)
        result = model.decompose(small_seasonal["values"])
        error = np.mean(np.abs(result.trend - small_seasonal["trend"]))
        baseline = np.mean(np.abs(small_seasonal["trend"] - small_seasonal["trend"].mean()))
        assert error < 0.25 * baseline

    def test_seasonal_component_is_periodic(self, small_seasonal):
        period = small_seasonal["period"]
        model = JointSTL(period, iterations=4)
        result = model.decompose(small_seasonal["values"])
        seasonal = result.seasonal
        drift = np.mean(np.abs(seasonal[period:] - seasonal[:-period]))
        assert drift < 0.2

    def test_handles_abrupt_trend_change(self):
        data = make_seasonal_series(400, 40, trend_break=200, trend_break_size=4.0, seed=5)
        model = JointSTL(40, lambda1=10.0, lambda2=10.0, iterations=8)
        result = model.decompose(data["values"])
        jump = result.trend[220:240].mean() - result.trend[160:180].mean()
        assert jump > 2.0

    def test_rejects_short_series(self):
        with pytest.raises(ValueError):
            JointSTL(50).decompose(np.zeros(30) + np.arange(30))

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            JointSTL(10, lambda1=-1.0)
        with pytest.raises(ValueError):
            JointSTL(1)
        with pytest.raises(ValueError):
            JointSTL(10, iterations=0)


class TestOneShotSTLMatchesReference:
    """OneShotSTL must equal the exact Algorithm-2 reference to machine precision."""

    @pytest.mark.parametrize("iterations", [1, 3, 8])
    def test_exact_match_with_reference(self, iterations):
        data = make_seasonal_series(24 * 7, 24, seed=7)
        values = data["values"]
        init_length = 24 * 4
        online = values[init_length:]

        reference = ModifiedJointSTL(24, lambda1=2.0, lambda2=3.0, iterations=iterations)
        fast = OneShotSTL(
            24, lambda1=2.0, lambda2=3.0, iterations=iterations, shift_window=0
        )
        reference.initialize(values[:init_length])
        fast.initialize(values[:init_length])

        for value in online:
            expected = reference.update(float(value))
            actual = fast.update(float(value))
            assert actual.trend == pytest.approx(expected.trend, abs=1e-7)
            assert actual.seasonal == pytest.approx(expected.seasonal, abs=1e-7)
            assert actual.residual == pytest.approx(expected.residual, abs=1e-7)

    def test_exact_match_with_shift_search_armed(self):
        """With the search enabled but never triggering, outputs stay exact.

        This exercises the lazy-snapshot hot path: every point runs through
        the solvers' one-level undo machinery with the search armed, and the
        stream must still equal the reference to machine precision.
        """
        data = make_seasonal_series(24 * 7, 24, seed=13, noise=0.05)
        values = data["values"]
        init_length = 24 * 4
        reference = ModifiedJointSTL(24, iterations=4)
        fast = OneShotSTL(24, iterations=4, shift_window=20, shift_threshold=50.0)
        reference.initialize(values[:init_length])
        fast.initialize(values[:init_length])
        for value in values[init_length:]:
            expected = reference.update(float(value))
            actual = fast.update(float(value))
            assert actual.trend == pytest.approx(expected.trend, abs=1e-7)
            assert actual.seasonal == pytest.approx(expected.seasonal, abs=1e-7)
            assert actual.residual == pytest.approx(expected.residual, abs=1e-7)
        assert fast.current_shift == 0

    @staticmethod
    def _eager_snapshot_update(model, value):
        """Reference semantics of OneShotSTL.update with *eager* snapshots.

        This replicates, on top of the model's own primitives, the original
        formulation of the shift search: deep-copy every iteration state
        before the point is processed, and evaluate candidate shifts against
        those copies.  The production update takes the snapshot lazily (via
        solver rollback) only when the search triggers; both formulations
        must emit bit-identical points, which is what the test below pins
        down -- including through triggers that commit a non-zero shift.
        """
        value = float(value)
        snapshot = [state.copy() for state in model._iterations_state]
        trend, seasonal = model._advance(model._iterations_state, value, 0)
        residual = value - trend - seasonal
        model._last_detection_residual = residual
        chosen_shift = 0
        if model.shift_window > 0 and model._residual_monitor.score(residual).is_anomaly:
            best = (abs(residual), model._iterations_state, trend, seasonal, 0)
            for candidate in range(-model.shift_window, model.shift_window + 1):
                if candidate == 0:
                    continue
                trial_states = [state.copy() for state in snapshot]
                trial_trend, trial_seasonal = model._advance(
                    trial_states, value, candidate
                )
                trial_residual = value - trial_trend - trial_seasonal
                if abs(trial_residual) < best[0]:
                    best = (
                        abs(trial_residual),
                        trial_states,
                        trial_trend,
                        trial_seasonal,
                        candidate,
                    )
            _, chosen_states, trend, seasonal, chosen_shift = best
            model._iterations_state = chosen_states
            residual = value - trend - seasonal
            if chosen_shift != 0:
                model._last_applied_shift = chosen_shift
        model._residual_monitor.update(model._last_detection_residual)
        position = (model._global_index + chosen_shift) % model.period
        model._seasonal_buffer[position] = seasonal
        model._global_index += 1
        model._points_processed += 1
        model._last_trend = trend
        return trend, seasonal, residual

    def test_lazy_snapshot_matches_eager_snapshot_through_triggers(self):
        """The rollback-based search must equal eager per-point snapshots.

        Runs a stream with a genuine seasonality shift (the search triggers
        and commits non-zero shifts) plus an additive spike (the search
        triggers and typically keeps shift 0) through the production update
        and through an eager-snapshot twin; every point must agree exactly.
        """
        period = 30
        cycles = 10
        time = np.arange(period * cycles)
        values = np.sin(2 * np.pi * time / period)
        shift_start = period * 7
        values[shift_start:] = np.sin(2 * np.pi * (time[shift_start:] + 8) / period)
        values[period * 6 + 11] += 4.0  # spike well before the phase shift
        init_length = period * 4

        production = OneShotSTL(period, iterations=3, shift_window=12, shift_threshold=3.0)
        eager = OneShotSTL(period, iterations=3, shift_window=12, shift_threshold=3.0)
        production.initialize(values[:init_length])
        eager.initialize(values[:init_length])

        for value in values[init_length:]:
            point = production.update(float(value))
            trend, seasonal, residual = self._eager_snapshot_update(eager, value)
            assert point.trend == trend
            assert point.seasonal == seasonal
            assert point.residual == residual
        # The scenario must actually have exercised the non-zero-shift path.
        assert production.current_shift != 0
        np.testing.assert_array_equal(
            production.seasonal_buffer, eager.seasonal_buffer
        )

    def test_match_with_trend_break(self):
        data = make_seasonal_series(
            30 * 6, 30, seed=11, trend_break=30 * 5, trend_break_size=5.0
        )
        values = data["values"]
        init_length = 30 * 4
        reference = ModifiedJointSTL(30, iterations=4)
        fast = OneShotSTL(30, iterations=4, shift_window=0)
        reference.initialize(values[:init_length])
        fast.initialize(values[:init_length])
        for value in values[init_length:]:
            expected = reference.update(float(value))
            actual = fast.update(float(value))
            assert actual.trend == pytest.approx(expected.trend, abs=1e-6)
            assert actual.seasonal == pytest.approx(expected.seasonal, abs=1e-6)


class TestOneShotSTL:
    def test_requires_initialization(self):
        model = OneShotSTL(24)
        with pytest.raises(RuntimeError):
            model.update(1.0)
        with pytest.raises(RuntimeError):
            model.forecast(5)

    def test_reconstruction_identity_per_point(self, small_seasonal):
        period = small_seasonal["period"]
        values = small_seasonal["values"]
        model = OneShotSTL(period, shift_window=0)
        model.initialize(values[: 4 * period])
        for value in values[4 * period : 6 * period]:
            point = model.update(float(value))
            assert point.reconstruct() == pytest.approx(point.value, abs=1e-9)

    def test_tracks_trend_level(self, small_seasonal):
        period = small_seasonal["period"]
        values = small_seasonal["values"]
        model = OneShotSTL(period, lambda1=10.0, lambda2=10.0, shift_window=0)
        model.initialize(values[: 4 * period])
        trends = [model.update(float(v)).trend for v in values[4 * period :]]
        expected = small_seasonal["trend"][4 * period :]
        assert np.mean(np.abs(np.asarray(trends) - expected)) < 0.3

    def test_decompose_convenience_covers_full_series(self, small_seasonal):
        period = small_seasonal["period"]
        model = OneShotSTL(period, shift_window=0)
        result = model.decompose(small_seasonal["values"], 4 * period)
        assert len(result) == small_seasonal["values"].size
        np.testing.assert_allclose(
            result.reconstruct(), small_seasonal["values"], atol=1e-8
        )

    def test_forecast_is_periodic_plus_trend(self, small_seasonal):
        period = small_seasonal["period"]
        values = small_seasonal["values"]
        model = OneShotSTL(period, shift_window=0)
        model.initialize(values[: 4 * period])
        for value in values[4 * period : 6 * period]:
            model.update(float(value))
        forecast = model.forecast(2 * period)
        assert forecast.shape == (2 * period,)
        # Forecast repeats with the period once the trend is flat-ish.
        np.testing.assert_allclose(forecast[:period], forecast[period:], atol=1e-9)
        expected = small_seasonal["trend"][6 * period] + small_seasonal["seasonal"][
            6 * period : 7 * period
        ]
        assert np.mean(np.abs(forecast[:period] - expected)) < 0.5

    def test_forecast_is_the_per_step_loop_bit_for_bit(self, medium_seasonal):
        """One gather and one add == the horizon-long Python loop it replaced."""
        period = medium_seasonal["period"]
        values = medium_seasonal["values"]
        model = OneShotSTL(period, shift_window=10)
        model.initialize(values[: 4 * period])
        for value in values[4 * period : 7 * period + 3]:
            model.update(float(value))
        assert model.current_shift != 0  # the trend break made a search move
        for horizon in (1, period - 1, period, 3 * period + 5):
            looped = np.empty(horizon)
            for step in range(horizon):
                position = (model._global_index + step) % period
                looped[step] = model._last_trend + model._seasonal_buffer[position]
            forecast = model.forecast(horizon)
            assert forecast.shape == (horizon,)
            assert forecast.tolist() == looped.tolist()

    def test_seasonality_shift_is_detected_and_applied(self):
        period = 50
        cycles = 14
        time = np.arange(period * cycles)
        seasonal = np.sin(2 * np.pi * time / period)
        values = seasonal.copy()
        shift_start = period * 9
        shift = 10
        values[shift_start:] = np.sin(2 * np.pi * (time[shift_start:] + shift) / period)

        init_length = period * 6
        with_shift = OneShotSTL(period, shift_window=15, shift_threshold=3.0)
        without_shift = OneShotSTL(period, shift_window=0)
        with_shift.initialize(values[:init_length])
        without_shift.initialize(values[:init_length])

        residual_with = []
        residual_without = []
        for value in values[init_length:]:
            residual_with.append(abs(with_shift.update(float(value)).residual))
            residual_without.append(abs(without_shift.update(float(value)).residual))
        # The benefit of the shift search shows in the transition window right
        # after the shift: the corrected decomposition keeps the residual
        # small while the uncorrected one takes a long time to re-adapt.
        transition = slice(shift_start - init_length, shift_start - init_length + period // 2)
        assert with_shift.current_shift != 0
        assert np.mean(residual_with[transition]) < 0.5 * np.mean(residual_without[transition])

    def test_shift_window_zero_never_shifts(self, small_seasonal):
        period = small_seasonal["period"]
        model = OneShotSTL(period, shift_window=0)
        model.initialize(small_seasonal["values"][: 4 * period])
        for value in small_seasonal["values"][4 * period : 5 * period]:
            model.update(float(value))
        assert model.current_shift == 0

    def test_seasonal_buffer_has_period_length(self, small_seasonal):
        period = small_seasonal["period"]
        model = OneShotSTL(period, shift_window=0)
        model.initialize(small_seasonal["values"][: 4 * period])
        assert model.seasonal_buffer.shape == (period,)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            OneShotSTL(1)
        with pytest.raises(ValueError):
            OneShotSTL(10, iterations=0)
        with pytest.raises(ValueError):
            OneShotSTL(10, lambda1=0.0)
        with pytest.raises(ValueError):
            OneShotSTL(10, shift_window=-1)

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_property_reconstruction_and_boundedness(self, seed):
        data = make_seasonal_series(24 * 6, 24, seed=seed, noise=0.1)
        values = data["values"]
        model = OneShotSTL(24, iterations=2, shift_window=0)
        model.initialize(values[: 24 * 4])
        for value in values[24 * 4 :]:
            point = model.update(float(value))
            assert np.isfinite(point.trend)
            assert np.isfinite(point.seasonal)
            assert point.reconstruct() == pytest.approx(point.value, abs=1e-8)


class TestLambdaSelection:
    def test_returns_candidate_from_grid(self, small_seasonal):
        chosen = select_lambda(
            small_seasonal["values"],
            small_seasonal["period"],
            candidates=(1.0, 100.0),
            iterations=2,
        )
        assert chosen in (1.0, 100.0)

    def test_jointstl_method(self, small_seasonal):
        chosen = select_lambda(
            small_seasonal["values"],
            small_seasonal["period"],
            candidates=(1.0, 1000.0),
            iterations=2,
            method="jointstl",
        )
        assert chosen in (1.0, 1000.0)

    def test_rejects_unknown_method(self, small_seasonal):
        with pytest.raises(ValueError):
            select_lambda(
                small_seasonal["values"],
                small_seasonal["period"],
                method="magic",
            )


class TestInitializerChoices:
    def test_jointstl_initializer(self, small_seasonal):
        period = small_seasonal["period"]
        model = OneShotSTL(
            period,
            shift_window=0,
            initializer=JointSTL(period, iterations=3),
        )
        result = model.initialize(small_seasonal["values"][: 4 * period])
        assert len(result) == 4 * period
        point = model.update(float(small_seasonal["values"][4 * period]))
        assert np.isfinite(point.trend)

    def test_stl_initializer_is_default(self, small_seasonal):
        period = small_seasonal["period"]
        model = OneShotSTL(period, shift_window=0)
        result = model.initialize(small_seasonal["values"][: 4 * period])
        reference = STL(period, seasonal_window="periodic").decompose(
            small_seasonal["values"][: 4 * period]
        )
        np.testing.assert_allclose(result.trend, reference.trend)
