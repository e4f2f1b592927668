"""OneShotSTL: online seasonal-trend decomposition with O(1) updates.

This module implements the paper's main contribution (Algorithm 5), built
on top of the incremental banded LDL^T solver (Algorithm 4) from
:mod:`repro.solvers.incremental_ldlt`:

* an **initialization phase** runs a batch decomposition (STL by default,
  batch JointSTL optionally) on a prefix of the stream and fills the
  seasonal buffer ``v`` with the latest period of the seasonal component;
* the **online phase** consumes one observation at a time.  For each of the
  ``I`` IRLS iterations it appends the new point's contributions to that
  iteration's growing banded system and reads back only the newest trend
  and seasonal values -- a constant amount of work per observation,
  independent of both the period length ``T`` and the number of points
  already processed;
* the optional **seasonality-shift handling** (Section 3.4) monitors the
  decomposed residual with a streaming NSigma detector and, when a point
  looks anomalous, retries the update with every phase shift in
  ``[-H, +H]``, keeping the shift that minimizes the absolute residual.

The online outputs match the exact Algorithm-2 reference
(:class:`repro.core.modified_joint_stl.ModifiedJointSTL`) to machine
precision, which is asserted by the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.nsigma import NSigma
from repro.core.online_system import HALF_BANDWIDTH, ContributionWorkspace
from repro.decomposition.base import (
    DecompositionPoint,
    DecompositionResult,
    OnlineDecomposer,
)
from repro.decomposition.stl import STL
from repro.registry import register_decomposer
from repro.solvers import IncrementalBandedLDLT
from repro.utils import as_float_array, check_period, check_positive, check_positive_int

__all__ = ["OneShotSTL"]


@dataclass(slots=True)
class _IterationState:
    """Per-IRLS-iteration online state (one incremental system per iteration)."""

    solver: IncrementalBandedLDLT
    previous_trend: float
    before_previous_trend: float

    def copy(self) -> "_IterationState":
        return _IterationState(
            solver=self.solver.copy(),
            previous_trend=self.previous_trend,
            before_previous_trend=self.before_previous_trend,
        )


def _advance_states(
    states: list[_IterationState],
    value: float,
    anchor: float,
    point_index: int,
    workspace: ContributionWorkspace,
    epsilon: float,
) -> tuple[float, float]:
    """Run the ``I`` IRLS iterations for one observation on ``states``.

    This is the model's update math detached from any particular
    :class:`OneShotSTL` instance: it consumes only the iteration states,
    the observation, the seasonal anchor and the IRLS hyper-parameters, so
    the plain advance and every scalar shift-search trial run it (the
    columnar :class:`repro.core.fleet.FleetKernel` repeats its operation
    sequence column-wise; the oracle tests hold the two float for float).
    """
    next_p, next_q = 1.0, 1.0
    trend_value = seasonal_value = 0.0
    lambda1, lambda2 = workspace.lambda1, workspace.lambda2
    for state in states:
        if point_index >= 2:
            # The steady-state pattern, fused with the tail solve on floats
            # (the same operations as the fill/extend/tail_solution below).
            trend_value, seasonal_value = state.solver.append_point(
                value, anchor, lambda1 * next_p, lambda2 * next_q
            )
        else:
            updates, rhs_new = workspace.fill(
                point_index, value, anchor, next_p, next_q
            )
            # The workspace emits a statically valid banded pattern, so
            # per-entry index validation is skipped.
            state.solver.extend(2, updates, rhs_new, check_indices=False)
            tail = state.solver.tail_solution(2)
            trend_value = float(tail[0])
            seasonal_value = float(tail[1])
        next_p = 0.5 / max(abs(trend_value - state.previous_trend), epsilon)
        next_q = 0.5 / max(
            abs(
                trend_value
                - 2.0 * state.previous_trend
                + state.before_previous_trend
            ),
            epsilon,
        )
        state.before_previous_trend = state.previous_trend
        state.previous_trend = trend_value
    return trend_value, seasonal_value


def _search_best_shift(
    states: list[_IterationState],
    value: float,
    seasonal_buffer: np.ndarray,
    global_index: int,
    period: int,
    shift_window: int,
    point_index: int,
    workspace: ContributionWorkspace,
    epsilon: float,
) -> tuple[list[_IterationState], float, float, int]:
    """Evaluate every candidate seasonality shift on *pre-advance* states.

    ``states`` must not yet contain the current point (the caller rolls
    back, or reads back a pre-extend snapshot); every candidate is
    evaluated on copies, so ``states`` is left untouched.  Candidate 0 runs
    first and deterministically reproduces the plain advance, so the
    strict-< comparison keeps the original tie-breaking: a non-zero shift
    is only chosen if it strictly reduces the absolute residual.

    Returns ``(chosen_states, trend, seasonal, chosen_shift)``.
    """
    best = None
    candidates = [0] + [
        candidate
        for candidate in range(-shift_window, shift_window + 1)
        if candidate != 0
    ]
    for candidate in candidates:
        trial_states = [state.copy() for state in states]
        anchor = float(seasonal_buffer[(global_index + candidate) % period])
        trial_trend, trial_seasonal = _advance_states(
            trial_states, value, anchor, point_index, workspace, epsilon
        )
        trial_residual = value - trial_trend - trial_seasonal
        if best is None or abs(trial_residual) < best[0]:
            best = (
                abs(trial_residual),
                trial_states,
                trial_trend,
                trial_seasonal,
                candidate,
            )
    _, chosen_states, trend_value, seasonal_value, chosen_shift = best
    return chosen_states, trend_value, seasonal_value, chosen_shift


@register_decomposer("oneshotstl")
class OneShotSTL(OnlineDecomposer):
    """Online seasonal-trend decomposition with O(1) update complexity.

    Parameters
    ----------
    period:
        Seasonal period length ``T`` (estimated on the initialization window,
        e.g. with :func:`repro.periodicity.find_length`).
    lambda1, lambda2:
        Trend smoothness hyper-parameters (the paper ties them,
        ``lambda1 = lambda2 = lambda``, and selects the value on the training
        window -- see :func:`repro.core.lambda_selection.select_lambda`).
    iterations:
        Number of IRLS iterations ``I`` (paper default 8; ``I = 1`` trades a
        little accuracy for speed, see Figure 10).
    shift_window:
        Maximum seasonality shift ``H`` searched when the residual looks
        anomalous (paper default 20; 0 disables the search).
    shift_threshold:
        NSigma threshold ``n`` that triggers the shift search (paper: 5).
    epsilon:
        Lower bound on trend differences in the IRLS weight update.
    initializer:
        Optional batch decomposer used for the initialization phase; defaults
        to periodic STL.  Pass ``JointSTL(period, ...)`` to initialize with
        the batch variant of the same model.
    """

    #: the online state :meth:`initialize` sets, in its order (a model the
    #: fleet kernel builds from a column carries it in the same order, so
    #: it pickles like one that never left scalar form)
    _STATE = (
        "_seasonal_buffer", "_global_index", "_last_applied_shift", "_last_trend",
        "_last_detection_residual", "_residual_monitor", "_iterations_state",
        "_workspace", "_points_processed",
    )  # fmt: skip

    def __init__(
        self,
        period: int,
        lambda1: float = 1.0,
        lambda2: float = 1.0,
        iterations: int = 8,
        shift_window: int = 20,
        shift_threshold: float = 5.0,
        epsilon: float = 1e-6,
        initializer=None,
    ):
        self.period = check_period(period)
        self.lambda1 = check_positive(lambda1, "lambda1")
        self.lambda2 = check_positive(lambda2, "lambda2")
        self.iterations = check_positive_int(iterations, "iterations")
        self.shift_window = check_positive_int(shift_window, "shift_window", minimum=0)
        self.shift_threshold = check_positive(shift_threshold, "shift_threshold")
        self.epsilon = check_positive(epsilon, "epsilon")
        self._initializer = initializer
        self._initialized = False

    supports_missing = True

    def get_params(self) -> dict:
        """Primitive constructor parameters (see :mod:`repro.specs`)."""
        if self._initializer is not None:
            raise ValueError(
                "a OneShotSTL with a custom initializer object cannot be "
                "described by primitive spec parameters"
            )
        return {
            "period": self.period,
            "lambda1": self.lambda1,
            "lambda2": self.lambda2,
            "iterations": self.iterations,
            "shift_window": self.shift_window,
            "shift_threshold": self.shift_threshold,
            "epsilon": self.epsilon,
        }

    # ------------------------------------------------------------------ API

    @property
    def seasonal_buffer(self) -> np.ndarray:
        """Copy of the current one-period seasonal buffer ``v``."""
        self._require_initialized()
        return self._seasonal_buffer.copy()

    @property
    def current_shift(self) -> int:
        """Shift chosen by the most recent seasonality-shift search.

        The shift is a *per-point* correction: it is applied to the point
        that triggered the search, whose seasonal estimate is written to the
        slot it matched, ``v[(t + shift) mod T]`` (not ``v[t mod T]``; the
        paper does not settle which slot Algorithm 5 writes, and this
        reproduction chose the matched one), and it is not carried forward
        as persistent state.  This property simply reports the last
        non-trivial correction for introspection.
        """
        self._require_initialized()
        return self._last_applied_shift

    @property
    def last_trend(self) -> float:
        """Most recent decomposed trend value."""
        self._require_initialized()
        return self._last_trend

    @property
    def last_detection_residual(self) -> float:
        """Residual of the latest point *before* any seasonality-shift search.

        Downstream anomaly detectors should score this value rather than the
        (possibly shift-corrected) residual of the returned decomposition:
        a genuine spike must not be silently explained away as a seasonal
        shift (Section 3.4 uses the same pre-correction residual to trigger
        the search).
        """
        self._require_initialized()
        return self._last_detection_residual

    def initialize(self, values) -> DecompositionResult:
        """Run the batch initialization phase on a prefix of the stream.

        The prefix should cover at least two seasonal periods; the paper uses
        roughly four periods (``W = 4 T``) or the dataset's train split.
        """
        values = as_float_array(values, "values", min_length=2 * self.period)
        initializer = self._initializer or STL(self.period, seasonal_window="periodic")
        result = initializer.decompose(values)

        self._seasonal_buffer = np.zeros(self.period)
        for index in range(values.size):
            self._seasonal_buffer[index % self.period] = result.seasonal[index]
        self._global_index = values.size
        self._last_applied_shift = 0
        self._last_trend = float(result.trend[-1])
        self._last_detection_residual = float(result.residual[-1])
        self._residual_monitor = NSigma(self.shift_threshold)
        for residual_value in result.residual.tolist():
            self._residual_monitor.update_stats(residual_value)

        self._iterations_state = [
            _IterationState(
                solver=IncrementalBandedLDLT(HALF_BANDWIDTH),
                previous_trend=float(result.trend[-1]),
                before_previous_trend=float(result.trend[-2]),
            )
            for _ in range(self.iterations)
        ]
        self._workspace = ContributionWorkspace(self.lambda1, self.lambda2)
        self._points_processed = 0
        self._initialized = True
        return result

    def update(self, value: float) -> DecompositionPoint:
        """Decompose one newly arrived observation in O(1) time.

        ``value`` may be NaN to indicate a missing observation (a gap in the
        stream).  Missing points are imputed with the model's own one-step
        forecast -- the latest trend plus the seasonal buffer value of the
        current phase -- and then processed normally, so the model's phase
        book-keeping stays aligned with wall-clock time.  The returned point
        carries the imputed value; its residual is *small* (the imputed
        value is the model's own forecast) but not exactly zero, because the
        IRLS solve still redistributes the imputed value between trend and
        seasonality together with the smoothness terms.  This addresses the
        "missing points" limitation called out in the paper's conclusion.
        """
        self._require_initialized()
        value = float(value)
        if not np.isfinite(value):
            value = float(
                self._last_trend
                + self._seasonal_buffer[self._global_index % self.period]
            )

        # Advance the real states directly.  Each solver keeps one O(1)
        # undo level internally, so no deep snapshot is needed up front;
        # the expensive state copies happen only on the rare points where
        # the shift search below actually triggers.
        states = self._iterations_state
        previous_trends = [
            (state.previous_trend, state.before_previous_trend) for state in states
        ]
        trend_value, seasonal_value = self._advance(states, value, 0)
        residual = value - trend_value - seasonal_value
        # The un-shifted residual is what the anomaly monitor sees: a genuine
        # anomaly (or a genuine seasonality shift) shows up here, before the
        # shift search tries to re-explain the point.
        self._last_detection_residual = residual
        chosen_shift = 0

        if self.shift_window > 0 and self._residual_monitor.score(residual).is_anomaly:
            # Restore the pre-point state, then evaluate every candidate
            # shift on copies (see _search_best_shift for the tie-breaking).
            for state, (previous, before_previous) in zip(states, previous_trends):
                state.solver.rollback()
                state.previous_trend = previous
                state.before_previous_trend = before_previous
            chosen_states, trend_value, seasonal_value, chosen_shift = (
                _search_best_shift(
                    states,
                    value,
                    self._seasonal_buffer,
                    self._global_index,
                    self.period,
                    self.shift_window,
                    self._points_processed,
                    self._workspace,
                    self.epsilon,
                )
            )
            self._iterations_state = chosen_states
            residual = value - trend_value - seasonal_value
            if chosen_shift != 0:
                self._last_applied_shift = chosen_shift

        # The monitor tracks the *detection* residual so that one corrected
        # point does not mask a persistent problem from the statistics.
        self._residual_monitor.update(self._last_detection_residual)
        # The seasonal estimate belongs to the phase it was matched against:
        # for a genuine shift this rewrites the correct (shifted) slot, for a
        # spurious trigger it perturbs a single slot only, because the shift
        # is not carried over to later points.
        buffer_position = (self._global_index + chosen_shift) % self.period
        self._seasonal_buffer[buffer_position] = seasonal_value
        self._global_index += 1
        self._points_processed += 1
        self._last_trend = trend_value
        return DecompositionPoint(value, trend_value, seasonal_value, residual)

    def forecast(self, horizon: int) -> np.ndarray:
        """Forecast the next ``horizon`` values (paper Section 4).

        The prediction combines the latest decomposed trend with the
        periodic continuation of the seasonal buffer:
        ``y_hat(t + i) = trend(t) + v[(t + i) mod T]``.
        """
        self._require_initialized()
        horizon = check_positive_int(horizon, "horizon")
        positions = (self._global_index + np.arange(horizon)) % self.period
        return self._last_trend + self._seasonal_buffer[positions]

    # ------------------------------------------------------------- internals

    def _require_initialized(self) -> None:
        if not self._initialized:
            raise RuntimeError("initialize() must be called before using the model")

    def _advance(
        self, states: list[_IterationState], value: float, shift: int
    ) -> tuple[float, float]:
        """Run the ``I`` IRLS iterations for one observation on ``states``."""
        anchor = float(
            self._seasonal_buffer[(self._global_index + shift) % self.period]
        )
        return _advance_states(
            states,
            value,
            anchor,
            self._points_processed,
            self._workspace,
            self.epsilon,
        )
