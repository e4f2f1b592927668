"""Columnar fleet kernel: one array op advances every OneShotSTL series.

A production fleet runs the O(1) online decomposition on thousands of
metrics at once.  Advancing each series through its own Python
:class:`~repro.core.oneshotstl.OneShotSTL` instance pays the interpreter
cost ``n`` times per point; this module instead keeps the *whole fleet's*
state in struct-of-arrays form and advances every series with a handful of
NumPy operations per IRLS iteration:

* the per-iteration incremental solvers become one
  :class:`~repro.solvers.batched_ldlt.BatchedIncrementalLDLT` per IRLS
  iteration (``(n, w, w)`` corrected trailing blocks);
* seasonal buffers, trends, phase counters and the residual monitor's
  Welford statistics become contiguous ``(n, ...)`` arrays.

Because every array operation is elementwise over the series axis and is
applied in exactly the order the scalar model performs it, the kernel's
outputs equal the scalar path's outputs *exactly* -- the oracle tests
assert float-for-float equality, shift searches and all.

Series whose seasonality-shift search triggers diverge from the lockstep
batch: those (rare) series fall back to the scalar search
(:func:`repro.core.oneshotstl._search_best_shift` -- the same code the
scalar model runs), reading their pre-advance state back out of the batched
solvers' undo level, and the chosen state is scattered back into the
columnar arrays.  The fleet therefore pays the expensive search only for
the series that trigger it, exactly like the scalar model does.

The kernel is deliberately dumb about membership: it packs already-warm
scalar models (:meth:`FleetKernel.pack`), extracts any member back into an
equivalent scalar model (:meth:`FleetKernel.extract` /
:meth:`FleetKernel.write_into`), and advances all or a subset of columns
(:meth:`FleetKernel.update_block`).  Grouping series by configuration, lazy
absorption and checkpoint (de)materialization live in the streaming engine
(:mod:`repro.streaming.engine`).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.core.nsigma import NSigma
from repro.core.oneshotstl import (
    OneShotSTL,
    _IterationState,
    _search_best_shift,
)
from repro.analysis import hotpath
from repro.core.online_system import HALF_BANDWIDTH, ContributionWorkspace
from repro.solvers.batched_ldlt import BatchedIncrementalLDLT
from repro.utils import amortized_append

__all__ = ["ColumnarNSigma", "FleetKernel", "FleetUpdate"]

#: local trailing-block coordinates of the steady-state per-point update
#: pattern (ContributionWorkspace offsets shifted to the appended trend
#: variable, which always sits at local index ``HALF_BANDWIDTH``).
_PATTERN_ROWS = HALF_BANDWIDTH + ContributionWorkspace._ROW_OFFSETS
_PATTERN_COLS = HALF_BANDWIDTH + ContributionWorkspace._COL_OFFSETS

#: ceiling on the rounds advanced per staged run of :meth:`FleetKernel.
#: update_block`.  Runs must not exceed ``period`` (a longer run would
#: read a seasonal slot an earlier round of the same run wrote); the
#: constant additionally bounds the blocked workspaces for huge periods.
_MAX_BLOCK_ROUNDS = 64


class ColumnarNSigma:
    """Struct-of-arrays form of ``n`` independent :class:`NSigma` scorers.

    All members must share ``threshold`` and ``minimum_std`` (they come
    from one pipeline spec).  ``score``/``update`` vectorize the scalar
    scorer's exact operation sequence over the series axis, so scores and
    verdicts equal the scalar scorers' exactly.
    """

    def __init__(
        self,
        threshold: float,
        minimum_std: float,
        count: np.ndarray,
        mean: np.ndarray,
        m2: np.ndarray,
    ):
        self.threshold = float(threshold)
        self.minimum_std = float(minimum_std)
        self.count = np.asarray(count, dtype=np.int64)
        self.mean = np.asarray(mean, dtype=float)
        self.m2 = np.asarray(m2, dtype=float)

    @classmethod
    def empty(cls, threshold: float, minimum_std: float) -> "ColumnarNSigma":
        return cls(
            threshold,
            minimum_std,
            np.zeros(0, dtype=np.int64),
            np.zeros(0),
            np.zeros(0),
        )

    @classmethod
    def pack(cls, scorers: Sequence[NSigma]) -> "ColumnarNSigma":
        """Lift scalar scorers into columnar form (scalars left untouched)."""
        if not scorers:
            raise ValueError("pack() needs at least one scorer")
        threshold = scorers[0].threshold
        minimum_std = scorers[0].minimum_std
        for index, scorer in enumerate(scorers):
            if (
                scorer.threshold != threshold
                or scorer.minimum_std != minimum_std
            ):
                raise ValueError(
                    f"scorer {index} has different parameters; a columnar "
                    "batch requires a uniform threshold and minimum_std"
                )
        return cls(
            threshold,
            minimum_std,
            np.array([scorer._count for scorer in scorers], dtype=np.int64),
            np.array([scorer._mean for scorer in scorers], dtype=float),
            np.array([scorer._m2 for scorer in scorers], dtype=float),
        )

    @property
    def n_series(self) -> int:
        return self.count.shape[0]

    def extract(self, index: int) -> NSigma:
        """Materialize member ``index`` as an equivalent scalar scorer."""
        scorer = NSigma(self.threshold, self.minimum_std)
        self.write_into(index, scorer)
        return scorer

    def write_into(self, index: int, scorer: NSigma) -> None:
        """Overwrite a scalar scorer's state with member ``index``."""
        scorer._count = int(self.count[index])
        scorer._mean = float(self.mean[index])
        scorer._m2 = float(self.m2[index])

    def write_many(self, columns: np.ndarray, scorers: Sequence[NSigma]) -> None:
        """Overwrite ``scorers[i]`` with member ``columns[i]``, for all ``i``.

        One gather + bulk ``tolist`` per state array instead of three
        per-member array indexings; values are identical to repeated
        :meth:`write_into` calls.
        """
        counts = self.count[columns].tolist()
        means = self.mean[columns].tolist()
        m2s = self.m2[columns].tolist()
        for position, scorer in enumerate(scorers):
            scorer._count = counts[position]
            scorer._mean = means[position]
            scorer._m2 = m2s[position]

    def load(self, index: int, scorer: NSigma) -> None:
        """Overwrite member ``index`` with a scalar scorer's state."""
        self.count[index] = scorer._count
        self.mean[index] = scorer._mean
        self.m2[index] = scorer._m2

    def append(self, other: "ColumnarNSigma") -> None:
        """Append members with amortized (capacity-doubling) growth."""
        if (
            other.threshold != self.threshold
            or other.minimum_std != self.minimum_std
        ):
            raise ValueError("parameter mismatch between columnar batches")
        self.count = amortized_append(self.count, other.count)
        self.mean = amortized_append(self.mean, other.mean)
        self.m2 = amortized_append(self.m2, other.m2)

    def select(self, columns: np.ndarray) -> "ColumnarNSigma":
        return ColumnarNSigma(
            self.threshold,
            self.minimum_std,
            self.count[columns],
            self.mean[columns],
            self.m2[columns],
        )

    def assign(self, columns: np.ndarray, other: "ColumnarNSigma") -> None:
        self.count[columns] = other.count
        self.mean[columns] = other.mean
        self.m2[columns] = other.m2

    @hotpath
    def score(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Score without updating; returns ``(scores, is_anomaly)`` arrays."""
        variance = self.m2 / np.maximum(self.count, 1)
        std = np.sqrt(np.maximum(variance, 0.0))
        std = np.maximum(std, self.minimum_std)
        scores = np.abs(values - self.mean) / std
        # A scorer that has seen nothing yet returns (0.0, False), exactly
        # like the scalar scorer's count == 0 guard.
        fresh = self.count == 0
        if fresh.any():
            scores = np.where(fresh, 0.0, scores)
        return scores, scores > self.threshold

    @hotpath
    def update(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Score then fold ``values`` into the running Welford statistics."""
        scores, flags = self.score(values)
        self.count += 1
        delta = values - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (values - self.mean)
        return scores, flags

    @hotpath
    def update_stats(self, values: np.ndarray) -> None:
        """Fold ``values`` into the Welford statistics without scoring.

        Exactly the mutation half of :meth:`update` (scoring reads but
        never writes), so the statistics evolve identically whether or
        not the caller wanted the scores -- the blocked kernel path
        scores separately only when the shift search needs the verdicts.
        """
        self.count += 1
        delta = values - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (values - self.mean)

    @hotpath
    def update_block(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Score-and-update a ``(rounds, n)`` block, one round at a time.

        The Welford recurrence is sequential across rounds, so each round
        replays :meth:`update`'s exact operation order; the stacked
        ``(rounds, n)`` scores and verdicts equal per-round calls float
        for float.
        """
        n_rounds = values.shape[0]
        scores = np.empty(values.shape)
        flags = np.empty(values.shape, dtype=bool)
        for index in range(n_rounds):
            row_scores, row_flags = self.update(values[index])
            scores[index] = row_scores
            flags[index] = row_flags
        return scores, flags


class FleetUpdate:
    """Per-point outputs of one :meth:`FleetKernel.update_block` call.

    All fields are ``(rounds, n)`` arrays over the updated columns, in
    column order: ``value`` carries the (possibly imputed) observation,
    ``residual`` the post-shift-search residual and ``detection_residual``
    the pre-search residual that downstream anomaly scorers must consume
    (the same contract as the scalar model's ``last_detection_residual``).
    """

    __slots__ = ("value", "trend", "seasonal", "residual", "detection_residual")

    def __init__(self, value, trend, seasonal, residual, detection_residual):
        self.value = value
        self.trend = trend
        self.seasonal = seasonal
        self.residual = residual
        self.detection_residual = detection_residual


class _BatchedIterationState:
    """Columnar counterpart of one per-IRLS-iteration ``_IterationState``."""

    __slots__ = ("solver", "previous_trend", "before_previous_trend")

    def __init__(
        self,
        solver: BatchedIncrementalLDLT,
        previous_trend: np.ndarray,
        before_previous_trend: np.ndarray,
    ):
        self.solver = solver
        self.previous_trend = previous_trend
        self.before_previous_trend = before_previous_trend


class FleetKernel:
    """Columnar OneShotSTL state for ``n`` series sharing one configuration.

    Use :meth:`pack` to build a kernel from live scalar models; all members
    must share the constructor hyper-parameters (they normally come from
    one :class:`~repro.specs.PipelineSpec`), be initialized, be past the
    solver warm-up (every per-iteration solver in incremental mode, which
    holds after ``3 * HALF_BANDWIDTH / 2`` online points) and use the
    default (non-custom) initializer path.  :meth:`eligible` reports
    whether a model can currently be packed.
    """

    def __init__(self, params: dict, n_series: int):
        self.period = int(params["period"])
        self.lambda1 = float(params["lambda1"])
        self.lambda2 = float(params["lambda2"])
        self.iterations = int(params["iterations"])
        self.shift_window = int(params["shift_window"])
        self.shift_threshold = float(params["shift_threshold"])
        self.epsilon = float(params["epsilon"])
        self._n = int(n_series)
        # Scalar workspace shared by the per-series fallback paths.
        self._workspace = ContributionWorkspace(self.lambda1, self.lambda2)
        # Reusable per-update workspaces (allocated lazily, sized to n):
        # the row-index gather vector and the reweighted-iteration pattern
        # buffer.  Purely an allocation-avoidance cache -- no decomposition
        # state lives here.
        self._arange: np.ndarray | None = None
        self._pattern_values: np.ndarray | None = None
        # Round-blocked workspaces (update_block): per-iteration trend
        # histories, staged right-hand sides, per-round seasonal phases
        # and the non-final-iteration seasonal scratch row.
        self._block_hists: list[np.ndarray] | None = None
        self._block_rhs: np.ndarray | None = None
        self._block_phases: np.ndarray | None = None
        self._block_seasonal: np.ndarray | None = None
        # First-iteration pattern values are round-invariant (the raw
        # lambdas), so they are staged once per run; the reweighting
        # scratch rows avoid per-iteration temporaries.
        self._block_pattern0: np.ndarray | None = None
        self._block_weight_p: np.ndarray | None = None
        self._block_weight_q: np.ndarray | None = None

    def _rows(self) -> np.ndarray:
        """``np.arange(n_series)`` (cached; used for per-series gathers)."""
        rows = self._arange
        if rows is None or rows.size != self._n:
            self._arange = rows = np.arange(self._n)
        return rows

    # ----------------------------------------------------------- construction

    @staticmethod
    def eligible(model) -> bool:
        """Whether ``model`` is a packable, warm OneShotSTL instance."""
        if type(model) is not OneShotSTL:
            return False
        if not getattr(model, "_initialized", False) or model._initializer is not None:
            return False
        return all(
            state.solver.is_incremental for state in model._iterations_state
        )

    @classmethod
    def pack(cls, models: Sequence[OneShotSTL]) -> "FleetKernel":
        """Lift warm scalar models into one columnar kernel.

        The scalar instances are left untouched (their state is copied); a
        model that later needs to leave the batch is rebuilt with
        :meth:`extract` or :meth:`write_into`.
        """
        if not models:
            raise ValueError("pack() needs at least one model")
        reference = models[0].get_params()
        for index, model in enumerate(models):
            if not cls.eligible(model):
                raise ValueError(
                    f"model {index} is not packable (must be an initialized "
                    "OneShotSTL past solver warm-up, without a custom "
                    "initializer)"
                )
            if model.get_params() != reference:
                raise ValueError(
                    f"model {index} has different hyper-parameters; a fleet "
                    "kernel requires a uniform configuration"
                )
        kernel = cls(reference, len(models))
        kernel.seasonal_buffer = np.array(
            [model._seasonal_buffer for model in models], dtype=float
        )
        kernel.global_index = np.array(
            [model._global_index for model in models], dtype=np.int64
        )
        kernel.points_processed = np.array(
            [model._points_processed for model in models], dtype=np.int64
        )
        kernel.last_trend = np.array(
            [model._last_trend for model in models], dtype=float
        )
        kernel.last_detection_residual = np.array(
            [model._last_detection_residual for model in models], dtype=float
        )
        kernel.last_applied_shift = np.array(
            [model._last_applied_shift for model in models], dtype=np.int64
        )
        kernel.monitor = ColumnarNSigma.pack(
            [model._residual_monitor for model in models]
        )
        kernel.iteration_states = []
        for iteration in range(kernel.iterations):
            states = [model._iterations_state[iteration] for model in models]
            kernel.iteration_states.append(
                _BatchedIterationState(
                    solver=BatchedIncrementalLDLT.pack(
                        [state.solver for state in states]
                    ),
                    previous_trend=np.array(
                        [state.previous_trend for state in states], dtype=float
                    ),
                    before_previous_trend=np.array(
                        [state.before_previous_trend for state in states],
                        dtype=float,
                    ),
                )
            )
        return kernel

    @property
    def n_series(self) -> int:
        return self._n

    def get_params(self) -> dict:
        """The uniform OneShotSTL constructor parameters of the fleet."""
        return {
            "period": self.period,
            "lambda1": self.lambda1,
            "lambda2": self.lambda2,
            "iterations": self.iterations,
            "shift_window": self.shift_window,
            "shift_threshold": self.shift_threshold,
            "epsilon": self.epsilon,
        }

    # ------------------------------------------------ scalar interoperability

    def extract(self, index: int) -> OneShotSTL:
        """Materialize member ``index`` as an equivalent scalar model."""
        model = OneShotSTL(**self.get_params())
        model._initialized = True
        model._seasonal_buffer = self.seasonal_buffer[index].copy()
        model._workspace = ContributionWorkspace(self.lambda1, self.lambda2)
        model._residual_monitor = NSigma(self.shift_threshold)
        model._iterations_state = [
            _IterationState(solver=None, previous_trend=0.0, before_previous_trend=0.0)
            for _ in range(self.iterations)
        ]
        self.write_into(index, model)
        return model

    def write_into(self, index: int, model: OneShotSTL) -> None:
        """Overwrite a live scalar model's state with member ``index``.

        The model keeps its identity (and its workspace/initializer
        attributes); only the evolving decomposition state is written.
        """
        model._seasonal_buffer[:] = self.seasonal_buffer[index]
        model._global_index = int(self.global_index[index])
        model._points_processed = int(self.points_processed[index])
        model._last_trend = float(self.last_trend[index])
        model._last_detection_residual = float(
            self.last_detection_residual[index]
        )
        model._last_applied_shift = int(self.last_applied_shift[index])
        self.monitor.write_into(index, model._residual_monitor)
        for iteration, batched in enumerate(self.iteration_states):
            state = model._iterations_state[iteration]
            state.solver = batched.solver.extract(index)
            state.previous_trend = float(batched.previous_trend[index])
            state.before_previous_trend = float(
                batched.before_previous_trend[index]
            )

    def write_members(
        self, columns: np.ndarray, models: Sequence[OneShotSTL]
    ) -> None:
        """Overwrite ``models[i]`` with member ``columns[i]``, for all ``i``.

        The batched form of :meth:`write_into`: every per-series state
        array is gathered once and bulk-converted (``ndarray.tolist()``
        yields exact Python scalars), and the per-iteration solvers come
        out of :meth:`BatchedIncrementalLDLT.extract_many`.  This is the
        cohort-granular state export the durable checkpoint layer runs on:
        writing one dirty cohort of a large fleet touches only that
        cohort's columns, never the whole kernel.  Values are identical to
        repeated :meth:`write_into` calls.
        """
        columns = np.asarray(columns, dtype=np.intp)
        seasonal = self.seasonal_buffer[columns]
        global_index = self.global_index[columns].tolist()
        points_processed = self.points_processed[columns].tolist()
        last_trend = self.last_trend[columns].tolist()
        last_detection = self.last_detection_residual[columns].tolist()
        last_shift = self.last_applied_shift[columns].tolist()
        per_iteration = [
            (
                batched.solver.extract_many(columns),
                batched.previous_trend[columns].tolist(),
                batched.before_previous_trend[columns].tolist(),
            )
            for batched in self.iteration_states
        ]
        self.monitor.write_many(
            columns, [model._residual_monitor for model in models]
        )
        for position, model in enumerate(models):
            model._seasonal_buffer[:] = seasonal[position]
            model._global_index = global_index[position]
            model._points_processed = points_processed[position]
            model._last_trend = last_trend[position]
            model._last_detection_residual = last_detection[position]
            model._last_applied_shift = last_shift[position]
            for state, (solvers, previous, before) in zip(
                model._iterations_state, per_iteration
            ):
                state.solver = solvers[position]
                state.previous_trend = previous[position]
                state.before_previous_trend = before[position]

    def load(self, index: int, model: OneShotSTL) -> None:
        """Overwrite member ``index`` with a scalar model's state."""
        self.seasonal_buffer[index] = model._seasonal_buffer
        self.global_index[index] = model._global_index
        self.points_processed[index] = model._points_processed
        self.last_trend[index] = model._last_trend
        self.last_detection_residual[index] = model._last_detection_residual
        self.last_applied_shift[index] = model._last_applied_shift
        self.monitor.load(index, model._residual_monitor)
        for iteration, batched in enumerate(self.iteration_states):
            state = model._iterations_state[iteration]
            batched.solver.load(index, state.solver)
            batched.previous_trend[index] = state.previous_trend
            batched.before_previous_trend[index] = state.before_previous_trend

    def unpack(self) -> list[OneShotSTL]:
        """Materialize every member as an independent scalar model."""
        return [self.extract(index) for index in range(self._n)]

    # ------------------------------------------------------ batch membership

    def append(self, other: "FleetKernel") -> None:
        """Append the members of ``other`` (same configuration required).

        Growth is amortized: every columnar array (and the batched solvers'
        state buffers) carries hidden spare capacity that is doubled when
        exhausted, so absorbing a trickle of late-joining series one
        cohort at a time costs O(total members) instead of one full-fleet
        copy per cohort.
        """
        if other.get_params() != self.get_params():
            raise ValueError("configuration mismatch between fleet kernels")
        self.seasonal_buffer = amortized_append(
            self.seasonal_buffer, other.seasonal_buffer
        )
        self.global_index = amortized_append(self.global_index, other.global_index)
        self.points_processed = amortized_append(
            self.points_processed, other.points_processed
        )
        self.last_trend = amortized_append(self.last_trend, other.last_trend)
        self.last_detection_residual = amortized_append(
            self.last_detection_residual, other.last_detection_residual
        )
        self.last_applied_shift = amortized_append(
            self.last_applied_shift, other.last_applied_shift
        )
        self.monitor.append(other.monitor)
        for mine, theirs in zip(self.iteration_states, other.iteration_states):
            mine.solver.append(theirs.solver)
            mine.previous_trend = amortized_append(
                mine.previous_trend, theirs.previous_trend
            )
            mine.before_previous_trend = amortized_append(
                mine.before_previous_trend, theirs.before_previous_trend
            )
        self._n += other._n

    def select(self, columns: np.ndarray) -> "FleetKernel":
        """Gathered copy of the members at ``columns``."""
        sub = FleetKernel(self.get_params(), len(columns))
        sub.seasonal_buffer = self.seasonal_buffer[columns]
        sub.global_index = self.global_index[columns]
        sub.points_processed = self.points_processed[columns]
        sub.last_trend = self.last_trend[columns]
        sub.last_detection_residual = self.last_detection_residual[columns]
        sub.last_applied_shift = self.last_applied_shift[columns]
        sub.monitor = self.monitor.select(columns)
        sub.iteration_states = [
            _BatchedIterationState(
                solver=state.solver.select(columns),
                previous_trend=state.previous_trend[columns],
                before_previous_trend=state.before_previous_trend[columns],
            )
            for state in self.iteration_states
        ]
        return sub

    def assign(self, columns: np.ndarray, other: "FleetKernel") -> None:
        """Scatter the members of ``other`` back into ``columns``."""
        self.seasonal_buffer[columns] = other.seasonal_buffer
        self.global_index[columns] = other.global_index
        self.points_processed[columns] = other.points_processed
        self.last_trend[columns] = other.last_trend
        self.last_detection_residual[columns] = other.last_detection_residual
        self.last_applied_shift[columns] = other.last_applied_shift
        self.monitor.assign(columns, other.monitor)
        for mine, theirs in zip(self.iteration_states, other.iteration_states):
            mine.solver.assign(columns, theirs.solver)
            mine.previous_trend[columns] = theirs.previous_trend
            mine.before_previous_trend[columns] = theirs.before_previous_trend

    # -------------------------------------------------------------- streaming

    @hotpath
    def update_block(
        self, values: np.ndarray, columns: np.ndarray | None = None
    ) -> FleetUpdate:
        """Decompose a ``(rounds, n)`` block of observations round by round.

        Semantically identical (float for float, shift searches and all)
        to advancing every member's scalar :class:`OneShotSTL` once per row
        of ``values``, but rounds advance in *staged runs*: the solver
        extends skip validation and pivot guards over pre-staged scratch
        (:meth:`BatchedIncrementalLDLT.extend_solve`), the per-iteration
        trend recurrences run over a block-resident history instead of
        copying state per round, and seasonal-buffer scatters plus the
        phase counters commit once per run.  Three events end a run early
        (the remaining rounds re-stage):

        * a round with missing observations is imputed from live state
          (latest trend + seasonal buffer at the current phase, exactly
          like the scalar model) and advances as a one-round run;
        * a round that trips the seasonality-shift search finishes its
          flagged members on the scalar search path;
        * a round that goes non-finite under the unguarded solves is rolled
          back and ends the *call*: the returned arrays then cover only the
          rounds before it, the kernel holds exactly the state after those
          rounds, and the caller must advance that round member by member
          through the scalar models (:meth:`extract` / :meth:`load`) --
          which is by definition the scalar behavior, pivot errors
          included -- before submitting the rest.

        The returned :class:`FleetUpdate` carries ``(rounds advanced, n)``
        arrays.
        """
        if columns is not None:
            columns = np.asarray(columns, dtype=np.intp)
            sub = self.select(columns)
            result = sub.update_block(np.asarray(values, dtype=float))
            self.assign(columns, sub)
            return result
        n = self._n
        values = np.asarray(values, dtype=float)
        if values.ndim != 2 or values.shape[1] != n:
            raise ValueError(f"values must have shape (rounds, {n})")
        n_rounds = values.shape[0]
        value_out = values.copy()
        trend_out = np.empty((n_rounds, n))
        seasonal_out = np.empty((n_rounds, n))
        residual_out = np.empty((n_rounds, n))
        detection_out = np.empty((n_rounds, n))
        finite = np.isfinite(values)
        clean = finite.all(axis=1)
        run_cap = min(self.period, _MAX_BLOCK_ROUNDS)
        row = 0
        while row < n_rounds:
            stop = row + 1
            if clean[row]:
                limit = min(n_rounds, row + run_cap)
                while stop < limit and clean[stop]:
                    stop += 1
            else:
                # Missing observations: impute with the model's own
                # one-step forecast, which reads live state -- so the
                # round is its own run.
                phase = self.global_index % self.period
                anchor = self.seasonal_buffer[self._rows(), phase]
                forecast = self.last_trend + anchor
                value_out[row] = np.where(finite[row], values[row], forecast)
            row, solved = self._advance_block(
                value_out,
                row,
                stop,
                trend_out,
                seasonal_out,
                residual_out,
                detection_out,
            )
            if not solved:
                break
        return FleetUpdate(
            value_out[:row],
            trend_out[:row],
            seasonal_out[:row],
            residual_out[:row],
            detection_out[:row],
        )

    # ------------------------------------------------------------- internals

    @hotpath
    def _advance_block(
        self,
        values: np.ndarray,
        start: int,
        stop: int,
        trend_out: np.ndarray,
        seasonal_out: np.ndarray,
        residual_out: np.ndarray,
        detection_out: np.ndarray,
    ) -> tuple[int, bool]:
        """Advance the all-finite rounds ``[start, stop)`` as one staged run.

        Returns ``(next_round, solved)``: the index one past the last
        round actually advanced -- the whole run normally, or less when a
        shift-search trigger or a non-finite solve ended the run early --
        and whether every solve stayed finite (``False`` means round
        ``next_round`` was rolled back).  ``stop - start`` never
        exceeds ``min(period, _MAX_BLOCK_ROUNDS)``, which guarantees no
        round of the run reads a seasonal slot an earlier round wrote --
        the precondition for staging anchors and deferring the seasonal
        scatter to run end.
        """
        n = self._n
        n_rounds = stop - start
        rows = self._rows()
        period = self.period
        hists, rhs_block, phases, pattern_values = self._block_workspaces(n_rounds)
        states = self.iteration_states
        solvers = [state.solver for state in states]
        n_iterations = len(states)
        last = n_iterations - 1
        # Seed each iteration's trend history with its pre-run pair and
        # stage the shared right-hand sides and seasonal phases for the
        # whole run up front.
        for iteration in range(n_iterations):
            hist = hists[iteration]
            state = states[iteration]
            np.copyto(hist[0], state.before_previous_trend)
            np.copyto(hist[1], state.previous_trend)
            solvers[iteration].begin_extend_block(2, _PATTERN_ROWS, _PATTERN_COLS)
        phases_view = phases[:n_rounds]
        np.remainder(
            self.global_index[None, :] + np.arange(n_rounds)[:, None],
            period,
            out=phases_view,
        )
        rhs_view = rhs_block[:n_rounds]
        rhs_view[:, 0] = values[start:stop]
        np.add(
            values[start:stop],
            self.seasonal_buffer[rows[None, :], phases_view],
            out=rhs_view[:, 1],
        )
        lambda1 = self.lambda1
        lambda2 = self.lambda2
        epsilon = self.epsilon
        shift_window = self.shift_window
        monitor = self.monitor
        seasonal_scratch = self._block_seasonal
        hist_last = hists[last]
        pattern0 = self._block_pattern0
        weight_p = self._block_weight_p
        weight_q = self._block_weight_q
        pattern_values[:4] = 1.0
        for r in range(n_rounds):
            rhs_r = rhs_view[r]
            for iteration in range(n_iterations):
                if iteration == 0:
                    # next_p/next_q start each round at 1.0, so the first
                    # iteration's weights are the raw lambdas
                    # (x * 1.0 == x bit for bit) -- the round-invariant
                    # pattern0 buffer staged by _block_workspaces.
                    values_buffer = pattern0
                else:
                    # The same per-row products as the scalar sequence
                    # (multiplication commutes bitwise; rows 5/9/11/12 are
                    # copies of already-computed rows), written without
                    # intermediate temporaries.
                    np.multiply(weight_p, lambda1, out=pattern_values[4])
                    pattern_values[5] = pattern_values[4]
                    np.negative(pattern_values[4], out=pattern_values[6])
                    np.multiply(weight_q, lambda2, out=pattern_values[7])
                    np.multiply(pattern_values[7], 4.0, out=pattern_values[8])
                    pattern_values[9] = pattern_values[7]
                    np.multiply(pattern_values[7], -2.0, out=pattern_values[10])
                    pattern_values[11] = pattern_values[7]
                    pattern_values[12] = pattern_values[10]
                    values_buffer = pattern_values
                hist = hists[iteration]
                trend_row = hist[r + 2]
                if iteration == last:
                    seasonal_row = seasonal_out[start + r]
                else:
                    seasonal_row = seasonal_scratch
                solvers[iteration].extend_solve(
                    values_buffer, rhs_r, trend_row, seasonal_row
                )
                if iteration != last:
                    # The final iteration's reweighting is dead (weights
                    # reset each round), so it is skipped.  Same operation
                    # sequence as the scalar 0.5 / max(|diff|, eps), into
                    # the reused weight rows.
                    previous = hist[r + 1]
                    np.subtract(trend_row, previous, out=weight_p)
                    np.absolute(weight_p, out=weight_p)
                    np.maximum(weight_p, epsilon, out=weight_p)
                    np.divide(0.5, weight_p, out=weight_p)
                    np.multiply(previous, 2.0, out=weight_q)
                    np.subtract(trend_row, weight_q, out=weight_q)
                    np.add(weight_q, hist[r], out=weight_q)
                    np.absolute(weight_q, out=weight_q)
                    np.maximum(weight_q, epsilon, out=weight_q)
                    np.divide(0.5, weight_q, out=weight_q)
            trend_row = hist_last[r + 2]
            seasonal_row = seasonal_out[start + r]
            if not (
                math.isfinite(float(trend_row.sum()))
                and math.isfinite(float(seasonal_row.sum()))
            ):
                self._blocked_abort_round(
                    start, r, phases_view, trend_out, seasonal_out, detection_out
                )
                return start + r, False
            trend_out[start + r] = trend_row
            residual_row = residual_out[start + r]
            np.subtract(values[start + r], trend_row, out=residual_row)
            np.subtract(residual_row, seasonal_row, out=residual_row)
            detection_row = detection_out[start + r]
            detection_row[:] = residual_row
            if shift_window > 0:
                flagged = monitor.score(residual_row)[1]
                if flagged.any():
                    self._blocked_flagged_round(
                        values,
                        start,
                        r,
                        flagged,
                        phases_view,
                        trend_out,
                        seasonal_out,
                        residual_out,
                        hists,
                    )
                    monitor.update_stats(detection_row)
                    self._block_commit(r, hists, trend_out[start + r], detection_row)
                    return start + r + 1, True
            monitor.update_stats(detection_row)
        self._block_flush(start, n_rounds, phases_view, seasonal_out)
        self._block_commit(
            n_rounds - 1, hists, trend_out[stop - 1], detection_out[stop - 1]
        )
        return stop, True

    def _block_workspaces(
        self, n_rounds: int
    ) -> tuple[list[np.ndarray], np.ndarray, np.ndarray, np.ndarray]:
        """(Re)size the round-blocked workspaces for an ``n_rounds`` run."""
        n = self._n
        hists = self._block_hists
        if (
            hists is None
            or len(hists) != self.iterations
            or hists[0].shape[0] < n_rounds + 2
            or hists[0].shape[1] != n
        ):
            self._block_hists = hists = [
                np.empty((n_rounds + 2, n)) for _ in range(self.iterations)
            ]
            self._block_rhs = np.empty((n_rounds, 2, n))
            self._block_phases = np.empty((n_rounds, n), dtype=np.int64)
            self._block_seasonal = np.empty(n)
        pattern_values = self._pattern_values
        if pattern_values is None or pattern_values.shape[1] != n:
            self._pattern_values = pattern_values = np.empty(
                (_PATTERN_ROWS.size, n)
            )
        pattern0 = self._block_pattern0
        if pattern0 is None or pattern0.shape[1] != n:
            self._block_pattern0 = pattern0 = np.empty((_PATTERN_ROWS.size, n))
            self._block_weight_p = np.empty(n)
            self._block_weight_q = np.empty(n)
        # The first IRLS iteration's weights are the raw lambdas on every
        # round (its ``next_p``/``next_q`` are 1.0), so its pattern-value
        # buffer is filled once per run -- the scalar broadcasts of
        # ContributionWorkspace.fill's steady-state pattern.
        pattern0[:4] = 1.0
        pattern0[4] = self.lambda1
        pattern0[5] = self.lambda1
        pattern0[6] = -self.lambda1
        pattern0[7] = self.lambda2
        pattern0[8] = 4.0 * self.lambda2
        pattern0[9] = self.lambda2
        pattern0[10] = -2.0 * self.lambda2
        pattern0[11] = self.lambda2
        pattern0[12] = -2.0 * self.lambda2
        return hists, self._block_rhs, self._block_phases, pattern_values

    def _block_flush(
        self,
        start: int,
        count: int,
        phases_view: np.ndarray,
        seasonal_out: np.ndarray,
    ) -> None:
        """Apply the deferred seasonal scatters and counters of a run prefix.

        Within a run every series writes ``count`` distinct seasonal
        slots (runs never exceed ``period`` rounds), so one fancy scatter
        equals the per-round scatters.
        """
        if count == 0:
            return
        rows = self._rows()
        self.seasonal_buffer[rows[None, :], phases_view[:count]] = seasonal_out[
            start : start + count
        ]
        self.global_index += count
        self.points_processed += count

    def _block_commit(
        self,
        r: int,
        hists: list[np.ndarray],
        trend_row: np.ndarray,
        detection_row: np.ndarray,
    ) -> None:
        """Write the trend pairs and last-point state back after a run.

        ``r`` is the last round (run-relative) actually advanced; the
        per-iteration pairs come out of the block-resident histories,
        which are authoritative during a run.
        """
        states = self.iteration_states
        for iteration in range(len(states)):
            state = states[iteration]
            hist = hists[iteration]
            np.copyto(state.before_previous_trend, hist[r + 1])
            np.copyto(state.previous_trend, hist[r + 2])
        np.copyto(self.last_trend, trend_row)
        np.copyto(self.last_detection_residual, detection_row)

    def _blocked_flagged_round(
        self,
        values: np.ndarray,
        start: int,
        r: int,
        flagged: np.ndarray,
        phases_view: np.ndarray,
        trend_out: np.ndarray,
        seasonal_out: np.ndarray,
        residual_out: np.ndarray,
        hists: list[np.ndarray],
    ) -> None:
        """Finish flagged round ``r`` of a run on the per-series search path.

        The run's deferred rounds are flushed first (the scalar candidate
        search reads the live seasonal buffer and counters), then this
        round mirrors the scalar ``OneShotSTL.update``'s flagged handling.
        The run ends here: a chosen shift redirects this round's seasonal
        write, so later rounds must re-stage against the post-shift state.
        """
        self._block_flush(start, r, phases_view, seasonal_out)
        previous_trends = [(hist[r + 1], hist[r]) for hist in hists]
        rows = self._rows()
        chosen_shift = np.zeros(self._n, dtype=np.int64)
        trend_row = trend_out[start + r]
        seasonal_row = seasonal_out[start + r]
        residual_row = residual_out[start + r]
        values_row = values[start + r]
        states = self.iteration_states
        for index in np.flatnonzero(flagged):
            shift, chosen_trend, chosen_seasonal = self._shift_search_fallback(
                int(index), float(values_row[index]), previous_trends
            )
            chosen_shift[index] = shift
            trend_row[index] = chosen_trend
            seasonal_row[index] = chosen_seasonal
            residual_row[index] = (
                float(values_row[index]) - chosen_trend
            ) - chosen_seasonal
            if shift != 0:
                self.last_applied_shift[index] = shift
            # The fallback scattered the chosen trend pair into the
            # columnar pair arrays (stale during a run); refresh this
            # round's history row so the run-end write-back keeps the
            # chosen state (the pre-round row is unchanged by search).
            for state, hist in zip(states, hists):
                hist[r + 2][index] = state.previous_trend[index]
        position = (self.global_index + chosen_shift) % self.period
        self.seasonal_buffer[rows, position] = seasonal_row
        self.global_index += 1
        self.points_processed += 1

    def _blocked_abort_round(
        self,
        start: int,
        r: int,
        phases_view: np.ndarray,
        trend_out: np.ndarray,
        seasonal_out: np.ndarray,
        detection_out: np.ndarray,
    ) -> None:
        """Round ``r`` went non-finite under the unguarded staged solves.

        Rolls every iteration solver back to its pre-round state and
        restores the trend pairs and deferred writes, leaving the kernel
        exactly as it was after round ``r - 1`` so the caller can replay
        round ``r`` through the scalar models.
        """
        hists = self._block_hists
        for state, hist in zip(self.iteration_states, hists):
            state.solver.rollback()
            np.copyto(state.before_previous_trend, hist[r])
            np.copyto(state.previous_trend, hist[r + 1])
        self._block_flush(start, r, phases_view, seasonal_out)
        if r > 0:
            np.copyto(self.last_trend, trend_out[start + r - 1])
            np.copyto(self.last_detection_residual, detection_out[start + r - 1])

    def _shift_search_fallback(
        self,
        index: int,
        value: float,
        previous_trends: list[tuple[np.ndarray, np.ndarray]],
    ) -> tuple[int, float, float]:
        """Scalar shift search for one flagged series.

        Reads the series' pre-advance state back out of the batched
        solvers' undo level, runs the exact scalar candidate search, and
        scatters the chosen state into the columnar arrays.  Returns
        ``(chosen_shift, trend, seasonal)``.
        """
        states = [
            _IterationState(
                solver=batched.solver.extract_pre_extend(index),
                previous_trend=float(previous[index]),
                before_previous_trend=float(before_previous[index]),
            )
            for batched, (previous, before_previous) in zip(
                self.iteration_states, previous_trends
            )
        ]
        chosen_states, trend, seasonal, shift = _search_best_shift(
            states,
            value,
            self.seasonal_buffer[index],
            int(self.global_index[index]),
            self.period,
            self.shift_window,
            int(self.points_processed[index]),
            self._workspace,
            self.epsilon,
        )
        for batched, state in zip(self.iteration_states, chosen_states):
            batched.solver.load(index, state.solver)
            batched.previous_trend[index] = state.previous_trend
            batched.before_previous_trend[index] = state.before_previous_trend
        return shift, trend, seasonal
