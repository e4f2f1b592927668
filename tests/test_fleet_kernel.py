"""Oracle tests: the columnar fleet kernel equals the scalar path exactly.

The struct-of-arrays fleet kernel (solver layer
:class:`~repro.solvers.batched_ldlt.BatchedIncrementalLDLT`, model layer
:class:`~repro.core.fleet.FleetKernel`, engine routing in
:class:`~repro.streaming.engine.MultiSeriesEngine`) promises *exact*
equality with the per-series scalar path -- every trend, seasonal,
residual, anomaly score and verdict must come out float-for-float
identical, shift searches, NaN imputation and checkpoints included.  These
tests pin that promise at each layer.
"""

import contextlib
import copy
import tempfile
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import OneShotSTL, _native, fleet
from repro.core.fleet import ColumnarNSigma, FleetKernel, FleetUpdate
from repro.core.oneshotstl import _search_best_shift
from repro.decomposition import STL
from repro.decomposition.base import DecompositionPoint
from repro.core.nsigma import NSigma
from repro.core.online_system import HALF_BANDWIDTH, ContributionWorkspace
from repro.solvers import BatchedIncrementalLDLT, IncrementalBandedLDLT
from repro.specs import DecomposerSpec, DetectorSpec, EngineSpec, PipelineSpec
from repro.streaming import IngestResult, MultiSeriesEngine, StreamingPipeline
from repro.streaming.latency import summarize_latencies

from tests.conftest import make_seasonal_series, without_latency

PERIOD = 24
INIT = 4 * PERIOD

#: every test here runs under both bodies of the kernel's run
pytestmark = pytest.mark.usefixtures("kernel_body")


def fleet_series(index, length=PERIOD * 10, spike=None, missing=None):
    values = make_seasonal_series(length, PERIOD, seed=300 + index)["values"]
    if spike is not None:
        values[spike] += 10.0
    if missing is not None:
        values[missing] = np.nan
    return values


def warm_models(streams, warm_points, **params):
    """One initialized scalar model per stream, ``warm_points`` points online."""
    models = []
    for values in streams:
        model = OneShotSTL(PERIOD, **params)
        model.initialize(values[:INIT])
        for value in values[INIT : INIT + warm_points]:
            model.update(float(value))
        models.append(model)
    return models


def pattern_values(p, q):
    """Cell-major ``(13, ...)`` steady-state pattern values for weights p, q."""
    first = 1.0 * p
    second = 1.0 * q
    values = np.empty((13,) + p.shape)
    values[:4] = 1.0
    values[4] = first
    values[5] = first
    values[6] = -first
    values[7] = second
    values[8] = 4.0 * second
    values[9] = second
    values[10] = -2.0 * second
    values[11] = second
    values[12] = -2.0 * second
    return values


PATTERN_ROWS = HALF_BANDWIDTH + ContributionWorkspace._ROW_OFFSETS
PATTERN_COLS = HALF_BANDWIDTH + ContributionWorkspace._COL_OFFSETS


def assert_same_trailing_state(batch, members):
    """Every system's trailing state equals its scalar solver's, exactly.
    (The stack holds no system size: a kernel derives it, and
    ``assert_same_model_state`` compares it.)"""
    for index, solvers in enumerate(members):
        extracted = batch.extract(index)
        assert len(extracted) == len(solvers)
        for mine, solver in zip(extracted, solvers):
            assert mine._m_trail == solver._m_trail
            assert mine._bp_trail == solver._bp_trail


def wavefront(n_rounds, n_iterations):
    """The ``(lo, hi)`` iteration slabs of a run, one per anti-diagonal."""
    return [
        (max(0, step - n_rounds + 1), min(n_iterations, step + 1))
        for step in range(n_rounds + n_iterations - 1)
    ]


def native_run_shape(side, run):
    """``(T, I, n)`` of a native call, read off the structures it takes."""
    run = _native.Run.from_address(run)
    return run.rounds, _native.Side.from_address(side).iterations, run.width


def spy_on_native_runs(monkeypatch):
    """Record ``(T, I, n)`` of every native run from here on (if one is loaded)."""
    calls = []
    if fleet._native_run is not None:
        advance_run, *rest = fleet._native_run

        def spy(side, run):
            calls.append(native_run_shape(side, run))
            return advance_run(side, run)

        monkeypatch.setattr(fleet, "_native_run", (spy, *rest))
    return calls


class TestBatchedSolverOracle:
    """The stacked BatchedIncrementalLDLT equals I x n scalar solvers, bit for bit.

    The reference is the scalar :class:`IncrementalBandedLDLT`
    (``extend`` + ``tail_solution``); the stack advances through its one
    path, ``begin_run`` / ``extend_solve`` / ``commit_run``.
    """

    ITERATIONS = 3

    def _warm_members(self, n, extra_points=0):
        """Scalar per-iteration solvers fed through real OneShotSTL updates."""
        streams = [fleet_series(i) for i in range(n)]
        models = warm_models(
            streams, 8 + extra_points, shift_window=0, iterations=self.ITERATIONS
        )
        return [
            [state.solver for state in model._iterations_state] for model in models
        ]

    def _extend_solve(self, batch, lo, hi, p, q, observations, anchors):
        trend = np.empty((hi - lo, batch.n_series))
        seasonal = np.empty((hi - lo, batch.n_series))
        rhs = np.stack([observations, observations + anchors])
        batch.extend_solve(lo, hi, pattern_values(p, q), rhs, trend, seasonal)
        return trend, seasonal

    def _scalar_extend_solve(self, members, lo, hi, p, q, observations, anchors):
        """The same slab through every scalar solver: ``(trend, seasonal)``."""
        workspace = ContributionWorkspace(1.0, 1.0)
        expected = np.empty((2, hi - lo, len(members)))
        for member, solvers in enumerate(members):
            for slot, solver in enumerate(solvers[lo:hi]):
                updates, rhs = workspace.fill(
                    solver.size // 2,
                    float(observations[slot, member]),
                    float(anchors[slot, member]),
                    float(p[slot, member]),
                    float(q[slot, member]),
                )
                solver.extend(2, updates, rhs, check_indices=False)
                expected[:, slot, member] = solver.tail_solution(2)
        return expected

    @pytest.mark.parametrize("n_rounds", [1, 2, 3, 7])
    def test_wavefront_runs_match_scalars(self, n_rounds):
        """Slabs of every width, fresh and warm iterations mixed in one step."""
        members = self._warm_members(5)
        batch = BatchedIncrementalLDLT.pack(
            [[solver.copy() for solver in solvers] for solvers in members]
        )
        rng = np.random.default_rng(n_rounds)
        for _run in range(4):
            batch.begin_run(2, PATTERN_ROWS, PATTERN_COLS)
            for lo, hi in wavefront(n_rounds, self.ITERATIONS):
                shape = (hi - lo, 5)
                p = np.abs(rng.normal(1.0, 0.3, shape)) + 0.1
                q = np.abs(rng.normal(1.0, 0.3, shape)) + 0.1
                slab = (p, q, rng.normal(0.0, 1.0, shape), rng.normal(0.0, 1.0, shape))
                expected = self._scalar_extend_solve(members, lo, hi, *slab)
                trend, seasonal = self._extend_solve(batch, lo, hi, *slab)
                assert np.array_equal(trend, expected[0])
                assert np.array_equal(seasonal, expected[1])
            batch.commit_run()
            # The committed trailing state carries every solution entry
            # the next extend can still reach.
            assert_same_trailing_state(batch, members)

    def test_begin_run_validates_the_pattern(self):
        batch = BatchedIncrementalLDLT.pack(self._warm_members(2))
        with pytest.raises(ValueError, match="num_new"):
            batch.begin_run(0, PATTERN_ROWS, PATTERN_COLS)
        with pytest.raises(ValueError, match="extended trailing block"):
            batch.begin_run(2, PATTERN_ROWS + HALF_BANDWIDTH, PATTERN_COLS)
        with pytest.raises(ValueError, match="equal-length"):
            batch.begin_run(2, PATTERN_ROWS[:-1], PATTERN_COLS)

    def test_uncommitted_run_is_the_undo_level(self):
        """Nothing of a run shows before commit_run; abandoning it is exact."""
        members = self._warm_members(3)
        batch = BatchedIncrementalLDLT.pack(members)
        ones = np.ones((self.ITERATIONS, 3))
        slab = (ones, ones, ones, 0.0 * ones)
        first = tuple(part[:1] for part in slab)
        with pytest.raises(ValueError, match="no complete run"):
            batch.commit_run()
        batch.begin_run(2, PATTERN_ROWS, PATTERN_COLS)
        with pytest.raises(ValueError, match="skips an iteration"):
            self._extend_solve(batch, 1, 2, *first)
        self._extend_solve(batch, 0, 1, *first)
        with pytest.raises(ValueError, match="no complete run"):
            batch.commit_run()  # iterations 1 and 2 never entered the run
        self._extend_solve(batch, 0, 3, *slab)
        assert_same_trailing_state(batch, members)
        # Opening another run abandons the first: the pre-run state again.
        batch.begin_run(2, PATTERN_ROWS, PATTERN_COLS)
        trend, seasonal = self._extend_solve(batch, 0, 3, *slab)
        assert_same_trailing_state(batch, members)
        batch.commit_run()
        expected = self._scalar_extend_solve(members, 0, 3, *slab)
        assert np.array_equal(trend, expected[0])
        assert np.array_equal(seasonal, expected[1])
        assert_same_trailing_state(batch, members)

    def test_pack_extract_round_trip(self):
        members = self._warm_members(4, extra_points=3)
        batch = BatchedIncrementalLDLT.pack(members)
        assert (batch.n_series, batch.iterations) == (4, self.ITERATIONS)
        assert_same_trailing_state(batch, members)
        for index, solvers in enumerate(members):
            for mine, solver in zip(batch.extract(index), solvers):
                mine.size = solver.size  # the caller's to set, as a kernel does
                assert np.array_equal(mine.tail_solution(2), solver.tail_solution(2))

    def test_pack_takes_fresh_solvers_and_rejects_ragged_members(self):
        fresh = [[IncrementalBandedLDLT(4) for _ in range(self.ITERATIONS)]]
        assert_same_trailing_state(BatchedIncrementalLDLT.pack(fresh), fresh)
        members = self._warm_members(2)
        with pytest.raises(ValueError, match="expected 3"):
            BatchedIncrementalLDLT.pack([members[0], members[1][:2]])
        with pytest.raises(ValueError, match="half bandwidth 3, expected 4"):
            BatchedIncrementalLDLT.pack(
                [members[0], [IncrementalBandedLDLT(3)] * self.ITERATIONS]
            )
        batch = BatchedIncrementalLDLT.pack(members)
        with pytest.raises(ValueError, match="half bandwidth mismatch"):
            batch.load(0, [IncrementalBandedLDLT(3)] * self.ITERATIONS)

    def test_select_assign_round_trip(self):
        members = self._warm_members(5)
        batch = BatchedIncrementalLDLT.pack(members)
        columns = np.array([1, 3])
        sub = batch.select(columns)
        assert_same_trailing_state(sub, [members[1], members[3]])
        # Advance the gathered members only, scatter them back: the
        # selected columns move, the others stay put.
        ones = np.ones((self.ITERATIONS, 2))
        slab = (ones, ones, ones, 0.0 * ones)
        sub.begin_run(2, PATTERN_ROWS, PATTERN_COLS)
        self._extend_solve(sub, 0, self.ITERATIONS, *slab)
        sub.commit_run()
        batch.assign(columns, sub)
        self._scalar_extend_solve(
            [members[1], members[3]], 0, self.ITERATIONS, *slab
        )
        assert_same_trailing_state(batch, members)

    def test_append_and_load_round_trip(self):
        members = self._warm_members(4)
        batch = BatchedIncrementalLDLT.pack(members[:1])
        for solvers in members[1:]:
            batch.append(BatchedIncrementalLDLT.pack([solvers]))
        assert_same_trailing_state(batch, members)
        batch.load(0, members[3])
        assert_same_trailing_state(batch, [members[3]] + members[1:])
        with pytest.raises(ValueError, match="expected 3 solvers"):
            batch.load(0, members[3][:2])


def block_sizes(points, rounds_per_block):
    """``points`` rounds cut into blocks of ``rounds_per_block`` (+ remainder)."""
    sizes = [rounds_per_block] * (points // rounds_per_block)
    if points % rounds_per_block:
        sizes.append(points % rounds_per_block)
    return sizes


def assert_same_model_state(kernel, scalar, members):
    """The given members extract to their scalar models' exact state."""
    for member in members:
        mine, model = kernel.extract(member), scalar[member]
        assert np.array_equal(mine._seasonal_buffer, model._seasonal_buffer)
        for field in (
            "_global_index",
            "_points_processed",
            "_last_trend",
            "_last_detection_residual",
            "_last_applied_shift",
        ):
            assert getattr(mine, field) == getattr(model, field), field
        for field in ("_count", "_mean", "_m2"):
            assert getattr(mine._residual_monitor, field) == getattr(
                model._residual_monitor, field
            ), field
        for state, expected in zip(mine._iterations_state, model._iterations_state):
            assert state.previous_trend == expected.previous_trend
            assert state.before_previous_trend == expected.before_previous_trend
            assert state.solver.size == expected.solver.size
            assert state.solver._m_trail == expected.solver._m_trail
            assert state.solver._bp_trail == expected.solver._bp_trail


def assert_blocks_match_scalar(kernel, scalar, streams, start, block_sizes, columns=None):
    """Drive ``update_block`` in the given block sizes against scalar models.

    Every output field of every round must equal the per-series scalar
    ``OneShotSTL.update`` float for float -- ``score`` the z-score of the
    detection residual against the monitor as it was before the point,
    searched or not -- and after every block every
    member must extract to its scalar model's full state (``columns``
    restricts the advance to a subset of members; the others must not
    move).  Returns the next stream position.
    """
    members = range(len(scalar)) if columns is None else columns
    position = start
    for rounds in block_sizes:
        values = np.array(
            [
                [streams[member][position + step] for member in members]
                for step in range(rounds)
            ],
            dtype=float,
        )
        out = kernel.update_block(values, columns=columns)
        assert out.value.shape == values.shape
        for step in range(rounds):
            for slot, member in enumerate(members):
                monitor = scalar[member]._residual_monitor.copy()
                point = scalar[member].update(float(values[step, slot]))
                detection = scalar[member].last_detection_residual
                assert monitor.score(detection).score == out.score[step, slot]
                assert point.value == out.value[step, slot]
                assert point.trend == out.trend[step, slot]
                assert point.seasonal == out.seasonal[step, slot]
                assert point.residual == out.residual[step, slot]
                assert (
                    scalar[member].last_detection_residual
                    == out.detection_residual[step, slot]
                )
        assert_same_model_state(kernel, scalar, range(len(scalar)))
        position += rounds
    return position


_WARM_FLEETS = {}


def warm_fleet(n_series, **params):
    """``(streams, scalar models, packed kernel)`` over ``fleet_series(0..n)``.

    The warm models are built once per configuration and deep-copied, so
    the wide grids below do not pay the batch initialization per case.
    """
    key = (n_series, tuple(sorted(params.items())))
    if key not in _WARM_FLEETS:
        streams = [fleet_series(i) for i in range(n_series)]
        _WARM_FLEETS[key] = (streams, warm_models(streams, 8, **params))
    streams, models = _WARM_FLEETS[key]
    return (
        [stream.copy() for stream in streams],
        copy.deepcopy(models),
        FleetKernel.pack(copy.deepcopy(models)),
    )


class TestFleetKernelOracle:
    """FleetKernel.update_block equals scalar OneShotSTL.update exactly."""

    def run_pair(self, streams, points, rounds_per_block=1, **params):
        """Advance scalar models and a packed kernel over the same streams."""
        scalar = warm_models(streams, 8, **params)
        kernel = FleetKernel.pack(warm_models(streams, 8, **params))
        assert_blocks_match_scalar(
            kernel, scalar, streams, INIT + 8, block_sizes(points, rounds_per_block)
        )
        return scalar, kernel

    @pytest.mark.parametrize("rounds_per_block", [1, 7, PERIOD * 3])
    def test_plain_fleet_matches(self, rounds_per_block):
        """T=1, T not dividing the batch, and the whole batch in one call."""
        streams = [fleet_series(i) for i in range(6)]
        self.run_pair(streams, PERIOD * 3, rounds_per_block, shift_window=0)

    @pytest.mark.parametrize("rounds_per_block", [1, PERIOD])
    def test_shift_search_divergence_matches(self, rounds_per_block):
        """Series whose shift search triggers fall back without drift."""
        streams = [
            fleet_series(i, spike=(INIT + 20 + i if i % 2 == 0 else None))
            for i in range(6)
        ]
        scalar, kernel = self.run_pair(
            streams,
            PERIOD * 2,
            rounds_per_block,
            shift_window=20,
            shift_threshold=5.0,
        )
        # The spike must actually have exercised the divergence path.
        assert any(model.current_shift != 0 for model in scalar)
        assert np.array_equal(
            kernel.last_applied_shift,
            np.array([model.current_shift for model in scalar]),
        )

    @pytest.mark.parametrize("rounds_per_block", [1, PERIOD])
    def test_nan_inputs_are_imputed_identically(self, rounds_per_block):
        streams = [
            fleet_series(i, missing=(INIT + 15 if i in (1, 4) else None))
            for i in range(5)
        ]
        self.run_pair(streams, PERIOD * 2, rounds_per_block, shift_window=20)

    def test_mixed_phase_fleet_matches(self):
        """Members at different stream ages still advance in one batch."""
        streams = [fleet_series(i) for i in range(5)]
        scalar = warm_models(streams, 8, shift_window=0)
        staggered = warm_models(streams, 8, shift_window=0)
        for extra, (model, stream) in enumerate(zip(staggered, streams)):
            for value in stream[INIT + 8 : INIT + 8 + extra]:
                model.update(float(value))
        for extra, (model, stream) in enumerate(zip(scalar, streams)):
            for value in stream[INIT + 8 : INIT + 8 + extra]:
                model.update(float(value))
        kernel = FleetKernel.pack(staggered)
        shifted = [stream[extra:] for extra, stream in enumerate(streams)]
        assert_blocks_match_scalar(
            kernel, scalar, shifted, INIT + 8, [1] * 5 + [PERIOD - 5]
        )

    @pytest.mark.parametrize("rounds_per_block", [1, PERIOD])
    def test_subset_update_matches(self, rounds_per_block):
        streams = [fleet_series(i) for i in range(6)]
        scalar = warm_models(streams, 8, shift_window=0)
        kernel = FleetKernel.pack(warm_models(streams, 8, shift_window=0))
        columns = np.array([0, 2, 5])
        assert_blocks_match_scalar(
            kernel,
            scalar,
            streams,
            INIT + 8,
            block_sizes(PERIOD, rounds_per_block),
            columns=columns,
        )
        # The untouched members were not advanced.
        assert kernel.points_processed.tolist() == [
            8 + PERIOD if member in columns else 8 for member in range(6)
        ]

    def test_update_block_validates_shape(self):
        streams = [fleet_series(i) for i in range(3)]
        kernel = FleetKernel.pack(warm_models(streams, 8, shift_window=0))
        with pytest.raises(ValueError, match=r"shape \(rounds, 3\)"):
            kernel.update_block(np.zeros(3))
        with pytest.raises(ValueError, match=r"shape \(rounds, 3\)"):
            kernel.update_block(np.zeros((2, 4)))

    def test_update_block_rejects_repeated_columns(self):
        """A member advances once per round: nothing moves, nothing returns."""
        _streams, scalar, kernel = warm_fleet(3)
        with pytest.raises(ValueError, match="must not repeat"):
            kernel.update_block(np.zeros((2, 2)), columns=[1, 1])
        assert_same_model_state(kernel, scalar, range(3))

    def test_extract_continues_identically(self):
        streams = [fleet_series(i) for i in range(5)]
        scalar, kernel = self.run_pair(streams, PERIOD, shift_window=20)
        for index, model in enumerate(scalar):
            extracted = kernel.extract(index)
            for value in streams[index][-PERIOD:]:
                assert extracted.update(float(value)) == model.update(
                    float(value)
                )

    def test_pack_requires_uniform_configuration(self):
        streams = [fleet_series(i) for i in range(2)]
        model_a = warm_models(streams[:1], 8, shift_window=0)[0]
        model_b = warm_models(streams[1:], 8, shift_window=5)[0]
        with pytest.raises(ValueError, match="different hyper-parameters"):
            FleetKernel.pack([model_a, model_b])

    def test_pack_takes_initialized_models_only(self):
        """Zero online points pack; no or a custom initialization does not."""
        window = fleet_series(0)[:INIT]
        model = OneShotSTL(PERIOD)
        assert not FleetKernel.eligible(model)
        with pytest.raises(ValueError, match="not packable"):
            FleetKernel.pack([model])
        model.initialize(window)
        assert FleetKernel.eligible(model)
        kernel = FleetKernel.pack([model])
        assert kernel.points_processed.tolist() == [0]
        assert_same_model_state(kernel, [model], [0])
        custom = OneShotSTL(PERIOD, initializer=STL(PERIOD, seasonal_window="periodic"))
        custom.initialize(window)
        assert not FleetKernel.eligible(custom)
        with pytest.raises(ValueError, match="custom initializer"):
            FleetKernel.pack([custom])

    #: what each member of a cold fleet meets: a +10 spike on online point 0
    #: resp. 1 (both trip the monitor on point 1, so the shift search runs on
    #: a column that is one point old) and a NaN on point 0 (imputed from
    #: the initialization alone, a one-round run)
    COLD_EVENTS = {0: ("spike", 0), 1: ("spike", 1), 2: ("nan", 0)}
    COLD_ROUNDS = 9

    @staticmethod
    def cold_stream(index, event=None, length=PERIOD * 10):
        stream = fleet_series(index, length=length)
        if event is not None:
            kind, point = event
            if kind == "spike":
                stream[INIT + point] += 10.0
            else:
                stream[INIT + point] = np.nan
        return stream

    @pytest.mark.parametrize("rounds_per_block", [1, 2, 8])
    @pytest.mark.parametrize("mode", ["full", "subset", "single"])
    def test_cold_start_matches(self, mode, rounds_per_block):
        """Packed at 0 online points: rounds 0-8 equal the scalar models."""
        if mode == "single":
            fleets = [([self.cold_stream(m, e)], None) for m, e in self.COLD_EVENTS.items()]
        else:
            streams = [self.cold_stream(m, self.COLD_EVENTS.get(m)) for m in range(6)]
            fleets = [(streams, None if mode == "full" else np.array([0, 1, 2, 4]))]
        searched = []
        for streams, columns in fleets:
            scalar = warm_models(streams, 0)
            kernel = FleetKernel.pack(warm_models(streams, 0))
            assert not kernel.points_processed.any()
            with recorded_searches() as searches:
                assert_blocks_match_scalar(
                    kernel,
                    scalar,
                    streams,
                    INIT,
                    block_sizes(self.COLD_ROUNDS, rounds_per_block),
                    columns=columns,
                )
            # recorded_searches reports rounds relative to 8 warm points.
            searched += [r + 8 for rounds, _ in searches for r in rounds]
        assert 1 in searched, "no shift search ran on a cold column"

    def test_late_joiner_at_zero_beside_members_at_500(self):
        """A mixed-age run: the joiner's gated terms leave the others alone."""
        rounds = self.COLD_ROUNDS
        streams = [fleet_series(i, length=INIT + 500 + rounds) for i in range(3)]
        joiner = self.cold_stream(3, ("spike", 0), length=INIT + rounds)
        # Every member's next observation sits at position INIT + 500.
        streams.append(np.concatenate([np.zeros(500), joiner]))
        old = warm_models(streams[:3], 500)

        def mixed_fleet():
            scalar = copy.deepcopy(old) + warm_models([joiner], 0)
            kernel = FleetKernel.pack(copy.deepcopy(old))
            kernel.append(FleetKernel.pack(warm_models([joiner], 0)))
            assert kernel.points_processed.tolist() == [500, 500, 500, 0]
            return scalar, kernel

        scalar, kernel = mixed_fleet()
        with recorded_searches() as searches:
            assert_blocks_match_scalar(kernel, scalar, streams, INIT + 500, [rounds])
        # The joiner was searched on its second point (recorded_searches
        # reports rounds relative to 8 warm points).
        assert any(1 - 8 in rounds for rounds, _ in searches)
        block = np.array(streams)[:, INIT + 500 :].T
        with_joiner = mixed_fleet()[1].update_block(block)
        without = FleetKernel.pack(copy.deepcopy(old)).update_block(block[:, :3])
        for field in FleetUpdate.__slots__:
            assert np.array_equal(
                getattr(with_joiner, field)[:, :3], getattr(without, field)
            ), field


class TestWavefrontSchedule:
    """One schedule for every (I, T, N): T + I - 1 stacked solves per run."""

    @pytest.mark.parametrize("n_series", [1, 8, 61])
    @pytest.mark.parametrize("iterations", [1, 2, 8])
    def test_every_run_length_matches(self, iterations, n_series):
        """T in {1, 2, I-1, I, I+1, 2I+3, period, period+5}, back to back."""
        lengths = sorted(
            {
                1,
                2,
                iterations - 1,
                iterations,
                iterations + 1,
                2 * iterations + 3,
                PERIOD,
                PERIOD + 5,
            }
            - {0}
        )
        streams, scalar, kernel = warm_fleet(n_series, iterations=iterations)
        assert_blocks_match_scalar(kernel, scalar, streams, INIT + 8, lengths)

    @pytest.mark.parametrize(
        "iterations,n_rounds", [(8, 1), (8, 7), (8, 8), (8, PERIOD), (2, 3), (1, 5)]
    )
    def test_a_run_of_t_rounds_is_t_plus_i_minus_1_stacked_solves(
        self, monkeypatch, kernel_body, iterations, n_rounds
    ):
        """... on the wavefront; on the native body it is ONE call, (T, I, n)."""
        calls = []
        original = BatchedIncrementalLDLT.extend_solve

        def spy(solver, lo, hi, *rest):
            calls.append((lo, hi))
            return original(solver, lo, hi, *rest)

        monkeypatch.setattr(BatchedIncrementalLDLT, "extend_solve", spy)
        native_calls = spy_on_native_runs(monkeypatch)
        streams, _scalar, kernel = warm_fleet(4, iterations=iterations)
        block = np.array(streams)[:, INIT + 8 : INIT + 8 + n_rounds].T
        assert kernel.update_block(block).value.shape == block.shape
        if kernel_body == "native":
            assert calls == []
            assert native_calls == [(n_rounds, iterations, 4)]
        else:
            assert native_calls == []
            assert len(calls) == n_rounds + iterations - 1
            assert calls == wavefront(n_rounds, iterations)


class TestRunBoundary:
    """What crosses into a run's body: any layout, young columns, any I."""

    def test_columns_aged_zero_and_one_inside_a_three_round_run(self):
        """Both gated patterns and the steady one in one T = 3 run."""
        ages = (500, 500, 500, 0, 1)
        streams = [
            np.concatenate(
                [np.zeros(500 - age), fleet_series(i, length=INIT + age + 3)]
            )
            for i, age in enumerate(ages)
        ]
        live = [stream[500 - age :] for stream, age in zip(streams, ages)]

        def models():
            return [warm_models([values], age)[0] for values, age in zip(live, ages)]

        scalar = models()
        kernel = FleetKernel.pack(models()[:3])
        kernel.append(FleetKernel.pack(models()[3:]))
        assert kernel.points_processed.tolist() == list(ages)
        assert_blocks_match_scalar(kernel, scalar, streams, INIT + 500, [3])

    @pytest.mark.parametrize("period", [fleet._MAX_BLOCK_ROUNDS, 96])
    def test_the_longest_run_matches(self, monkeypatch, period):
        """At a period of at least ``_MAX_BLOCK_ROUNDS`` a clean block runs
        in runs of exactly that many rounds, the longest a run can be; the
        monitor's counts reach one past its last round."""
        longest = fleet._MAX_BLOCK_ROUNDS
        streams, scalar, kernel = period_fleet(period, iterations=3)
        runs = []
        solve = FleetKernel._solve_run

        def spy(kernel, native, planes, start, stop, columns):
            runs.append(stop - start)
            return solve(kernel, native, planes, start, stop, columns)

        monkeypatch.setattr(FleetKernel, "_solve_run", spy)
        assert_blocks_match_scalar(kernel, scalar, streams, 0, [longest + 3])
        assert runs == [longest, 3]

    @pytest.mark.parametrize("iterations", [1, 2, 8, 40])
    def test_any_iteration_count(self, iterations):
        """The body's scratch is sized from I: no count switches bodies."""
        streams, scalar, kernel = warm_fleet(3, iterations=iterations)
        assert_blocks_match_scalar(kernel, scalar, streams, INIT + 8, [1, 3, PERIOD])

    @pytest.mark.parametrize(
        "layout", ["fortran", "column_sliced", "row_reversed", "read_only"]
    )
    def test_any_input_layout_gives_the_same_bits_and_is_left_alone(self, layout):
        """Strides are the caller's business; a tripped column replays too."""
        streams, _scalar, kernel = warm_fleet(6)
        streams[2][INIT + 8 + 5] += 10.0
        block = np.array(streams)[:, INIT + 8 : INIT + 8 + PERIOD].T.copy()
        if layout == "fortran":
            given = np.asfortranarray(block)
        elif layout == "column_sliced":
            given = np.full((PERIOD, 12), np.nan)[:, ::2]
            given[:] = block
        elif layout == "row_reversed":
            given = block[::-1].copy()[::-1]
        else:
            given = block.copy()
            given.setflags(write=False)
        assert layout == "read_only" or not given.flags.c_contiguous
        expected = copy.deepcopy(kernel).update_block(block)
        with recorded_searches() as searches:
            out = kernel.update_block(given)
        assert searches, "the spiked column was never replayed"
        for field in FleetUpdate.__slots__:
            assert getattr(out, field).tobytes() == getattr(expected, field).tobytes()
        assert given.tobytes() == block.tobytes()
        if layout == "column_sliced":
            assert np.isnan(given.base[:, 1::2]).all()


class TestMarkedColumns:
    """A tripped monitor marks a column; the run finishes for everyone.

    Marked columns are replayed together, as one narrow kernel gathered
    from the pre-run state, before the run commits; a round that trips
    there searches its candidate shifts as columns.  Outputs and full
    state equal the scalar path wherever and however often the monitor
    trips.
    """

    @pytest.fixture
    def spies(self, monkeypatch):
        """Record the block's own runs, its replays and their searches.

        A replay advances a narrow kernel through the same methods, so
        only calls made outside any replay or search count as the block's.
        """
        seen = {"runs": [], "replays": [], "searches": 0, "depth": 0}
        search = FleetKernel._search_shifts
        advance = FleetKernel._advance_run
        replay = FleetKernel._replay_marked

        def nested(call, *args):
            seen["depth"] += 1
            try:
                return call(*args)
            finally:
                seen["depth"] -= 1

        def search_spy(*args):
            seen["searches"] += 1
            return nested(search, *args)

        def advance_spy(kernel, values, start, stop, *rest):
            if not seen["depth"]:
                seen["runs"].append((start, stop))
            return advance(kernel, values, start, stop, *rest)

        def replay_spy(kernel, columns, *rest):
            before = seen["searches"]
            result = nested(replay, kernel, columns, *rest)
            if not seen["depth"]:
                seen["replays"].append((columns.tolist(), seen["searches"] - before))
            return result

        monkeypatch.setattr(FleetKernel, "_search_shifts", search_spy)
        monkeypatch.setattr(FleetKernel, "_advance_run", advance_spy)
        monkeypatch.setattr(FleetKernel, "_replay_marked", replay_spy)
        return seen

    def check(self, spikes, n_series=6, nan_cells=(), columns=None):
        """One PERIOD-round block with +10 spikes at ``(column, round)``."""
        streams, scalar, kernel = warm_fleet(n_series)
        for column, r in spikes:
            streams[column][INIT + 8 + r] += 10.0
        for column, r in nan_cells:
            streams[column][INIT + 8 + r] = np.nan
        assert_blocks_match_scalar(
            kernel, scalar, streams, INIT + 8, [PERIOD, 5], columns=columns
        )

    def test_two_columns_tripping_at_different_rounds_of_one_run(self, spies):
        self.check([(1, 3), (4, 17)])
        # The tripped block stayed one run; both columns replayed in it.
        assert spies["runs"] == [(0, PERIOD), (0, 5)]
        assert [columns for columns, _ in spies["replays"]] == [[1, 4]]

    def test_one_column_tripping_twice_in_a_run(self, spies):
        self.check([(2, 5), (2, 14)])
        assert spies["runs"][0] == (0, PERIOD)
        columns, searches = spies["replays"][0]
        assert columns == [2] and searches >= 2

    def test_trips_in_the_first_and_the_last_round(self, spies):
        self.check([(0, 0), (3, PERIOD - 1)])
        assert spies["runs"][0] == (0, PERIOD)
        assert spies["replays"][0][0] == [0, 3]

    def test_every_column_tripping_in_one_round(self, spies):
        self.check([(column, 9) for column in range(6)])
        assert spies["runs"][0] == (0, PERIOD)
        assert spies["replays"][0][0] == list(range(6))

    def test_trip_in_a_block_that_also_has_a_nan_round(self, spies):
        self.check([(2, 4), (3, 15)], nan_cells=[(1, 10)])
        # The NaN round is its own run; the trips end none.
        assert spies["runs"][:3] == [(0, 10), (10, 11), (11, PERIOD)]
        assert [columns for columns, _ in spies["replays"][:2]] == [[2], [3]]

    def test_trips_in_a_column_subset(self, spies):
        # The subset advances in place: replays name kernel columns.
        self.check([(2, 6), (5, 11)], columns=np.array([0, 2, 5]))
        assert spies["runs"][0] == (0, PERIOD)
        assert spies["replays"][0][0] == [2, 5]

    @pytest.mark.parametrize("rounds_per_block", [1, PERIOD])
    def test_tripped_columns_are_searched_as_columns_of_one_stacked_solve(
        self, monkeypatch, kernel_body, rounds_per_block
    ):
        """No scalar model anywhere; k trips in a round cost I widened solves.

        On the native body a search is ONE ``T = 1`` call of width ``tripped
        x phases``, and a replay one call per cut of its schedule.
        """
        from repro.core import oneshotstl

        streams, _scalar, kernel = warm_fleet(6)
        for column in (1, 2, 4):
            streams[column][INIT + 8 + 9] += 10.0
        block = np.array(streams)[:, INIT + 8 : INIT + 8 + PERIOD].T

        def forbid(owner, name):
            def called(*args, **kwargs):
                raise AssertionError(f"{name} ran during update_block")

            monkeypatch.setattr(owner, name, called)

        forbid(OneShotSTL, "__init__")
        forbid(OneShotSTL, "update")
        forbid(oneshotstl, "_search_best_shift")
        forbid(FleetKernel, "extract")
        forbid(FleetKernel, "load")
        # Searches and replays nest (a replayed column may trip again);
        # every solve is recorded with the nesting depth it ran at.
        depth = [0]
        searches = []
        replays = []
        solves = []
        search = FleetKernel._search_shifts
        replay = FleetKernel._replay_marked
        extend = BatchedIncrementalLDLT.extend_solve

        def nested(record, tag, call, *args):
            entry = [depth[0], len(solves), None, tag]
            record.append(entry)
            depth[0] += 1
            try:
                return call(*args)
            finally:
                depth[0] -= 1
                entry[2] = len(solves)

        def search_spy(kernel, columns, *rest):
            return nested(searches, columns.size, search, kernel, columns, *rest)

        def replay_spy(kernel, columns, monitor, values, cuts):
            cuts = list(cuts)
            return nested(replays, cuts, replay, kernel, columns, monitor, values, cuts)

        def extend_spy(solver, lo, hi, *rest):
            solves.append((depth[0], solver.n_series, lo, hi))
            return extend(solver, lo, hi, *rest)

        monkeypatch.setattr(FleetKernel, "_search_shifts", search_spy)
        monkeypatch.setattr(FleetKernel, "_replay_marked", replay_spy)
        monkeypatch.setattr(BatchedIncrementalLDLT, "extend_solve", extend_spy)
        if kernel_body == "native":
            advance_run, *rest = fleet._native_run

            def native_spy(side, run):
                n_rounds, n_iterations, n = native_run_shape(side, run)
                solves.append((depth[0], n, n_rounds, n_iterations))
                return advance_run(side, run)

            monkeypatch.setattr(fleet, "_native_run", (native_spy, *rest))
        for start in range(0, PERIOD, rounds_per_block):
            rounds = block[start : start + rounds_per_block]
            assert kernel.update_block(rounds).value.shape == rounds.shape
        # The three spiked columns tripped together in round 9 and were
        # searched together; every search, whatever it found, is I steps
        # -- or one native T = 1 call -- on k x (distinct candidate
        # phases) columns.
        phases = min(2 * kernel.shift_window + 1, PERIOD)
        assert 3 in [tripped for _level, _first, _last, tripped in searches]
        for level, first, last, tripped in searches:
            own = [solve[1:] for solve in solves[first:last] if solve[0] == level + 1]
            if kernel_body == "native":
                assert own == [(tripped * phases, 1, kernel.iterations)]
            else:
                assert own == [
                    (tripped * phases, iteration, iteration + 1)
                    for iteration in range(kernel.iterations)
                ]
        # A replay is one narrow run per cut of its schedule (what trips
        # inside a cut nests one level deeper): one native call each.
        assert bool(replays) == (rounds_per_block > 1)
        for level, first, last, cuts in replays:
            own = [solve[1:] for solve in solves[first:last] if solve[0] == level + 1]
            lengths = [b - a for a, b in zip([0] + cuts, cuts) if b > a]
            if kernel_body == "native":
                assert [n_rounds for _n, n_rounds, _i in own] == lengths
            else:
                assert len(own) == sum(
                    length + kernel.iterations - 1 for length in lengths
                )

    @pytest.mark.parametrize("period,shift_window", [(8, 20), (8, 3), (50, 20)])
    def test_trips_match_at_other_periods(self, period, shift_window):
        """2H + 1 above and below the period; runs capped at a short period."""
        streams, scalar, kernel = period_fleet(
            period, iterations=3, shift_window=shift_window
        )
        streams[1][5] += 10.0
        streams[3][period - 1] += 10.0
        # A 3-sample phase shift: consecutive trips, shifted seasonal writes.
        streams[2][2 : 2 * period] = streams[2][5 : 2 * period + 3].copy()
        with recorded_searches() as searches:
            assert_blocks_match_scalar(
                kernel, scalar, streams, 0, [period, period + 3, 1, 4]
            )
        assert any(any(shifts) for _, shifts in searches)

    #: One drawn case pinned: a phase shift from the block's first round
    #: on member 0, which is also spiked in the block's last round, two
    #: more shifted members, a second spike beside it and a gap later on.
    PINNED = (
        [PERIOD, PERIOD + 6],
        [(0, PERIOD - 1), (2, PERIOD - 1)],
        [(4, PERIOD + 10)],
        [(0, 0, 30), (1, 5, 30), (3, 5, 30)],
    )

    @given(
        st.lists(st.integers(1, PERIOD + 6), min_size=1, max_size=4),
        st.lists(st.tuples(st.integers(0, 4), st.integers(0, 59)), max_size=4),
        st.lists(st.tuples(st.integers(0, 4), st.integers(0, 59)), max_size=4),
        st.lists(
            st.tuples(st.integers(0, 4), st.integers(0, 59), st.integers(1, 30)),
            max_size=3,
        ),
    )
    @example(*PINNED)
    @settings(max_examples=25, deadline=None)
    def test_random_blocks_spikes_and_gaps_match(self, lengths, spikes, gaps, episodes):
        """+10 spikes, NaN gaps and 3-sample phase-shift episodes.

        An episode (the paper's Syn2 shape) makes a member trip in
        consecutive rounds and choose non-zero shifts, so a later round of
        the same block reads a seasonal slot the search wrote.  Every case
        runs full width, through a ``columns=`` subset and on a width-1
        kernel (which takes every event on its one member).
        """
        searched = {}
        for mode, n_series, columns in (
            ("full", 5, None),
            ("subset", 5, np.array([0, 1, 3])),
            ("single", 1, None),
        ):
            streams, scalar, kernel = warm_fleet(n_series, iterations=3)
            for column, offset, length in episodes:
                stream = streams[column % n_series]
                start = INIT + 8 + offset
                stop = min(start + length, stream.size - 3)
                stream[start:stop] = stream[start + 3 : stop + 3].copy()
            for column, offset in spikes:
                streams[column % n_series][INIT + 8 + offset] += 10.0
            for column, offset in gaps:
                streams[column % n_series][INIT + 8 + offset] = np.nan
            with recorded_searches() as searched[mode]:
                assert_blocks_match_scalar(
                    kernel, scalar, streams, INIT + 8, lengths, columns=columns
                )
        if (lengths, spikes, gaps, episodes) == self.PINNED:
            # The pinned case really is the shape the docstring describes.
            assert any(len(rounds) > 1 for rounds, _ in searched["full"])
            shifted = {
                rounds[0]: shifts[0] for rounds, shifts in searched["single"] if shifts[0]
            }
            first_run = [r for r in shifted if r < PERIOD]
            assert {0, PERIOD - 1} <= set(first_run)
            assert any(r + 1 in shifted for r in first_run)
            assert any(r + shifted[r] in range(r + 1, PERIOD) for r in first_run)


@contextlib.contextmanager
def recorded_searches():
    """Collect ``(rounds, shifts)`` of every ``FleetKernel._search_shifts`` call.

    Per searched column, the round of the test stream it was searched in
    and the chosen shift modulo the period (read off the seasonal slot the
    search wrote).
    """
    calls = []
    original = FleetKernel._search_shifts

    def spy(kernel, columns, values, scores):
        winners, points, bad = original(kernel, columns, values, scores)
        if winners is not None:
            written = winners.seasonal_buffer != kernel.seasonal_buffer[columns]
            shifts = (
                written.argmax(axis=1) - kernel.global_index[columns]
            ) % kernel.period
            rounds = kernel.points_processed[columns] - 8
            calls.append((rounds.tolist(), shifts.tolist()))
        return winners, points, bad

    FleetKernel._search_shifts = spy
    try:
        yield calls
    finally:
        FleetKernel._search_shifts = original


_PERIOD_FLEETS = {}


def period_fleet(period, n_series=4, **params):
    """``(streams, scalar models, packed kernel)`` of period-``period`` series.

    Member ``i`` is warmed ``8 + 3 i`` points, so the members sit at
    different phases; ``streams[i][0]`` is its next observation.
    """
    key = (period, n_series, tuple(sorted(params.items())))
    if key not in _PERIOD_FLEETS:
        streams, models = [], []
        for index in range(n_series):
            values = make_seasonal_series(
                period * 8 + 40, period, seed=500 + index
            )["values"]
            warm = 4 * period + 8 + 3 * index
            model = OneShotSTL(period, **params)
            model.initialize(values[: 4 * period])
            for value in values[4 * period : warm]:
                model.update(float(value))
            streams.append(values[warm:])
            models.append(model)
        _PERIOD_FLEETS[key] = (streams, models)
    streams, models = _PERIOD_FLEETS[key]
    return (
        [stream.copy() for stream in streams],
        copy.deepcopy(models),
        FleetKernel.pack(copy.deepcopy(models)),
    )


def scalar_search(kernel, column, value):
    """Member ``column`` after the scalar search of ``value``.

    ``_search_best_shift`` on the extracted pre-point state, followed by
    the bookkeeping ``OneShotSTL.update`` does around it (the monitor's
    moments are the caller's business on both sides and stay as
    extracted; its count is a column's ``global_index``, so it advances
    with it).  Returns ``(model, point, chosen shift)``.
    """
    model = kernel.extract(column)

    def search(shift_window):
        return _search_best_shift(
            model._iterations_state,
            value,
            model._seasonal_buffer,
            model._global_index,
            model.period,
            shift_window,
            model._points_processed,
            model._workspace,
            model.epsilon,
        )

    _, plain_trend, plain_seasonal, _ = search(0)
    states, trend, seasonal, shift = search(model.shift_window)
    model._iterations_state = states
    model._last_detection_residual = value - plain_trend - plain_seasonal
    if shift != 0:
        model._last_applied_shift = shift
    model._seasonal_buffer[(model._global_index + shift) % model.period] = seasonal
    model._global_index += 1
    model._residual_monitor._count += 1
    model._points_processed += 1
    model._last_trend = trend
    point = DecompositionPoint(value, trend, seasonal, value - trend - seasonal)
    return model, point, shift


class TestShiftSearchOracle:
    """The columnar search equals ``_search_best_shift``, float for float.

    ``FleetKernel._search_shifts`` evaluates the candidate shifts of the
    tripped columns as columns of one stacked solve; the reference is the
    scalar's sequential search on the same extracted pre-point state.
    Chosen shift, outputs and the full post-search state must agree --
    ties included, where the first candidate in the scalar order
    ``[0, -H..-1, 1..H]`` wins.
    """

    def assert_search_matches(self, kernel, columns, values):
        """Search ``columns`` both ways; returns the chosen shifts."""
        columns = np.asarray(columns)
        values = np.asarray(values, dtype=float)
        # A sentinel makes "written only by a non-zero shift" visible.
        kernel.last_applied_shift[:] = 99
        untouched = [kernel.extract(member) for member in range(kernel.n_series)]
        # The score is the one that tripped the search, handed in: the
        # trials' monitors have folded the point already.
        scores = np.linspace(5.5, 9.5, columns.size)
        winners, points, bad = kernel._search_shifts(columns, values, scores)
        assert bad == 1 and points.shape == (5, 1, columns.size)
        assert points[4, 0].tolist() == scores.tolist()
        assert_same_model_state(kernel, untouched, range(kernel.n_series))
        expected = []
        shifts = []
        for slot, (column, value) in enumerate(zip(columns.tolist(), values.tolist())):
            model, point, shift = scalar_search(kernel, column, value)
            assert point.trend == points[0, 0, slot]
            assert point.seasonal == points[1, 0, slot]
            assert point.residual == points[2, 0, slot]
            assert model._last_detection_residual == points[3, 0, slot]
            expected.append(model)
            shifts.append(shift)
        assert_same_model_state(winners, expected, range(columns.size))
        assert winners.last_applied_shift.tolist() == [
            shift or 99 for shift in shifts
        ]
        return shifts

    @staticmethod
    def forecast(kernel, shift=0):
        """Every member's one-step forecast at its phase shifted by ``shift``."""
        phase = (kernel.global_index + shift) % kernel.period
        return kernel.last_trend + kernel.seasonal_buffer[kernel._rows(), phase]

    @pytest.mark.parametrize("period", [8, 24, 50])
    @pytest.mark.parametrize("shift_window", [0, 3, 20])
    @pytest.mark.parametrize("iterations", [1, 3, 8])
    def test_search_matches_the_scalar_search(self, iterations, shift_window, period):
        """2H + 1 below and above the period, one column and several."""
        kernel = period_fleet(
            period, iterations=iterations, shift_window=shift_window
        )[2]
        rng = np.random.default_rng(100 * period + 10 * shift_window + iterations)
        chosen = []
        for columns in ([0, 1, 2, 3], [2], [3, 0]):
            values = self.forecast(kernel)[columns] + rng.normal(0.0, 2.0, len(columns))
            chosen += self.assert_search_matches(kernel, columns, values)
        if shift_window == 0:
            assert chosen == [0] * 7  # search off: the plain advance
        else:
            assert any(chosen), "no trial ever beat the plain advance"

    @pytest.mark.parametrize(
        "period,shift_window,expected",
        [
            (50, 20, [0, *range(-20, 0), *range(1, 21)]),
            (24, 20, [0, *range(-20, 0), 1, 2, 3]),
            (24, 3, [0, -3, -2, -1, 1, 2, 3]),
            (8, 20, [0, -20, -19, -18, -17, -15, -14, -13]),
            (8, 3, [0, -3, -2, -1, 1, 2, 3]),
        ],
    )
    def test_each_phase_is_tried_once_at_its_first_candidate(
        self, period, shift_window, expected
    ):
        """A repeated phase is the same trial; the scalar's ``<`` never takes it."""
        kernel = period_fleet(period, iterations=1, shift_window=shift_window)[2]
        assert kernel._shifts.tolist() == expected
        assert len(expected) == min(2 * shift_window + 1, period)

    def test_flat_seasonal_buffer_keeps_shift_zero(self):
        """Every anchor equal: every trial ties, candidate 0 came first."""
        kernel = period_fleet(24, iterations=3, shift_window=20)[2]
        kernel.seasonal_buffer[:] = 0.25
        values = self.forecast(kernel) + 5.0
        assert self.assert_search_matches(kernel, [0, 1, 2, 3], values) == [0] * 4

    def test_aliased_phase_reports_the_first_candidate_in_scalar_order(self):
        """T = 8, H = 20: phase +4 is first tried as shift -20, and says so."""
        kernel = period_fleet(8, iterations=3, shift_window=20)[2]
        kernel.seasonal_buffer[:] = np.linspace(-3.0, 3.0, 8)[
            np.random.default_rng(8).permuted(np.tile(np.arange(8), (4, 1)), axis=1)
        ]
        shifts = self.assert_search_matches(
            kernel, [0, 1, 2, 3], self.forecast(kernel, 4)
        )
        assert shifts == [-20] * 4

    @pytest.mark.parametrize("shift_window,shift,reported", [(3, 2, 2), (20, 5, -19)])
    def test_value_equal_to_the_forecast_at_a_shifted_phase(
        self, shift_window, shift, reported
    ):
        kernel = period_fleet(24, iterations=8, shift_window=shift_window)[2]
        kernel.seasonal_buffer[:] *= 4.0  # anchors well apart
        shifts = self.assert_search_matches(
            kernel, [1, 3], self.forecast(kernel, shift)[[1, 3]]
        )
        assert shifts == [reported] * 2

    def test_equal_residuals_at_a_negative_and_a_positive_shift(self):
        """The same anchor at phases -2 and +2: -2 is earlier in scalar order."""
        kernel = period_fleet(24, iterations=3, shift_window=3)[2]
        rows = kernel._rows()
        kernel.seasonal_buffer[:] *= 4.0
        kernel.seasonal_buffer[rows, (kernel.global_index + 2) % 24] = (
            kernel.seasonal_buffer[rows, (kernel.global_index - 2) % 24]
        )
        shifts = self.assert_search_matches(
            kernel, [0, 1, 2, 3], self.forecast(kernel, 2)
        )
        assert shifts == [-2] * 4


class TestColumnarNSigma:
    def test_matches_scalar_scorers(self):
        rng = np.random.default_rng(1)
        scorers = [NSigma(3.0) for _ in range(4)]
        for scorer in scorers:
            for value in rng.normal(0.0, 1.0, 50):
                scorer.update(float(value))
        columnar = ColumnarNSigma.pack(scorers)
        for _step in range(30):
            values = rng.normal(0.0, 2.0, 4)
            expected = [
                scorer.update(float(value))
                for scorer, value in zip(scorers, values)
            ]
            scores, flags = columnar.update(values)
            for i, verdict in enumerate(expected):
                assert verdict.score == scores[i]
                assert verdict.is_anomaly == bool(flags[i])

    def test_pack_requires_uniform_parameters(self):
        with pytest.raises(ValueError, match="uniform"):
            ColumnarNSigma.pack([NSigma(3.0), NSigma(5.0)])


def twin_records(spec, tamper=None):
    """Live records of a kernel engine and its scalar twin, both built
    from ``spec`` and fed the same blocks of spiked, gapped series;
    ``tamper(engine)`` runs on both once every key is live.  Returns
    ``(kernel engine, its records, the twin's records)``."""
    data = {
        f"m-{i}": fleet_series(
            i,
            spike=(INIT + 20 + i if i % 3 == 0 else None),
            missing=(INIT + 33 if i == 4 else None),
        )
        for i in range(6)
    }
    engines = [MultiSeriesEngine.from_spec(spec) for _ in range(2)]
    engines[1].fleet_kernel_enabled = False
    records = []
    for engine in engines:
        collected = live_records(engine, [{key: values[:INIT] for key, values in data.items()}])
        if tamper is not None:
            tamper(engine)
        position = INIT
        for size in (1, 7, PERIOD * 2, 3, PERIOD):
            batch = {key: values[position : position + size] for key, values in data.items()}
            for key, rows in live_records(engine, [batch]).items():
                collected.setdefault(key, []).extend(rows)
            position += size
        records.append(collected)
    return engines[0], records[0], records[1]


class TestOneSetOfMoments:
    """A column keeps one Welford state, its monitor's, and the kernel's
    score plane is what the pipeline's NSigma detector would score; a key
    whose detector could score otherwise stays on the scalar path."""

    @staticmethod
    def spec(threshold=5.0, overrides=None):
        return EngineSpec(
            pipeline=PipelineSpec(
                decomposer=DecomposerSpec("oneshotstl", {"period": PERIOD}),
                detector=DetectorSpec("nsigma", {"threshold": threshold}),
            ),
            initialization_length=INIT,
            overrides=overrides or {},
        )

    def test_a_detector_threshold_apart_from_the_shift_threshold(self):
        fast, records, expected = twin_records(self.spec(threshold=3.0))
        assert set(fast._absorbed) == set(expected)
        assert records == expected
        scores = [record.anomaly_score for rows in records.values() for record in rows]
        # the detector's threshold decides, not the monitor's
        assert any(3.0 < score <= 5.0 for score in scores)
        assert any(score > 5.0 for score in scores)

    def test_a_detector_with_another_minimum_std_is_never_absorbed(self):
        floored = PipelineSpec(
            decomposer=DecomposerSpec("oneshotstl", {"period": PERIOD}),
            detector=DetectorSpec("nsigma", {"threshold": 5.0, "minimum_std": 0.1}),
        )
        spec = self.spec(overrides={"m-1": floored, "m-3": floored})
        fast, records, expected = twin_records(spec)
        assert records == expected
        assert set(fast._absorbed) == {"m-0", "m-2", "m-4", "m-5"}
        assert {"m-1", "m-3"} <= fast._never_absorb

    def test_a_detector_whose_moments_are_not_the_monitors_is_never_absorbed(self):
        def tamper(engine):
            engine._series["m-2"].pipeline.scorer.update_stats(0.5)

        spec = self.spec()
        fast, records, expected = twin_records(spec, tamper)
        assert records == expected
        assert set(fast._absorbed) == {"m-0", "m-1", "m-3", "m-4", "m-5"}
        assert "m-2" in fast._never_absorb


def engine_pair(n_series, **engine_kwargs):
    """Identically configured engines with the kernel on and off."""
    engines = []
    for enabled in (True, False):
        engine = MultiSeriesEngine.for_oneshotstl(PERIOD, **engine_kwargs)
        engine.fleet_kernel_enabled = enabled
        engines.append(engine)
    return engines


def live_records(engine, batches):
    collected = {}
    for batch in batches:
        for record in engine.ingest(batch):
            if record.status == "live":
                collected.setdefault(record.key, []).append(record.record)
    return collected


class TestEngineKernelOracle:
    """Engine ingest with the kernel equals the scalar engine exactly."""

    def make_batches(self, data):
        length = len(next(iter(data.values())))
        return [
            [(key, values[position]) for key, values in data.items()]
            for position in range(length)
        ]

    def test_row_ingest_matches_scalar_engine(self):
        data = {
            f"host-{i}": fleet_series(i, spike=(INIT + 30 if i == 2 else None))
            for i in range(9)
        }
        batches = self.make_batches(data)
        fast, reference = engine_pair(9)
        records_fast = live_records(fast, batches)
        records_reference = live_records(reference, batches)
        assert fast._absorbed, "the kernel path never engaged"
        assert records_fast == records_reference
        stats_fast = fast.fleet_stats()
        stats_reference = reference.fleet_stats()
        assert stats_fast.points_total == stats_reference.points_total
        assert stats_fast.anomalies_total == stats_reference.anomalies_total

    def test_columnar_and_parallel_ingest_match_rows(self):
        data = {f"m-{i}": fleet_series(i) for i in range(8)}
        batches = self.make_batches(data)
        by_rows, _ = engine_pair(8)
        records_rows = live_records(by_rows, batches)

        by_dict, _ = engine_pair(8)
        length = len(next(iter(data.values())))
        records_dict = {}
        for start in range(0, length, 7):
            chunk = {key: values[start : start + 7] for key, values in data.items()}
            for record in by_dict.ingest(chunk):
                if record.status == "live":
                    records_dict.setdefault(record.key, []).append(record.record)
        assert records_dict == records_rows

        by_parallel, _ = engine_pair(8)
        keys = list(data)
        records_parallel = {}
        for position in range(length):
            values = np.array([data[key][position] for key in keys])
            for record in by_parallel.ingest((keys, values)):
                if record.status == "live":
                    records_parallel.setdefault(record.key, []).append(
                        record.record
                    )
        assert records_parallel == records_rows

    def test_columnar_ingest_validates_shape(self):
        engine = MultiSeriesEngine.for_oneshotstl(PERIOD)
        with pytest.raises(ValueError, match="equal-length"):
            engine.ingest({"a": np.zeros(3), "b": np.zeros(4)})
        with pytest.raises(ValueError, match="parallel-array"):
            engine.ingest((["a", "b"], np.zeros(3)))
        assert engine.ingest({}) == []

    def test_warming_live_mix_matches(self):
        """Keys created at different times: warming and kernel keys coexist."""
        data = {f"early-{i}": fleet_series(i, length=PERIOD * 10) for i in range(8)}
        late = {f"late-{i}": fleet_series(20 + i, length=PERIOD * 10) for i in range(3)}
        fast, reference = engine_pair(8 + 3)
        records = {True: {}, False: {}}
        for enabled, engine in ((True, fast), (False, reference)):
            for position in range(PERIOD * 10):
                batch = [(key, values[position]) for key, values in data.items()]
                if position >= PERIOD * 3:
                    batch += [
                        (key, values[position - PERIOD * 3])
                        for key, values in late.items()
                    ]
                for record in engine.ingest(batch):
                    if record.status == "live":
                        records[enabled].setdefault(record.key, []).append(
                            record.record
                        )
        assert records[True] == records[False]
        assert any(key in fast._absorbed for key in late)

    def test_nan_through_kernel_path_matches(self):
        data = {f"m-{i}": fleet_series(i) for i in range(8)}
        for i in (1, 5):
            data[f"m-{i}"][INIT + 25] = np.nan
        batches = self.make_batches(data)
        fast, reference = engine_pair(8)
        assert live_records(fast, batches) == live_records(reference, batches)

    def test_infinite_value_raises_in_input_order(self):
        data = {f"m-{i}": fleet_series(i) for i in range(8)}
        batches = self.make_batches(data)
        fast, _ = engine_pair(8)
        live_records(fast, batches[: PERIOD * 5])
        assert fast._absorbed
        poison = [(key, values[0]) for key, values in data.items()]
        poison[3] = (poison[3][0], float("inf"))
        with pytest.raises(ValueError, match="non-finite"):
            fast.ingest(poison)

    def test_mixed_specs_route_to_separate_groups(self):
        """Per-key overrides create distinct cohorts, each batched."""
        spec = EngineSpec(
            pipeline=PipelineSpec(
                decomposer=DecomposerSpec("oneshotstl", {"period": PERIOD}),
                detector=DetectorSpec("nsigma", {"threshold": 5.0}),
            ),
            initialization_length=INIT,
            overrides={
                f"sensitive-{i}": PipelineSpec(
                    decomposer=DecomposerSpec(
                        "oneshotstl", {"period": PERIOD, "iterations": 2}
                    ),
                    detector=DetectorSpec("nsigma", {"threshold": 3.0}),
                )
                for i in range(4)
            },
        )
        data = {f"plain-{i}": fleet_series(i) for i in range(4)}
        data.update(
            {f"sensitive-{i}": fleet_series(10 + i) for i in range(4)}
        )
        batches = [
            [(key, values[position]) for key, values in data.items()]
            for position in range(PERIOD * 8)
        ]
        fast = MultiSeriesEngine.from_spec(spec)
        reference = MultiSeriesEngine.from_spec(spec)
        reference.fleet_kernel_enabled = False
        assert live_records(fast, batches) == live_records(reference, batches)
        assert len(fast._groups) == 2

    def test_incompatible_decomposers_stay_on_scalar_path(self):
        spec = EngineSpec(
            pipeline=PipelineSpec(
                DecomposerSpec("oneshotstl", {"period": PERIOD, "shift_window": 0})
            ),
            initialization_length=INIT,
            overrides={
                f"slow-{i}": PipelineSpec(
                    DecomposerSpec("online_stl", {"period": PERIOD})
                )
                for i in range(2)
            },
        )
        engine = MultiSeriesEngine.from_spec(spec)
        data = {f"slow-{i}": fleet_series(i) for i in range(2)}
        data.update({f"fast-{i}": fleet_series(5 + i) for i in range(4)})
        for batch in self.make_batches(data):
            engine.ingest(batch)
        assert all(not key.startswith("slow") for key in engine._absorbed)
        assert any(key.startswith("fast") for key in engine._absorbed)

    def test_single_key_process_interleaves_with_kernel(self):
        data = {f"m-{i}": fleet_series(i, length=PERIOD * 12) for i in range(8)}
        fast, reference = engine_pair(8)
        for position in range(PERIOD * 6):
            batch = [(key, values[position]) for key, values in data.items()]
            fast.ingest(batch)
            reference.ingest(batch)
        assert fast._absorbed
        for position in range(PERIOD * 6, PERIOD * 7):
            for key, values in data.items():
                fast_record = fast.process(key, float(values[position]))
                reference_record = reference.process(key, float(values[position]))
                assert fast_record.record == reference_record.record
        # ...and batched ingest keeps matching after the interleaved calls.
        batches = [
            [(key, values[position]) for key, values in data.items()]
            for position in range(PERIOD * 7, PERIOD * 8)
        ]
        assert live_records(fast, batches) == live_records(reference, batches)

    @pytest.mark.parametrize("chunk", [1, 2, 8])
    @pytest.mark.parametrize("nan_on_point_0", [False, True])
    def test_cold_cohort_matches_from_its_first_online_point(
        self, nan_on_point_0, chunk
    ):
        """Absorbed at 0 online points: rounds 0-8 equal the scalar engine.

        The cohort meets a spike on online point 0 and one on point 1
        (see ``TestFleetKernelOracle.COLD_EVENTS``).  With a NaN on point 0
        as well, the batch that carries it finds the series live but not
        absorbed yet and runs sequentially; the cohort then enters the
        kernel with the next batch, still cold when that is point 1.
        """
        oracle = TestFleetKernelOracle
        events = dict(oracle.COLD_EVENTS)
        if not nan_on_point_0:
            del events[2]
        keys = [f"m-{i}" for i in range(8)]
        grid = np.array([oracle.cold_stream(i, events.get(i)) for i in range(8)]).T
        fast, reference = engine_pair(8)
        for engine in (fast, reference):
            engine.ingest_grid(keys, grid[:INIT])
        assert not fast._absorbed
        stop = INIT + oracle.COLD_ROUNDS
        with recorded_searches() as searches:
            for start in range(INIT, stop, chunk):
                rounds = grid[start : min(start + chunk, stop)]
                assert_results_equal(
                    fast.ingest_grid(keys, rounds), reference.ingest_grid(keys, rounds)
                )
                if not nan_on_point_0 or start > INIT:
                    assert set(fast._absorbed) == set(keys)
        if not nan_on_point_0 or chunk == 1:
            # The spikes were searched on a column one point old
            # (recorded_searches reports rounds relative to 8 warm points).
            assert any(1 - 8 in rounds for rounds, _ in searches)
        (group,) = fast._groups.values()
        assert group.kernel.points_processed.tolist() == [oracle.COLD_ROUNDS] * 8

    def test_default_fleet_never_takes_a_scalar_update_on_its_way_in(
        self, monkeypatch
    ):
        """One grid initializes a cohort and keeps going, all on the kernel.

        The pass after the round that completed the initialization windows
        absorbs every key; the remaining rounds are one kernel block.
        """
        n_series, online = 32, 16
        keys = [f"m-{i}" for i in range(n_series)]
        grid = np.array(
            [fleet_series(i, length=INIT + online) for i in range(n_series)]
        ).T
        initialized = []
        initialize = OneShotSTL.initialize

        def initialize_spy(model, values):
            initialized.append(model)
            return initialize(model, values)

        def update(*args):
            raise AssertionError("OneShotSTL.update ran during a grid ingest")

        monkeypatch.setattr(OneShotSTL, "initialize", initialize_spy)
        monkeypatch.setattr(OneShotSTL, "update", update)
        engine = MultiSeriesEngine.for_oneshotstl(PERIOD)
        absorbed_at_pass = []
        plan = engine._grid_plan

        def plan_spy(round_keys):
            planned = plan(round_keys)
            absorbed_at_pass.append(len(engine._absorbed))
            return planned

        monkeypatch.setattr(engine, "_grid_plan", plan_spy)
        result = engine.ingest_grid(keys, grid)
        assert absorbed_at_pass == [0] * INIT + [n_series]
        assert len(initialized) == len(set(map(id, initialized))) == n_series
        assert result.live.reshape(grid.shape).sum(axis=1).tolist() == (
            [0] * INIT + [n_series] * online
        )

    def test_forecast_sees_kernel_state(self):
        data = {f"m-{i}": fleet_series(i) for i in range(8)}
        fast, reference = engine_pair(8)
        batches = self.make_batches(data)
        live_records(fast, batches)
        live_records(reference, batches)
        for key in data:
            assert np.array_equal(
                fast.forecast(key, PERIOD), reference.forecast(key, PERIOD)
            )


class TestColumnarResults:
    """Lazy IngestResult rows are bit-identical to eager EngineRecords."""

    def make_batches(self, data):
        length = len(next(iter(data.values())))
        return [
            [(key, values[position]) for key, values in data.items()]
            for position in range(length)
        ]

    def assert_result_matches_records(self, result, expected):
        """Every access path of ``result`` equals the eager record list."""
        assert isinstance(result, IngestResult)
        assert len(result) == len(expected)
        assert result.records() == expected
        assert list(result) == expected
        assert result.keys == [record.key for record in expected]
        for position, record in enumerate(expected):
            assert result[position] == record
            assert result.status[position] == record.status
            assert bool(result.live[position]) == (record.record is not None)
            if record.record is None:
                assert np.isnan(result.value[position])
                continue
            point = record.record
            assert result.index[position] == point.index
            assert result.value[position] == point.value
            assert result.trend[position] == point.trend
            assert result.seasonal[position] == point.seasonal
            assert result.residual[position] == point.residual
            assert result.anomaly_score[position] == point.anomaly_score
            assert bool(result.is_anomaly[position]) == point.is_anomaly
            assert (
                result.detection_residual[position] == point.detection_residual
            )
        assert result[-1] == expected[-1]
        assert result[: min(3, len(expected))] == expected[: min(3, len(expected))]

    def test_grid_ingest_columnar_results_match_eager_rows(self):
        """Dict (grid) ingest: arrays out == eager records, spikes included."""
        data = {
            f"m-{i}": fleet_series(i, spike=(INIT + 30 if i == 2 else None))
            for i in range(8)
        }
        fast, reference = engine_pair(8)
        length = len(next(iter(data.values())))
        collected_fast: list = []
        collected_reference: list = []
        for start in range(0, length, 9):
            chunk = {
                key: values[start : start + 9] for key, values in data.items()
            }
            result = fast.ingest_columnar(chunk)
            expected = reference.ingest(chunk)
            self.assert_result_matches_records(result, expected)
            collected_fast.extend(result.records())
            collected_reference.extend(expected)
        assert fast._absorbed, "the kernel path never engaged"
        assert collected_fast == collected_reference

    def test_warming_live_mix_columnar_results(self):
        """Late keys keep warming (record None) while the fleet runs columnar."""
        data = {f"early-{i}": fleet_series(i) for i in range(8)}
        late = {f"late-{i}": fleet_series(20 + i) for i in range(3)}
        fast, reference = engine_pair(8 + 3)
        length = PERIOD * 6
        for position in range(length):
            batch = {key: values[position] for key, values in data.items()}
            if position >= PERIOD * 4:
                batch.update(
                    {
                        key: values[position - PERIOD * 4]
                        for key, values in late.items()
                    }
                )
            result = fast.ingest_columnar(batch)
            expected = reference.ingest(list(batch.items()))
            self.assert_result_matches_records(result, expected)
        statuses = set(fast.ingest_columnar(
            {key: values[length] for key, values in {**data, **late}.items()}
        ).status)
        assert len(statuses) == 2  # warming and live rows coexist

    def test_nan_inputs_columnar_results_match(self):
        data = {f"m-{i}": fleet_series(i) for i in range(8)}
        for i in (1, 5):
            data[f"m-{i}"][INIT + 25] = np.nan
        fast, reference = engine_pair(8)
        batches = self.make_batches(data)
        for batch in batches:
            result = fast.ingest_columnar(batch)
            expected = reference.ingest(batch)
            self.assert_result_matches_records(result, expected)

    def test_mixed_spec_groups_columnar_results_match(self):
        spec = EngineSpec(
            pipeline=PipelineSpec(
                decomposer=DecomposerSpec("oneshotstl", {"period": PERIOD}),
                detector=DetectorSpec("nsigma", {"threshold": 5.0}),
            ),
            initialization_length=INIT,
            overrides={
                f"sensitive-{i}": PipelineSpec(
                    decomposer=DecomposerSpec(
                        "oneshotstl", {"period": PERIOD, "iterations": 2}
                    ),
                    detector=DetectorSpec("nsigma", {"threshold": 3.0}),
                )
                for i in range(4)
            },
        )
        data = {f"plain-{i}": fleet_series(i) for i in range(4)}
        data.update({f"sensitive-{i}": fleet_series(10 + i) for i in range(4)})
        fast = MultiSeriesEngine.from_spec(spec)
        reference = MultiSeriesEngine.from_spec(spec)
        reference.fleet_kernel_enabled = False
        length = len(next(iter(data.values())))
        for start in range(0, length, 5):
            chunk = {
                key: values[start : start + 5] for key, values in data.items()
            }
            result = fast.ingest_columnar(chunk)
            expected = reference.ingest(chunk)
            self.assert_result_matches_records(result, expected)
        assert len(fast._groups) == 2

    def test_partial_cohort_rounds_columnar_results_match(self):
        """Rounds touching only a subset of an absorbed group stay exact."""
        data = {f"m-{i}": fleet_series(i, length=PERIOD * 12) for i in range(10)}
        fast, reference = engine_pair(10)
        batches = self.make_batches(data)
        for batch in batches[: PERIOD * 6]:
            fast.ingest(batch)
            reference.ingest(batch)
        assert fast._absorbed
        keys = list(data)
        rng = np.random.default_rng(7)
        for position in range(PERIOD * 6, PERIOD * 8):
            chosen = sorted(
                rng.choice(len(keys), size=rng.integers(3, 9), replace=False)
            )
            subset_keys = [keys[i] for i in chosen]
            values = np.array([data[key][position] for key in subset_keys])
            result = fast.ingest_columnar((subset_keys, values))
            expected = reference.ingest((subset_keys, values))
            self.assert_result_matches_records(result, expected)

    def test_row_and_parallel_columnar_results_match_dict(self):
        data = {f"m-{i}": fleet_series(i) for i in range(8)}
        engines = [engine_pair(8)[0] for _ in range(3)]
        keys = list(data)
        length = len(next(iter(data.values())))
        for position in range(length):
            row_batch = [(key, data[key][position]) for key in keys]
            values = np.array([data[key][position] for key in keys])
            by_rows = engines[0].ingest_columnar(row_batch)
            by_dict = engines[1].ingest_columnar(
                {key: data[key][position] for key in keys}
            )
            by_parallel = engines[2].ingest_columnar((keys, values))
            assert by_rows.records() == by_dict.records() == by_parallel.records()

    def test_sequential_fallback_wraps_records(self):
        """Small batches and warming-only batches still return a result."""
        engine = MultiSeriesEngine.for_oneshotstl(PERIOD)
        result = engine.ingest_columnar({"a": 1.0, "b": 2.0})
        assert len(result) == 2
        assert not result.live.any()
        assert all(record.record is None for record in result)
        assert engine.ingest_columnar({}).records() == []
        assert engine.ingest({}) == []

    def test_infinite_value_still_raises_with_columnar_results(self):
        data = {f"m-{i}": fleet_series(i) for i in range(8)}
        fast, _ = engine_pair(8)
        for batch in self.make_batches(data)[: PERIOD * 5]:
            fast.ingest(batch)
        assert fast._absorbed
        poison = {key: float("inf") for key in data}
        with pytest.raises(ValueError, match="non-finite"):
            fast.ingest_columnar(poison)


class TestAmortizedAbsorption:
    """Group growth is capacity-doubled: trickle absorption stays linear."""

    def _warm_prototype(self, **params):
        values = fleet_series(0)
        model = OneShotSTL(PERIOD, **params)
        model.initialize(values[:INIT])
        for value in values[INIT : INIT + 10]:
            model.update(float(value))
        assert FleetKernel.eligible(model)
        return model

    def test_kernel_append_reuses_capacity(self):
        prototype = self._warm_prototype(iterations=2)
        kernel = FleetKernel.pack([copy.deepcopy(prototype)])
        for _ in range(20):
            kernel.append(FleetKernel.pack([copy.deepcopy(prototype)]))
        # The columnar arrays sit inside larger capacity bases...
        base = kernel.seasonal_buffer.base
        assert base is not None and base.shape[0] > kernel.n_series
        assert kernel.last_trend.base is not None
        assert kernel._trend_pairs.shape[-1] > kernel.n_series
        # ...and advancing after growth still matches the scalar model
        # bit for bit (updates write in place, never rebinding the views).
        scalar = copy.deepcopy(prototype)
        values = fleet_series(0)[INIT + 10 : INIT + 10 + PERIOD]
        for value in values:
            point = scalar.update(float(value))
            out = kernel.update_block(np.full((1, kernel.n_series), float(value)))
            assert np.all(out.trend == point.trend)
            assert np.all(out.residual == point.residual)
        base_after = kernel.seasonal_buffer.base
        assert base_after is base  # capacity survived the updates

    def test_one_at_a_time_absorption_is_not_quadratic(self, monkeypatch):
        """Structural check: repeated single appends copy O(1) rows each --
        counted as the base arrays ``amortized_append`` allocates."""
        from repro.utils import columns as columnar

        prototype = self._warm_prototype(iterations=1)
        packs = [
            FleetKernel.pack([copy.deepcopy(prototype)]) for _ in range(96)
        ]
        amortized = columnar.amortized_append
        calls = allocations = 0

        def counted(view, new, axis=0):
            nonlocal calls, allocations
            grown = amortized(view, new, axis)
            calls += 1
            allocations += grown.base is not view.base
            return grown

        monkeypatch.setattr(columnar, "amortized_append", counted)
        kernel = FleetKernel.pack([copy.deepcopy(prototype)])
        for single in packs:
            kernel.append(single)
        assert kernel.n_series == 97
        arrays, remainder = divmod(calls, len(packs))
        assert arrays and not remainder
        # Doubling from the minimum capacity of 8, an array is allocated at
        # 2, 9, 19, 39 and 79 members: five bases for 96 appends, O(log n),
        # where a copy on every append would allocate 96.
        assert allocations == 5 * arrays

    def test_engine_trickle_absorption_matches_scalar(self):
        """Series joining a live group one at a time stay bit-identical."""
        early = {f"early-{i}": fleet_series(i, length=PERIOD * 14) for i in range(8)}
        late = {
            f"late-{i}": fleet_series(30 + i, length=PERIOD * 14) for i in range(5)
        }
        fast, reference = engine_pair(13)
        records = {True: {}, False: {}}
        for enabled, engine in ((True, fast), (False, reference)):
            for position in range(PERIOD * 12):
                batch = [(key, values[position]) for key, values in early.items()]
                # Every late key starts one period after the previous one,
                # so each goes live (and is absorbed) on a different round.
                for offset, (key, values) in enumerate(late.items()):
                    delay = PERIOD * (1 + offset)
                    if position >= delay:
                        batch.append((key, values[position - delay]))
                for record in engine.ingest(batch):
                    if record.status == "live":
                        records[enabled].setdefault(record.key, []).append(
                            record.record
                        )
        assert records[True] == records[False]
        assert all(key in fast._absorbed for key in late)


def assert_one_group_report(engine, keys):
    """Every member of one kernel group reports the group's latency: the
    same report under its own label.  Returns that report."""
    assert len({id(engine._absorbed[key][0]) for key in keys}) == 1
    reports = {key: engine.series_stats(key).latency for key in keys}
    first = reports[keys[0]]
    assert first is not None
    for key, report in reports.items():
        assert report.method == f"series[{key!r}]"
        assert report == replace(first, method=report.method)
    return first


class TestBatchedLatencyTracking:
    def test_latency_ring_overflow_keeps_newest_window(self):
        spec = EngineSpec(
            pipeline=PipelineSpec(
                decomposer=DecomposerSpec("oneshotstl", {"period": PERIOD}),
                detector=DetectorSpec("nsigma", {"threshold": 5.0}),
            ),
            initialization_length=INIT,
            latency_window=16,
        )
        engine = MultiSeriesEngine.from_spec(spec)
        data = {f"m-{i}": fleet_series(i) for i in range(8)}
        length = len(next(iter(data.values())))
        for position in range(length):
            engine.ingest({key: values[position] for key, values in data.items()})
        assert len(engine._absorbed) == len(data)
        # One ring for the group, of the spec's window, full.
        (group,) = engine._groups.values()
        assert group.latencies.capacity == 16 and len(group.latencies) == 16
        latency = assert_one_group_report(engine, list(data))
        assert latency.points == 16
        assert latency.p99_seconds >= latency.median_seconds > 0

    def test_latency_flush_interleaves_with_scalar_process(self):
        engine = MultiSeriesEngine.for_oneshotstl(PERIOD)
        data = {f"m-{i}": fleet_series(i) for i in range(8)}
        for position in range(INIT + 20):
            engine.ingest({key: values[position] for key, values in data.items()})
        assert engine._absorbed
        # A process() is a one-column run: its duration joins the group's
        # ring after the batches', so nothing is lost -- and the members
        # that sat it out report it too, the ring being the group's.
        engine.process("m-0", 0.5)
        latency = assert_one_group_report(engine, list(data))
        assert latency.points == 21


class TestKernelCheckpointing:
    def run_batches(self, data, start, stop):
        return [
            [(key, values[position]) for key, values in data.items()]
            for position in range(start, stop)
        ]

    def test_checkpoint_open_round_trip_through_kernel(self, tmp_path):
        data = {f"m-{i}": fleet_series(i, length=PERIOD * 12) for i in range(8)}
        engine = MultiSeriesEngine.for_oneshotstl(PERIOD)
        for batch in self.run_batches(data, 0, PERIOD * 8):
            engine.ingest(batch)
        assert engine._absorbed
        engine.attach_store(tmp_path / "store")
        engine.close()

        restored = MultiSeriesEngine.open(tmp_path / "store")
        # What was a column when checkpointed is a column when opened.
        assert set(restored._absorbed) == set(engine._absorbed)
        tail = self.run_batches(data, PERIOD * 8, PERIOD * 12)
        continued = [engine.ingest(batch) for batch in tail]
        reloaded = [restored.ingest(batch) for batch in tail]
        for before, after in zip(continued, reloaded):
            assert [r.record for r in before] == [r.record for r in after]

    def test_checkpoint_format_is_identical_to_scalar_path(self, tmp_path):
        """A kernel-run engine checkpoints the state a scalar run does."""
        data = {f"m-{i}": fleet_series(i) for i in range(8)}
        fast, reference = engine_pair(8)
        for batch in self.run_batches(data, 0, PERIOD * 8):
            fast.ingest(batch)
            reference.ingest(batch)
        assert fast._absorbed and not reference._absorbed
        reopened = []
        for name, engine in (("fast", fast), ("reference", reference)):
            engine.attach_store(tmp_path / name)
            engine.close()
            reopened.append(MultiSeriesEngine.open(tmp_path / name))
        fast_engine, reference_engine = reopened
        record_fast = fast_engine.process("m-0", 0.25)
        record_reference = reference_engine.process("m-0", 0.25)
        assert record_fast.record == record_reference.record

    def test_snapshot_restore_through_kernel(self):
        data = {f"m-{i}": fleet_series(i, length=PERIOD * 12) for i in range(8)}
        engine = MultiSeriesEngine.for_oneshotstl(PERIOD)
        for batch in self.run_batches(data, 0, PERIOD * 8):
            engine.ingest(batch)
        assert engine._absorbed
        checkpoint = engine.snapshot()
        tail = self.run_batches(data, PERIOD * 8, PERIOD * 12)
        first = [engine.ingest(batch) for batch in tail]
        engine.restore(checkpoint)
        assert set(engine._absorbed) == set(data)  # columns come back as columns
        second = [engine.ingest(batch) for batch in tail]
        for before, after in zip(first, second):
            assert [r.record for r in before] == [r.record for r in after]


class TestLatencyEdgeCases:
    def test_empty_window_is_well_defined(self):
        report = summarize_latencies(np.array([]), method="empty")
        assert report.points == 0
        assert report.mean_seconds == 0.0
        assert report.median_seconds == 0.0
        assert report.p99_seconds == 0.0
        assert report.total_seconds == 0.0

    def test_single_sample_window(self):
        report = summarize_latencies([0.25], method="one")
        assert report.points == 1
        assert report.mean_seconds == 0.25
        assert report.median_seconds == 0.25
        assert report.p99_seconds == 0.25
        assert report.total_seconds == 0.25

    def test_no_numpy_warnings_on_edge_windows(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            summarize_latencies(np.array([]), method="empty")
            summarize_latencies([0.1], method="one")

    def test_fleet_stats_on_empty_fleet(self):
        engine = MultiSeriesEngine.for_oneshotstl(PERIOD)
        stats = engine.fleet_stats()
        assert stats.series_total == 0
        assert stats.points_total == 0
        assert stats.anomalies_total == 0

    def test_kernel_path_latency_counts_every_point(self):
        """Full-width rounds: the group ring holds one duration per round,
        which is what each member's own ring held before."""
        data = {f"m-{i}": fleet_series(i) for i in range(8)}
        engine = MultiSeriesEngine.for_oneshotstl(PERIOD)
        length = len(next(iter(data.values())))
        for position in range(length):
            engine.ingest([(key, values[position]) for key, values in data.items()])
        assert engine._absorbed
        latency = assert_one_group_report(engine, list(data))
        assert latency.points == min(length - INIT, 1024)
        assert latency.p99_seconds >= latency.median_seconds > 0
        stats = engine.fleet_stats().per_series
        assert {key: stats[key].latency for key in data} == {
            key: engine.series_stats(key).latency for key in data
        }


RESULT_FIELDS = (
    "index",
    "value",
    "trend",
    "seasonal",
    "residual",
    "anomaly_score",
    "is_anomaly",
    "detection_residual",
    "live",
)


def assert_results_equal(result, expected):
    """Two :class:`IngestResult` s agree field for field (NaN == NaN)."""
    assert result.keys == expected.keys
    for field in RESULT_FIELDS:
        assert np.array_equal(
            getattr(result, field), getattr(expected, field), equal_nan=True
        ), field


class TestTimeBlockedOracle:
    """The time-blocked advance equals the scalar path at every batch size.

    ``FleetKernel.update_block`` moves T rounds x N series per call,
    splitting internally on NaN rounds and shift-search triggers; every
    output and every piece of post-block state must be float-for-float
    identical to T scalar ``OneShotSTL.update`` calls per series, and the
    engine's grid path must match the scalar engine whatever the number of
    rounds a batch carries.
    """

    def assert_block_matches(self, streams, rounds_per_block, points, **params):
        scalar = warm_models(streams, 8, **params)
        kernel = FleetKernel.pack(warm_models(streams, 8, **params))
        # Post-block state: one more round continues identically.
        assert_blocks_match_scalar(
            kernel,
            scalar,
            streams,
            INIT + 8,
            block_sizes(points, rounds_per_block) + [1],
        )
        assert np.array_equal(
            kernel.last_applied_shift,
            np.array([model.current_shift for model in scalar]),
        )
        return scalar

    def test_plain_block_matches(self):
        streams = [fleet_series(i) for i in range(6)]
        self.assert_block_matches(streams, PERIOD, PERIOD * 3, shift_window=0)

    @pytest.mark.parametrize("rounds_per_block", [1, 7, PERIOD * 2])
    def test_block_boundaries_match(self, rounds_per_block):
        """T=1, T dividing and not dividing the batch, T spanning periods."""
        streams = [fleet_series(i) for i in range(5)]
        self.assert_block_matches(
            streams, rounds_per_block, PERIOD * 2, shift_window=0
        )

    def test_run_cap_splits_long_blocks_identically(self):
        """One call longer than min(period, 64) rounds re-stages mid-call."""
        streams = [fleet_series(i, length=PERIOD * 12) for i in range(4)]
        self.assert_block_matches(streams, PERIOD * 5, PERIOD * 5, shift_window=0)

    def test_nan_rounds_split_the_block_identically(self):
        streams = [
            fleet_series(i, missing=(INIT + 15 + i if i in (1, 3) else None))
            for i in range(5)
        ]
        self.assert_block_matches(streams, PERIOD, PERIOD * 2, shift_window=20)

    def test_shift_search_trigger_mid_block_matches(self):
        streams = [
            fleet_series(i, spike=(INIT + 20 + i if i % 2 == 0 else None))
            for i in range(6)
        ]
        scalar = self.assert_block_matches(
            streams, PERIOD, PERIOD * 2, shift_window=20, shift_threshold=5.0
        )
        # The spikes must actually have exercised the mid-block fallback.
        assert any(model.current_shift != 0 for model in scalar)

    def test_columnar_nsigma_block_matches(self):
        rng = np.random.default_rng(5)
        scorers = [NSigma(3.0) for _ in range(4)]
        for scorer in scorers:
            for value in rng.normal(0.0, 1.0, 50):
                scorer.update(float(value))
        blocked = ColumnarNSigma.pack(scorers)
        values = rng.normal(0.0, 2.0, (30, 4))
        scores, flags = blocked.update_block(values)
        for row in range(30):
            for column, scorer in enumerate(scorers):
                verdict = scorer.update(float(values[row, column]))
                assert verdict.score == scores[row, column]
                assert verdict.is_anomaly == bool(flags[row, column])
        assert blocked.mean.tolist() == [scorer._mean for scorer in scorers]
        assert blocked.m2.tolist() == [scorer._m2 for scorer in scorers]
        assert blocked.count.tolist() == [scorer._count for scorer in scorers]

    def assert_engine_grids_match(self, data, chunk, **engine_kwargs):
        """Dict batches of ``chunk`` rounds: kernel engine == scalar engine."""
        fast, reference = engine_pair(len(data), **engine_kwargs)
        length = len(next(iter(data.values())))
        for start in range(0, length, chunk):
            batch = {
                key: values[start : start + chunk]
                for key, values in data.items()
            }
            assert_results_equal(
                fast.ingest_columnar(batch), reference.ingest_columnar(batch)
            )
        assert fast._absorbed, "the kernel path never engaged"
        for key in data:
            stats_fast = fast.series_stats(key)
            stats_reference = reference.series_stats(key)
            assert stats_fast.points == stats_reference.points
            assert stats_fast.anomalies == stats_reference.anomalies

    @pytest.mark.parametrize("chunk", [1, 2, 7, 37])
    def test_engine_grid_matches_scalar_at_every_batch_size(self, chunk):
        """One round per batch, T dividing and not dividing the data.

        The warming -> live transition happens mid-batch for the larger
        sizes; a spike and a NaN gap split the runs.
        """
        data = {
            f"m-{i}": fleet_series(
                i,
                spike=(INIT + 30 if i == 2 else None),
                missing=(INIT + 41 if i == 5 else None),
            )
            for i in range(8)
        }
        self.assert_engine_grids_match(data, chunk)

    def test_engine_whole_stream_in_one_batch_matches(self):
        """T exceeding the data: warm-up, absorption and every run in one call."""
        data = {f"m-{i}": fleet_series(i) for i in range(6)}
        self.assert_engine_grids_match(data, 1000)

    def test_blocked_latency_counts_every_round(self):
        data = {f"m-{i}": fleet_series(i) for i in range(8)}
        engine = MultiSeriesEngine.for_oneshotstl(PERIOD)
        length = len(next(iter(data.values())))
        for start in range(0, length, 40):
            engine.ingest({
                key: values[start : start + 40] for key, values in data.items()
            })
        assert engine._absorbed
        for key in data:
            latency = engine.fleet_stats().per_series[key].latency
            assert latency is not None
            assert latency.points == min(length - INIT, 1024)
            assert latency.p99_seconds >= latency.median_seconds > 0


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.filterwarnings("ignore:invalid value encountered")
class TestNonFiniteSolveReplay:
    """Finite-but-overflowing observations: the kernel's short returns.

    Magnitudes near the float64 ceiling make the unguarded stacked solve
    (or its finiteness screen) go non-finite, or a marked column's scalar
    replay raise; the kernel then commits nothing of that run, re-runs the
    rounds before the offending one and returns short, and the engine
    replays that round through the scalar pipelines -- so the kernel engine
    must still equal its ``fleet_kernel_enabled = False`` twin: same
    values, or the same error at the same observation.
    """

    @pytest.fixture
    def returned_short(self, monkeypatch):
        """``(rounds submitted, rounds returned)`` of every short kernel call.

        The engine advances a cohort into its result's planes
        (``_advance_planes``, which ``update_block`` wraps).
        """
        calls = []
        original = FleetKernel._advance_planes

        def spy(kernel, planes, columns=None, clean=None):
            rounds = original(kernel, planes, columns, clean)
            if columns is None and rounds < planes.shape[1]:
                calls.append((planes.shape[1], rounds))
            return rounds

        monkeypatch.setattr(FleetKernel, "_advance_planes", spy)
        return calls

    def warmed_pair(self, data, **engine_kwargs):
        fast, reference = engine_pair(len(data), **engine_kwargs)
        warm = {key: values[: INIT + 20] for key, values in data.items()}
        fast.ingest(warm)
        reference.ingest(warm)
        assert len(fast._absorbed) == len(data)
        return fast, reference

    @pytest.mark.parametrize("chunk", [1, 5, PERIOD])
    def test_overflowing_rounds_replay_to_the_same_values(self, returned_short, chunk):
        """Two 1e308 cells in one round overflow the kernel's screen."""
        data = {f"m-{i}": fleet_series(i) for i in range(6)}
        fast, reference = self.warmed_pair(data)
        keys = list(data)
        block = np.array(
            [data[key][INIT + 20 : INIT + 20 + PERIOD] for key in keys]
        ).T
        block[3, [1, 2]] = 1e308
        block[9, [1, 2]] = -1e308
        block[15, [0, 4]] = 1.2e308
        stopped_at = []
        for start in range(0, PERIOD, chunk):
            rounds = block[start : start + chunk]
            seen = len(returned_short)
            assert_results_equal(
                fast.ingest_grid(keys, rounds), reference.ingest_grid(keys, rounds)
            )
            # The engine resubmits what follows a replayed round, so a
            # later call of the same batch starts past the batch's start.
            stopped_at += [
                start + len(rounds) - submitted + returned
                for submitted, returned in returned_short[seen:]
            ]
        # The kernel really returned short, right at a poisoned round.
        # (Round 9 poisons columns that round 3 already pushed over the
        # monitor's threshold: when they are marked earlier in the same
        # run they are replayed, and nothing is left to stop for.)
        assert {3, 15} <= set(stopped_at) <= {3, 9, 15}
        tail = {key: values[INIT + 20 + PERIOD :] for key, values in data.items()}
        assert_results_equal(
            fast.ingest_columnar(tail), reference.ingest_columnar(tail)
        )
        for key in keys:
            assert without_latency(fast.series_stats(key)) == without_latency(
                reference.series_stats(key)
            )

    @pytest.mark.parametrize("chunk", [1, 4, 12])
    @pytest.mark.parametrize("shift_window", [0, 20])
    def test_poisoned_series_raises_like_the_scalar_engine(
        self, returned_short, chunk, shift_window
    ):
        """Same error, same observation, same per-key progress afterwards."""
        data = {f"m-{i}": fleet_series(i) for i in range(6)}
        fast, reference = self.warmed_pair(data, shift_window=shift_window)
        keys = list(data)
        block = np.array(
            [data[key][INIT + 20 : INIT + 32] for key in keys]
        ).T
        rng = np.random.default_rng(3)
        block[:, 2] = rng.choice([1.7e308, -1.7e308, 1e308, -1e308, 1.0], size=12)
        outcomes = []
        for engine in (fast, reference):
            failure = None
            for start in range(0, 12, chunk):
                try:
                    engine.ingest_grid(keys, block[start : start + chunk])
                except ValueError as error:
                    failure = (start, str(error))
                    break
            outcomes.append(
                (failure, [without_latency(engine.series_stats(key)) for key in keys])
            )
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] is not None, "the stream never poisoned the solver"
        assert returned_short, "the kernel never returned short"
        # Keys ahead of the failing one took the round, the rest did not.
        points = [stats.points for stats in outcomes[0][1]]
        assert points[0] == points[1] == points[2] + 1
        assert points[2] == points[3] == points[4] == points[5]

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "a round whose non-finite hand-back raises commits piece by "
            "piece: every off-kernel cell of the round applies before any "
            "cohort runs, and a cohort to the right of the raising one never "
            "runs its earlier rounds; it passes once a round stages every "
            "cohort and then commits exactly the cells left of the first "
            "rejected one"
        ),
    )
    @pytest.mark.parametrize("case", ["warming", "cohort"])
    def test_a_raising_round_commits_what_the_scalar_engine_commits(self, case):
        """Key ``z`` is right of the raising key ``b``: a warming key
        (takes the raising round, 6 points against the twin's 5) or the
        only member of a 3-iteration cohort (misses the earlier rounds of
        its block, 26 against 28)."""
        period = 8
        rng = np.random.default_rng(0)
        warm = np.sin(np.arange(26)[:, None] * 2 * np.pi / period)
        warm = warm + rng.normal(0, 0.1, (26, 4))
        block = np.sin(np.arange(12)[:, None] * 2 * np.pi / period)
        block = block + rng.normal(0, 0.1, (12, 4))
        block[:, 1] = np.random.default_rng(3).choice(
            [1.7e308, -1.7e308, 1e308, -1e308, 1.0], size=12
        )
        spec = MultiSeriesEngine.for_oneshotstl(period, initialization_length=16).spec
        if case == "cohort":
            params = {**spec.pipeline.decomposer.params, "iterations": 3}
            override = replace(
                spec.pipeline, decomposer=DecomposerSpec("oneshotstl", params)
            )
            spec = replace(spec, overrides={"z": override})
        outcomes = []
        for kernel in (True, False):
            engine = MultiSeriesEngine.from_spec(spec)
            engine.fleet_kernel_enabled = kernel
            engine.ingest_grid(["a", "b", "c"], warm[:, :3])
            engine.ingest_grid(["z"], warm[: 3 if case == "warming" else None, 3:])
            with pytest.raises(ValueError) as error:
                engine.ingest_grid(["a", "b", "c", "z"], block)
            outcomes.append(
                (str(error.value), [engine.series_stats(key).points for key in "abcz"])
            )
        assert outcomes[0] == outcomes[1]


    @pytest.mark.parametrize("shift_window", [0, 20])
    def test_a_short_return_leaves_the_monitor_at_the_clean_prefix(
        self, shift_window
    ):
        """The body folds every round of a run into the monitor, the
        overflowing one and those after it included; returning short
        must leave exactly the moments of the rounds it returns."""
        streams, _scalar, kernel = warm_fleet(6, shift_window=shift_window)
        _streams, _scalar, twin = warm_fleet(6, shift_window=shift_window)
        block = np.array(streams)[:, INIT + 8 : INIT + 8 + 12].T.copy()
        block[5, [1, 2]] = 1e308
        out = kernel.update_block(block)
        assert out.value.shape == (5, 6), "the run did not return short"
        twin.update_block(block[:5])
        # The monitor's count is the column's global_index.
        for name in ("global_index", "monitor_mean", "monitor_m2"):
            array, expected = getattr(kernel, name), getattr(twin, name)
            assert array.tobytes() == expected.tobytes(), name

    def poisoned_after_a_trip(self, block):
        """Column 2 trips the monitor at round 2, then overflows from round 5."""
        rng = np.random.default_rng(3)
        block[2, 2] += 10.0
        block[5:, 2] = rng.choice([1.7e308, -1.7e308, 1e308, -1e308], size=7)
        return block

    def test_marked_column_whose_replay_raises_returns_short(self):
        """Kernel level: nothing of the run commits, the clean prefix does."""
        streams, scalar, kernel = warm_fleet(6)
        block = self.poisoned_after_a_trip(
            np.array(streams)[:, INIT + 8 : INIT + 8 + 12].T.copy()
        )
        replays = []
        original = kernel._replay_marked

        def spy(columns, monitor, values, cuts):
            result = original(columns, monitor, values, cuts)
            replays.append((columns.tolist(), len(values), result[2]))
            return result

        kernel._replay_marked = spy
        out = kernel.update_block(block)
        # The batch itself never stopped: column 2 was marked at round 2,
        # its replay raised at round 7, and the 7-round prefix re-ran.
        assert replays == [([2], 12, 7), ([2], 7, 7)]
        assert out.value.shape == (7, 6)
        for step in range(7):
            for member, model in enumerate(scalar):
                point = model.update(float(block[step, member]))
                assert point.trend == out.trend[step, member]
                assert point.seasonal == out.seasonal[step, member]
                assert point.residual == out.residual[step, member]
        assert_same_model_state(kernel, scalar, range(6))
        # The caller's scalar replay of round 7 is what raises.
        with pytest.raises(ValueError, match="pivot"):
            kernel.extract(2).update(float(block[7, 2]))

    def test_marked_column_replay_raising_matches_the_scalar_engine(
        self, returned_short
    ):
        """Engine level: same error, same observation, same per-key progress."""
        data = {f"m-{i}": fleet_series(i) for i in range(6)}
        fast, reference = self.warmed_pair(data)
        keys = list(data)
        block = self.poisoned_after_a_trip(
            np.array([data[key][INIT + 20 : INIT + 32] for key in keys]).T
        )
        before = fast.series_stats(keys[0]).points
        outcomes = []
        for engine in (fast, reference):
            with pytest.raises(ValueError, match="pivot") as raised:
                engine.ingest_grid(keys, block)
            outcomes.append(
                (
                    str(raised.value),
                    [without_latency(engine.series_stats(key)) for key in keys],
                )
            )
        assert outcomes[0] == outcomes[1]
        assert len(returned_short) == 1 and returned_short[0][0] == 12
        failed_at = returned_short[0][1]
        assert failed_at > 5, "the replay, not the batch screen, stopped the run"
        # Keys ahead of the failing one took the round, the rest did not.
        points = [stats.points - before for stats in outcomes[0][1]]
        assert points == [failed_at + 1] * 2 + [failed_at] * 4


class TestIngestFormsProperty:
    """Every public batch form equals the scalar engine, float for float."""

    KEYS = [f"m-{i}" for i in range(10)]
    _warm = None

    @classmethod
    def warm_state(cls):
        """Snapshot of a fleet past warm-up (built once, restored per example)."""
        if cls._warm is None:
            engine = MultiSeriesEngine.for_oneshotstl(PERIOD)
            engine.ingest(
                {
                    key: fleet_series(i)[: INIT + 12]
                    for i, key in enumerate(cls.KEYS)
                }
            )
            cls._warm = engine.snapshot()
        return cls._warm

    def random_rows(self, rng, cursors, streams):
        """One row batch: rectangular, ragged, or with repeated keys."""
        shape = rng.integers(3)
        chosen = list(
            rng.choice(self.KEYS, size=rng.integers(1, 11), replace=False)
        )
        if shape == 0:  # whole rounds over one key list
            keys = chosen * int(rng.integers(1, 5))
        elif shape == 1:  # whole rounds plus a partial or reshuffled one
            extra = list(rng.permutation(chosen))[: rng.integers(1, len(chosen) + 1)]
            keys = chosen * int(rng.integers(0, 3)) + extra
        else:  # arbitrary interleaving, keys repeat back to back
            keys = list(rng.choice(chosen, size=rng.integers(1, 25)))
        rows = []
        for key in keys:
            value = streams[key][cursors[key] % streams[key].size]
            cursors[key] += 1
            # Every key is live and kernel-absorbed: NaN is a missing cell.
            rows.append((key, float("nan") if rng.random() < 0.05 else float(value)))
        return rows

    @staticmethod
    def as_grids(rows):
        """Rows -> the equivalent ``(round_keys, grid)`` sequence.

        Round k holds every key's k-th occurrence; consecutive rounds over
        one key list stack into a multi-round grid.
        """
        occurrence = {}
        rounds = []
        for key, value in rows:
            seen = occurrence.get(key, 0)
            occurrence[key] = seen + 1
            if seen == len(rounds):
                rounds.append(([], []))
            rounds[seen][0].append(key)
            rounds[seen][1].append(value)
        grids = []
        for round_keys, values in rounds:
            if grids and grids[-1][0] == round_keys:
                grids[-1][1].append(values)
            else:
                grids.append((round_keys, [values]))
        return [(round_keys, np.array(grid)) for round_keys, grid in grids]

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=12, deadline=None)
    def test_all_forms_equal_the_scalar_engine(self, seed):
        rng = np.random.default_rng(seed)
        streams = {
            key: fleet_series(i)[INIT + 12 :] for i, key in enumerate(self.KEYS)
        }
        forms = ("scalar", "rows", "parallel", "dict", "grid")
        engines = {}
        for form in forms:
            engine = MultiSeriesEngine.for_oneshotstl(PERIOD)
            engine.fleet_kernel_enabled = form != "scalar"
            engine.restore(self.warm_state())
            engines[form] = engine
        collected = {form: {key: [] for key in self.KEYS} for form in forms}

        def keep(form, records):
            for record in records:
                collected[form][record.key].append(record.record)

        # One clean full-width round first, so every key is absorbed and
        # later NaN cells reach the kernel instead of the sequential path.
        batches = [[(key, float(streams[key][0])) for key in self.KEYS]]
        cursors = dict.fromkeys(self.KEYS, 1)
        batches += [
            self.random_rows(rng, cursors, streams)
            for _ in range(rng.integers(3, 9))
        ]
        for rows in batches:
            keys = [key for key, _value in rows]
            values = np.array([value for _key, value in rows])
            keep("scalar", engines["scalar"].ingest(rows))
            keep("rows", engines["rows"].ingest(rows))
            keep("parallel", engines["parallel"].ingest_columnar((keys, values)))
            for round_keys, grid in self.as_grids(rows):
                keep(
                    "dict",
                    engines["dict"].ingest(dict(zip(round_keys, grid.T))),
                )
                keep("grid", engines["grid"].ingest_grid(round_keys, grid))
        for form in forms[1:]:
            assert len(engines[form]._absorbed) == len(self.KEYS)
            assert collected[form] == collected["scalar"], form
            for key in self.KEYS:
                assert without_latency(
                    engines[form].series_stats(key)
                ) == without_latency(engines["scalar"].series_stats(key))

    # ------------------------------------------------ cells the scalar path
    # might reject: the same forms against a per-cell ``process`` loop

    ODD, YOUNG = "odd-period", "young"
    _mixed = None

    @classmethod
    def mixed_fleet(cls):
        """``(spec, snapshot)``: ten absorbable keys, one with a period of
        its own (a cohort of one: a group of its own) and one still eight
        points short of its initialization window."""
        if cls._mixed is None:
            base = MultiSeriesEngine.for_oneshotstl(PERIOD).spec
            odd = PipelineSpec(
                decomposer=DecomposerSpec("oneshotstl", {"period": 12}),
                detector=base.pipeline.detector,
            )
            spec = EngineSpec(
                pipeline=base.pipeline,
                overrides={cls.ODD: odd},
                initialization_length=base.initialization_length,
                latency_window=base.latency_window,
            )
            engine = MultiSeriesEngine.from_spec(spec)
            engine.fleet_kernel_enabled = False
            keys = cls.KEYS + [cls.ODD]
            engine.ingest(
                {key: fleet_series(i)[: INIT + 12] for i, key in enumerate(keys)}
            )
            engine.ingest({cls.YOUNG: fleet_series(11)[: INIT - 8]})
            cls._mixed = (spec, engine.snapshot())
        return cls._mixed

    def suspect_batch(self, rng, cursors, streams):
        """``(rows, shape)``: a batch with NaN / infinite cells sprinkled in.

        ``shape`` is ``(rounds, width)`` when the rows are whole rounds
        over one key list (and so also a dict and a grid), else None.
        """
        everyone = self.KEYS + [self.ODD, self.YOUNG]
        chosen = list(rng.choice(everyone, size=rng.integers(1, 13), replace=False))
        if rng.random() < 0.5:
            shape = (int(rng.integers(1, 5)), len(chosen))
            keys = chosen * shape[0]
        else:
            shape = None
            keys = list(rng.choice(chosen, size=rng.integers(1, 30)))
        rows = []
        for key in keys:
            value = float(streams[key][cursors[key] % streams[key].size])
            cursors[key] += 1
            if rng.random() < (0.05 if key in self.KEYS else 0.15):
                value = float(rng.choice([np.nan, np.nan, np.inf, -np.inf]))
            rows.append((key, value))
        return rows, shape

    @staticmethod
    def feed(engine, form, rows, shape):
        """Ingest ``rows`` through one public form; records out, in row order."""
        keys = [key for key, _value in rows]
        values = np.array([value for _key, value in rows])
        if form == "rows" or (shape is None and form != "parallel"):
            return engine.ingest(rows)
        if form == "parallel":
            return engine.ingest_columnar((keys, values)).records()
        grid = values.reshape(shape)
        if form == "dict":
            return engine.ingest(dict(zip(keys[: shape[1]], grid.T)))
        if form == "grid":
            return engine.ingest_grid(keys[: shape[1]], grid).records()
        (result,) = engine.ingest_many([(keys[: shape[1]], grid)])
        return result.records()

    @staticmethod
    def view(engine):
        view = {}
        for key in engine.keys():
            stats = engine.series_stats(key)
            live = stats.status.value == "live"
            forecast = engine.forecast(key, PERIOD).tobytes() if live else None
            view[key] = (stats.status, stats.points, stats.anomalies, forecast)
        return view

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_suspect_cells_equal_the_per_cell_oracle(self, seed):
        """NaN and infinities on absorbed, scalar-path and warming keys.

        The oracle is independent of every batch routine: a twin engine
        that never batches, fed one ``process`` call per cell, where a
        rejected cell ends its batch.  Every form must return the same
        records, raise the same error at the same cell (the per-key
        point counts say which cells applied), and -- being durable --
        come back from a kill-and-reopen in the oracle's state.
        """
        rng = np.random.default_rng(seed)
        spec, warm = self.mixed_fleet()
        everyone = self.KEYS + [self.ODD, self.YOUNG]
        streams = {
            key: fleet_series(i)[INIT + 12 :] for i, key in enumerate(everyone)
        }
        forms = ("rows", "parallel", "dict", "grid", "many")
        with tempfile.TemporaryDirectory() as root:
            oracle = MultiSeriesEngine.from_spec(spec)
            oracle.fleet_kernel_enabled = False
            oracle.restore(warm)
            engines = {}
            for form in forms:
                engine = MultiSeriesEngine.from_spec(spec)
                engine.restore(warm)
                engine.attach_store(f"{root}/{form}")
                engines[form] = engine
            # One clean round over the absorbable keys: NaN on them is a
            # missing cell from here on, on the other two it is suspect.
            batches = [([(key, float(streams[key][0])) for key in self.KEYS], None)]
            cursors = dict.fromkeys(everyone, 1)
            batches += [
                self.suspect_batch(rng, cursors, streams)
                for _ in range(rng.integers(3, 7))
            ]
            for rows, shape in batches:
                expected, failure = [], None
                for key, value in rows:
                    try:
                        expected.append(oracle.process(key, value))
                    except (ValueError, TypeError) as error:
                        failure = (type(error), str(error))
                        break
                reference = self.view(oracle)
                for form, engine in engines.items():
                    try:
                        got, raised = self.feed(engine, form, rows, shape), None
                    except (ValueError, TypeError) as error:
                        got, raised = None, (type(error), str(error))
                    assert raised == failure, form
                    if failure is None:
                        assert got == expected, form
                    assert self.view(engine) == reference, form
            for form, engine in engines.items():
                assert set(self.KEYS) <= set(engine._absorbed)
                # once a round of it has been advanced, the odd-period key
                # is a column of a group of its own
                odd = engine._absorbed.get(self.ODD)
                assert odd is None or odd[0].keys == [self.ODD]
                # killed: no close, no checkpoint -- the log is all there is
                reopened = MultiSeriesEngine.open(f"{root}/{form}")
                assert self.view(reopened) == reference, form
                reopened.close(checkpoint=False)

    def test_a_suspect_cell_on_a_scalar_key_costs_no_absorbed_series_a_detour(
        self, monkeypatch
    ):
        """Cost, pinned by census rather than by clock: one NaN (or one
        infinity) on one key must not send the other absorbed keys of the
        batch through materialize -> scalar ``process`` -> load, which is
        what building these objects means.  The odd-period key is a
        one-column group of its own: its NaN is a missing point the
        kernel imputes, and its infinity is the one cell that takes the
        scalar route, to raise the scalar path's error."""
        spec, warm = self.mixed_fleet()
        engine = MultiSeriesEngine.from_spec(spec)
        engine.restore(warm)
        keys = self.KEYS + [self.ODD]
        block = np.column_stack(
            [fleet_series(i)[INIT + 12 : INIT + 21] for i in range(len(keys))]
        )
        engine.ingest_grid(keys, block[:1])
        assert set(engine._absorbed) == set(keys)
        built = []
        for scalar_type in (OneShotSTL, StreamingPipeline):
            original = scalar_type.__init__

            def counting(self, *args, _original=original, **kwargs):
                built.append(type(self).__name__)
                _original(self, *args, **kwargs)

            monkeypatch.setattr(scalar_type, "__init__", counting)
        gap, poisoned = block[1:5].copy(), block[5:9].copy()
        gap[2, -1] = np.nan
        poisoned[3, -1] = np.inf
        assert engine.ingest_grid(keys, gap).live.all()
        assert built == []
        with pytest.raises(ValueError, match="non-finite"):
            engine.ingest_grid(keys, poisoned)
        assert built == ["OneShotSTL", "StreamingPipeline"]
        points = [engine.series_stats(key).points for key in keys]
        assert points == [points[0]] * len(self.KEYS) + [points[0] - 1]
