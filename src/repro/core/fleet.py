"""Columnar fleet kernel: one array op advances every OneShotSTL series.

A production fleet runs the O(1) online decomposition on thousands of
metrics at once.  Advancing each series through its own Python
:class:`~repro.core.oneshotstl.OneShotSTL` instance pays the interpreter
cost ``n`` times per point; this module instead keeps the *whole fleet's*
state in struct-of-arrays form, with the IRLS-iteration axis stacked next
to the series axis:

* the ``I`` per-iteration incremental solvers of every series are one
  :class:`~repro.solvers.batched_ldlt.BatchedIncrementalLDLT`
  (``(w, w, I, n)`` corrected trailing blocks), the per-iteration trend
  pairs one ``(2, I, n)`` array;
* seasonal buffers, trends, phase counters and the residual monitor's
  Welford mean and m2 (its count is ``global_index``) are contiguous
  ``(n, ...)`` arrays.

The paper's update is ``I`` chained solves per point, and solve ``(i, r)``
-- IRLS iteration ``i`` of round ``r`` -- reads only ``(i - 1, r)`` (its
weights) and ``(i, r - 1)`` (its solver state and trend pair).  Every
column's ``T x I`` grid of solves is therefore independent of every other
column's, each solve is a fixed sequence of elementwise IEEE-754 double
operations -- stage, fold the 13 pattern cells, eliminate, tail-sweep,
back-substitute, reweight, exactly the order the scalar model performs
them in -- and *the order the grid is walked in cannot change a bit*.
A run of ``T`` rounds (:meth:`FleetKernel._advance_run`) has two bodies
that walk it differently and produce the same floats, signs of zeros and
non-finite propagation included:

* the **native run** (:meth:`FleetKernel._run_native`): one call into
  ``advance_run.c``, a C routine beside this module that
  :mod:`repro.core._native` compiles on first use (``-ffp-contract=off``,
  never ``-ffast-math``) and loads with ``ctypes``.  The call takes two
  pointers: one of the kernel's two side structures (its state's
  addresses and its configuration, one per side of the ping-pong, built
  once and rebuilt only when growing the columns replaces an array) and
  the run's (rounds, width, columns, planes).  It walks the grid
  column-chunk by column-chunk, round by round, iteration by iteration,
  with a chunk's ``I x 22`` doubles of state in cache for the whole run
  -- the computation moved to where the state lives, instead of the whole
  ``(6, 7, I, n)`` workspace swept past one NumPy operator at a time.
  One iteration is written once, with every cell of the augmented block
  a local, and instantiated at two widths: 16 columns a chunk, and one
  for a one-column run and a chunk's short ragged tail.  A run wide
  enough (a measured cut in chunks times rounds) is split between the
  calling thread and one helper thread per process, which the routine
  starts on first need and keeps off the caller's CPU; each chunk runs
  once, on whichever thread claims it, so the split cannot change a bit
  either.
  After a round's last iteration it also scores the round's residual
  against the residual monitor and folds it in, the chunk's Welford
  moments in lanes for the whole run (``sqrt`` is correctly rounded by
  IEEE 754, like ``+ - * /``, so it cannot change a bit either).
  Lanes are vector elements, so the compiler vectorises across columns
  only; there is no reduction anywhere.  On x86-64 glibc the routine is
  built as AVX-512F, AVX2 and baseline clones and the dynamic loader
  picks the widest this CPU runs, once, when the library is opened; every
  operation is correctly rounded per lane, so neither the width nor the
  clone can change a bit.  A clean run is committed before the call
  returns.
* the **NumPy wavefront** (:meth:`FleetKernel._run_wavefront`), the
  *reference schedule*: all solves on an anti-diagonal ``i + r = s`` are
  independent, so a run advances in ``T + I - 1`` steps, each one stacked
  extend -> eliminate -> tail-solve -> reweight over the slab of
  iterations active on that diagonal
  (:meth:`~repro.solvers.batched_ldlt.BatchedIncrementalLDLT.extend_solve`),
  then the monitor scores and folds round by round.  It is what the
  native body is checked against and what runs on a machine without a C
  compiler.

Which body a process runs is decided once, from what the machine has, by
:func:`kernel_backend` at the first kernel construction: compiler found,
source built and loaded, and a fixed small run reproduced bit for bit --
else the wavefront, with a warning.  There is no option, argument or
environment variable to select one; ``/health`` and the serving start-up
line report the choice.  ``T = 1`` and ``I = 1`` are the degenerate cases
of either body.  The scalar :class:`~repro.core.oneshotstl.OneShotSTL`
stays pure Python on purpose: it is the independent oracle both bodies
are tested against -- the oracle tests assert float-for-float equality,
shift searches and all, under each.

A run advances any member subset of the kernel -- all columns, or the
columns its caller names, in any order -- *in place*: both bodies read
and write each member's state at its own column, and every other column
is left alone, so a subset costs its width, not a gather of a sub-kernel
and a scatter back.  A run commits once, at its end; until then the
committed state is the pre-run state.  (The residual monitor's moments
are the exception: the body folds every round into them in place, after
saving each member's pre-run moments, and a run that returns short puts
those back.)  The body commits a clean run itself -- no round went
non-finite, and no score passed the threshold where tripped columns are
searched -- so a clean run is one body call; otherwise it reports which
round went non-finite and whether a score passed the threshold.  A
series whose residual monitor
trips mid-run is only *marked*: the run finishes for everyone, and
before the commit the marked
columns are gathered from the pre-run state into one *narrow* kernel that
advances the run again itself, cut into shorter runs at the rounds that
tripped (:meth:`FleetKernel._replay_marked`), and is scattered back over
their speculative results.  A one-round run that trips is the base case,
and there the paper's seasonality-shift search (Section 3.4) is a kernel
run too: its ``2H + 1`` trials start from one pre-point state and differ
only in the seasonal anchor ``v[(t + c) mod T]``, so the tripped columns x
their candidate shifts are the columns of one stacked ``T = 1`` solve
(:meth:`FleetKernel._search_shifts`) -- one native call (``I`` wavefront
steps), not ``(2H + 1) x I`` scalar advances on copies.  The scalar
:func:`repro.core.oneshotstl._search_best_shift` is not called from here;
it stays the sequential reference the oracle tests compare against.

A series is on the kernel from its first online point.  The solver is
born in the Schur form the stacked state holds (a fresh block is ``w``
phantom unit pivots, see :mod:`repro.solvers.incremental_ldlt`), and the
two points that lack one or both trend-difference terms keep the
steady-state update pattern with those terms' weights gated to ``0.0``:
every skipped entry then lands as ``+0.0`` on a real cell or on a phantom
diagonal (``1.0 + 0.0``), or as ``-0.0`` on a cell that is ``+0.0``
(``+0.0 + -0.0 = +0.0``) -- bitwise the scalar model's reduced pattern.

The kernel is deliberately dumb about membership: it packs initialized
scalar models (:meth:`FleetKernel.pack`), builds fresh equivalent scalar
models of any members (:meth:`FleetKernel.extract_many`; nothing is ever
written back into an existing model), takes one back
(:meth:`FleetKernel.load`), and advances all or a subset of columns
(:meth:`FleetKernel.update_block`).  The arrays a column is made of are
declared once, in ``FleetKernel.COLUMNS`` (and the solver's): that list
is a store segment's section list, and :mod:`repro.utils.columns` walks
it for every gather, scatter, append, segment round trip and 1:1 scalar
copy.  Grouping series by configuration, absorption and which boundary
needs scalar state at all live in the streaming engine
(:mod:`repro.streaming.engine`).
"""

from __future__ import annotations

import ctypes
import math
import warnings
from itertools import chain
from typing import Mapping, Sequence

import numpy as np

from repro.core import _native
from repro.core.nsigma import DEFAULT_MINIMUM_STD, NSigma
from repro.core.oneshotstl import OneShotSTL, _IterationState
from repro.analysis import hotpath
from repro.core.online_system import HALF_BANDWIDTH, ContributionWorkspace
from repro.solvers.batched_ldlt import BatchedIncrementalLDLT
from repro.utils import columns as columnar
from repro.utils.columns import Array, Part

__all__ = ["FleetKernel", "FleetUpdate", "kernel_backend"]

#: local trailing-block coordinates of the per-point update pattern
#: (ContributionWorkspace offsets shifted to the appended trend variable,
#: which always sits at local index ``HALF_BANDWIDTH``).
_PATTERN_ROWS = HALF_BANDWIDTH + ContributionWorkspace._ROW_OFFSETS
_PATTERN_COLS = HALF_BANDWIDTH + ContributionWorkspace._COL_OFFSETS

#: ceiling on the rounds advanced per run of :meth:`FleetKernel.
#: update_block`.  Runs must not exceed ``period`` (a longer run would
#: read a seasonal slot an earlier round of the same run wrote); the
#: constant additionally bounds the run workspaces for huge periods.
_MAX_BLOCK_ROUNDS = 64
#: ``r`` in row ``r``, ``0 <= r <= _MAX_BLOCK_ROUNDS``: a run's round offsets
_ROUND_OFFSETS = np.arange(_MAX_BLOCK_ROUNDS + 1)[:, None]

#: The native body of a run -- ``(advance_run, advance_commit,
#: scratch_doubles, helped)``, the ``ctypes`` functions of
#: ``advance_run.c`` -- or None for the NumPy wavefront.  Written once, by
#: :func:`kernel_backend`;
#: the test suite runs every oracle under both bodies by patching this one
#: attribute.
_native_run: tuple | None = None
#: :func:`kernel_backend`'s answer, None until the body has been chosen
_backend: dict | None = None
#: native runs :func:`_same_bits` makes at most for the helper thread to
#: take part in one (on an idle 2-vCPU machine it runs a chunk of nearly
#: every one)
_HELPED_TRIES = 20
#: what a body returns for a run it committed (see :meth:`FleetKernel.
#: _solve_run`), and what the native one returns for a committed
#: full-width run before the kernel flips its sides
_COMMITTED, _FLIP = _native.COMMITTED, _native.FLIP
#: the per-column arrays a :class:`~repro.core._native.Side` points into
#: under their own names
_PER_COLUMN = (
    "global_index",
    "points_processed",
    "last_detection_residual",
    "monitor_mean",
    "monitor_m2",
)

#: what :meth:`FleetKernel.select` hands a gathered copy as it is: the
#: configuration and what the constructor derives from it (the shift
#: table, the pair steps), immutable, and the native scratch, which holds
#: nothing between runs
_SHARED = (
    "period",
    "lambda1",
    "lambda2",
    "iterations",
    "shift_window",
    "shift_threshold",
    "epsilon",
    "_pair_steps",
    "_pair_iterations",
    "_shifts",
    "_scratch",
)


def kernel_backend() -> dict:
    """Which body advances a run in this process, and why.

    ``{"body": "native" | "numpy", "reason", "compiler", "flags",
    "vector"}``; ``vector`` is the ISA clone of the native routine this
    CPU dispatches to (``"avx512f"``, ``"avx2"``, ``"default"``; None when
    no library loaded), whichever body was chosen.  The first call -- the
    first :class:`FleetKernel` constructed, if nobody asked earlier --
    chooses, for the life of the process and from what the machine has
    alone: the native body when a C compiler is on PATH, ``advance_run.c``
    builds and loads (:mod:`repro.core._native`) and a fixed small run
    comes out of it bit for bit as it comes out of the NumPy wavefront;
    else the wavefront, with one warning.  No option, argument or
    environment variable selects a body.
    """
    global _native_run, _backend
    if _backend is None:
        routines, report = _native.load()
        # The wavefront, unless the native body proves itself (the check
        # builds kernels, which must find the choice already made).
        _backend = {"body": "numpy", **report}
        if routines is not None:
            try:
                failure = None if _same_bits(routines) else "different bits"
            except Exception as error:  # a library that cannot even be called
                failure = f"{type(error).__name__}: {error}"
            if failure is None:
                _native_run = routines
                _backend["body"] = "native"
            else:
                _backend["reason"] = (
                    "self-check failed: the compiled advance_run does not "
                    "reproduce the NumPy wavefront bit for bit "
                    f"({failure}; {report['reason']})"
                )
        if _native_run is None:
            warnings.warn(
                "repro fleet kernel: running the NumPy wavefront, several "
                f"times slower than the native body -- {_backend['reason']}",
                RuntimeWarning,
                stacklevel=2,
            )
    return dict(_backend)


def _same_bits(routines: tuple) -> bool:
    """Solve one fixed small run under both bodies; whether every bit agrees.

    163 of 168 columns, in a shuffled order -- ten full chunks of the
    routine's 16 lanes and a ragged tail of 3, so a chunk at a non-zero
    base and the spare lanes of a last chunk are both exercised, and every
    gather and scatter goes through the run's column list -- aged 0, 1
    and 7 points in turn take a four-round run (both gated patterns, the
    steady one, later rounds), 44 chunk-rounds, past the cut from which
    the routine splits a run with its helper thread.  The state is a
    made-up positive definite one that differs in every cell, iteration
    and column, so a transposed index cannot hide.  The residual monitor's
    moments differ in every column too, and its counts (``global_index``,
    set apart from the gating ages) reach far past the run's length: some
    have seen nothing (score 0.0) and some have no spread (a floored
    standard deviation, a score far past the threshold).  The six planes,
    the status, the saved moments and every committed section of the
    kernel after the run -- the body commits it -- are compared as bytes,
    signs of zeros included.  Which chunks the helper takes is the
    scheduler's to say, so the native run is made afresh, up to
    :data:`_HELPED_TRIES` times, until the helper has run a chunk of one
    (at once in a process without a helper: one allowed CPU).
    """
    n_rounds, n_iterations, n = 4, 3, 168
    params = {
        "period": 4, "lambda1": 2.0, "lambda2": 3.0, "iterations": n_iterations,
        "shift_window": 0, "shift_threshold": 5.0, "epsilon": 1e-8,
    }  # fmt: skip
    ramp = np.arange(16.0 * n_iterations * n).reshape(4, 4, n_iterations, n)
    # Entries below 0.5 and a diagonal above 2: diagonally dominant.
    blocks = (ramp + ramp.transpose(1, 0, 2, 3)) / (4.0 * ramp.size)
    blocks[np.arange(4), np.arange(4)] += 2.0
    ages = np.resize([0, 1, 7], n)
    counts = np.resize([0, 3, 40, 9, 1], n)
    spreads = np.resize([0.5, 0.0, 2.0, 0.1], n) * (1.0 + np.arange(n) / n)
    state = {
        "seasonal_buffer": np.sin(np.arange(4.0 * n)).reshape(n, 4),
        "global_index": counts,
        "points_processed": ages,
        "last_detection_residual": np.zeros(n),
        "last_applied_shift": np.zeros(n, dtype=np.int64),
        "trend_pairs": np.sin(np.arange(2.0 * n_iterations * n)).reshape(2, -1, n),
        "solver_blocks": blocks,
        "solver_rhs": np.cos(np.arange(4.0 * n_iterations * n)).reshape(4, -1, n),
        "monitor_mean": np.cos(np.arange(n) * 0.9),
        "monitor_m2": spreads * counts,
    }
    columns = np.random.default_rng(0).permutation(n)[:163]

    def image(body) -> bytes:
        kernel = FleetKernel.from_arrays(params, state)
        planes = np.empty((6, n_rounds, columns.size))
        planes[0] = 3.0 * np.sin(np.arange(planes[0].size) * 0.7).reshape(n_rounds, -1)
        status = kernel._solve_run(body, planes, 0, n_rounds, columns)
        saved = kernel._saved_space(columns.size)
        arrays = (planes, saved, *kernel.to_arrays().values())
        return repr(status).encode() + b"".join(
            np.ascontiguousarray(array).tobytes() for array in arrays
        )

    expected = image(None)
    helped = routines[3]
    for _ in range(_HELPED_TRIES):
        before = helped()
        if image(routines) != expected:
            return False
        after = helped()
        if after < 0 or after > before:
            break
    return True


def _address(array: np.ndarray) -> int:
    """``array.ctypes.data`` at a third of the cost.

    ``ctypes`` reads the address off a zero-copy view of the buffer; an
    array the buffer protocol will not export writable and whole (rows
    with gaps, read-only, empty) takes the slow way.
    """
    try:
        return ctypes.addressof(ctypes.c_char.from_buffer(array))
    except (TypeError, ValueError, BufferError):
        return array.ctypes.data


def _screen(trend: np.ndarray, seasonal: np.ndarray) -> np.ndarray:
    """Per round of a run's ``(rounds, m)`` trend and seasonal planes,
    whether the sum of its trends plus the sum of its seasonals is finite,
    each summed in run order (``np.cumsum`` is sequential), as the native
    body sums them: a NaN, an infinity or an overflow makes a round bad."""
    trends = np.cumsum(trend, axis=1)[:, -1]
    return np.isfinite(trends + np.cumsum(seasonal, axis=1)[:, -1])


def _row_stride(block: np.ndarray) -> int:
    """Elements between the rows of a 2-D float64 block with contiguous rows."""
    row_bytes, item_bytes = block.strides
    if (
        block.dtype != np.float64
        or (block.shape[1] > 1 and item_bytes != 8)
        or row_bytes % 8
    ):
        raise ValueError("a native run needs float64 blocks with contiguous rows")
    return row_bytes // 8


def _native_side(committed: tuple, working: tuple, common: dict) -> _native.Side:
    """One orientation of a kernel's state: ``committed`` and ``working``
    are the ``(blocks, rhs, trend pairs)`` of the side a run reads and of
    the side it writes, ``common`` the fields every orientation shares."""
    blocks_in, rhs_in, pairs_in = committed
    blocks_out, rhs_out, pairs_out = working
    return _native.Side(
        *map(_address, (blocks_in, rhs_in, blocks_out, rhs_out)),
        blocks_in.shape[-1],
        _address(pairs_in),
        _address(pairs_out),
        pairs_in.shape[-1],
        **common,
    )


class _Handle:
    """A kernel's way into the native body: the addresses of the
    :class:`~repro.core._native.Side` of its committed orientation
    (``side``) and of the other one (``other``), the
    :class:`~repro.core._native.Run` each run fills in (``run``, at
    ``run_at``), and everything they point into, kept alive."""

    __slots__ = "side", "other", "run", "run_at", "_keep"

    def __init__(self, orientations: list, run, arrays: tuple):
        self.side, self.other = map(ctypes.addressof, orientations)
        self.run = run
        self.run_at = ctypes.addressof(run)
        self._keep = orientations, arrays


def _welford_score(
    values: np.ndarray,
    count: np.ndarray,
    mean: np.ndarray,
    m2: np.ndarray,
    minimum_std: float = DEFAULT_MINIMUM_STD,
) -> np.ndarray:
    """The z-scores of ``values`` against Welford moments of ``count``
    points each, without updating them: :meth:`NSigma.score`'s operations,
    per element (0.0 where nothing has been seen yet)."""
    variance = m2 / np.maximum(count, 1)
    std = np.sqrt(np.maximum(variance, 0.0))
    std = np.maximum(std, minimum_std)
    scores = np.abs(values - mean) / std
    # A scorer that has seen nothing yet returns (0.0, False), exactly
    # like the scalar scorer's count == 0 guard.
    fresh = count == 0
    if fresh.any():
        scores = np.where(fresh, 0.0, scores)
    return scores


def _welford_fold(
    values: np.ndarray, count: np.ndarray, mean: np.ndarray, m2: np.ndarray
) -> None:
    """Fold ``values`` into ``mean`` and ``m2`` in place, ``count`` being
    the points each holds *after* the fold: :meth:`NSigma.update_stats`'s
    operations, per element."""
    delta = values - mean
    mean += delta / count
    m2 += delta * (values - mean)


class ColumnarNSigma:
    """Struct-of-arrays form of ``n`` independent :class:`NSigma` scorers.

    All members must share ``threshold`` and ``minimum_std`` (they come
    from one pipeline spec).  ``score``/``update`` vectorize the scalar
    scorer's exact operation sequence over the series axis, so scores and
    verdicts equal the scalar scorers' exactly (the fleet kernel's
    monitor runs the same two functions on two of its own columns).
    """

    def __init__(self, threshold: float, minimum_std: float):
        """Shared parameters only: :meth:`pack` sets the moments."""
        self.threshold = float(threshold)
        self.minimum_std = float(minimum_std)

    @classmethod
    def pack(cls, scorers: Sequence[NSigma]) -> "ColumnarNSigma":
        """Lift scalar scorers into columnar form (scalars left untouched)."""
        if not scorers:
            raise ValueError("pack() needs at least one scorer")
        threshold, minimum_std = scorers[0].threshold, scorers[0].minimum_std
        for index, scorer in enumerate(scorers):
            if (scorer.threshold, scorer.minimum_std) != (threshold, minimum_std):
                raise ValueError(
                    f"scorer {index} has different parameters; a columnar "
                    "batch requires a uniform threshold and minimum_std"
                )
        monitor = cls(threshold, minimum_std)
        monitor.count = np.array([each._count for each in scorers], np.int64)
        monitor.mean = np.array([each._mean for each in scorers], float)
        monitor.m2 = np.array([each._m2 for each in scorers], float)
        return monitor

    @hotpath
    def score(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Score without updating; returns ``(scores, is_anomaly)`` arrays."""
        minimum_std = self.minimum_std
        scores = _welford_score(values, self.count, self.mean, self.m2, minimum_std)
        return scores, scores > self.threshold

    @hotpath
    def update(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Score then fold ``values`` into the running Welford statistics."""
        scores, flags = self.score(values)
        self.count += 1
        _welford_fold(values, self.count, self.mean, self.m2)
        return scores, flags

    @hotpath
    def update_block(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Score-and-update a ``(rounds, n)`` block, one round at a time.

        The Welford recurrence is sequential across rounds, so each round
        replays :meth:`update`'s exact operation order; the stacked
        ``(rounds, n)`` scores and verdicts equal per-round calls float
        for float.
        """
        scores = np.empty(values.shape)
        flags = np.empty(values.shape, dtype=bool)
        for index, row in enumerate(values):
            scores[index], flags[index] = self.update(row)
        return scores, flags


class FleetUpdate:
    """Per-point outputs of one :meth:`FleetKernel.update_block` call.

    All fields are ``(rounds, n)`` arrays over the updated columns, in
    column order: ``value`` carries the (possibly imputed) observation,
    ``residual`` the post-shift-search residual, ``detection_residual``
    the pre-search residual that downstream anomaly scorers must consume
    (the same contract as the scalar model's ``last_detection_residual``)
    and ``score`` its z-score against the monitor before the point.
    """

    __slots__ = "value", "trend", "seasonal", "residual", "detection_residual", "score"

    def __init__(self, value, trend, seasonal, residual, detection_residual, score):
        self.value = value
        self.trend = trend
        self.seasonal = seasonal
        self.residual = residual
        self.detection_residual = detection_residual
        self.score = score


class FleetKernel:
    """Columnar OneShotSTL state for ``n`` series sharing one configuration.

    Use :meth:`pack` to build a kernel from live scalar models; all members
    must share the constructor hyper-parameters (they normally come from
    one :class:`~repro.specs.PipelineSpec`), be initialized -- with any
    number of online points behind them, none included -- and use the
    default (non-custom) initializer path.  :meth:`eligible` reports
    whether a model can be packed.
    """

    #: A member's state, in segment order: the seasonal buffer and the
    #: scalar model's bookkeeping (1:1 with its attributes), the
    #: per-iteration ``(before_previous, previous)`` trend pairs, the
    #: solver's (``solver_*``), then the residual monitor's moments.
    #: Derived, not stored: :attr:`last_trend`, each solver's size, ``2 *
    #: points_processed``, and the monitor's count, ``global_index``
    #: (``initialize`` folds ``W`` residuals and sets the index to ``W``;
    #: every point adds one to both).
    COLUMNS = (
        Array("seasonal_buffer", float, cell=("T",), scalar="_seasonal_buffer"),
        Array("global_index", np.int64, scalar="_global_index"),
        Array("points_processed", np.int64, scalar="_points_processed"),
        Array("last_detection_residual", float, scalar="_last_detection_residual"),
        Array("last_applied_shift", np.int64, scalar="_last_applied_shift"),
        Array("trend_pairs", float, -1, (2, "I")),
        Part("solver", BatchedIncrementalLDLT, "solver_"),
        Array("monitor_mean", float),
        Array("monitor_m2", float),
    )

    def __init__(self, params: dict, n_series: int):
        self.period = int(params["period"])
        self.lambda1 = float(params["lambda1"])
        self.lambda2 = float(params["lambda2"])
        self.iterations = int(params["iterations"])
        self.shift_window = int(params["shift_window"])
        self.shift_threshold = float(params["shift_threshold"])
        self.epsilon = float(params["epsilon"])
        self._n = int(n_series)
        self._arange: np.ndarray | None = None
        # (step, iteration) coordinates of every iteration's pre-run trend
        # pair in the skewed trend history of a run (see _advance_run);
        # shifted by the run length they address the post-run pair.
        iteration_axis = np.arange(self.iterations)
        self._pair_steps = np.stack([iteration_axis, iteration_axis + 1])
        self._pair_iterations = np.stack([iteration_axis, iteration_axis])
        # Candidate shifts of the Section 3.4 search in the scalar order
        # [0, -H..-1, 1..H].  A candidate whose anchor phase ``c mod
        # period`` repeats an earlier one is the same trial and can never
        # win the scalar's strict ``<``, so each phase is kept once, at its
        # first occurrence (2H + 1 > period leaves ``period`` candidates).
        window = self.shift_window
        by_phase: dict[int, int] = {}
        for shift in chain((0,), range(-window, 0), range(1, window + 1)):
            by_phase.setdefault(shift % self.period, shift)
            if len(by_phase) == self.period:
                break  # every phase has its first occurrence
        self._shifts = np.array(list(by_phase.values()))
        # Run workspaces (allocated lazily, sized to the widest run seen):
        # purely an allocation-avoidance cache -- no decomposition state
        # lives here between runs.  The native body's scratch depends on
        # the iteration count alone, so a gathered sub-kernel shares it.
        self._workspaces: tuple | None = None
        self._pairs_out: np.ndarray | None = None
        self._saved: np.ndarray | None = None
        self._scratch: np.ndarray | None = None
        #: the native body's :class:`_Handle` into this kernel's arrays,
        #: built by the first native run; dropped whenever an array it
        #: points into is replaced
        self._handle: _Handle | None = None
        if _backend is None:
            kernel_backend()

    def _rows(self) -> np.ndarray:
        """``np.arange(n_series)`` (cached; used for per-series gathers)."""
        rows = self._arange
        if rows is None or rows.size != self._n:
            self._arange = rows = np.arange(self._n)
        return rows

    # ----------------------------------------------------------- construction

    @staticmethod
    def eligible(model) -> bool:
        """Whether ``model`` is an initialized default-initializer OneShotSTL
        whose residual monitor is what a column derives: counted by its
        ``global_index``, threshold ``shift_threshold``, default minimum_std."""
        return (
            type(model) is OneShotSTL
            and model._initialized
            and model._initializer is None
            and model._residual_monitor._count == model._global_index
            and model._residual_monitor.threshold == model.shift_threshold
            and model._residual_monitor.minimum_std == DEFAULT_MINIMUM_STD
        )

    @classmethod
    def pack(cls, models: Sequence[OneShotSTL]) -> "FleetKernel":
        """Lift initialized scalar models into one columnar kernel.

        The scalar instances are left untouched (their state is copied); a
        member that later needs scalar form is built afresh by
        :meth:`extract_many`.
        """
        if not models:
            raise ValueError("pack() needs at least one model")
        reference = models[0].get_params()
        for index, model in enumerate(models):
            if not cls.eligible(model):
                raise ValueError(
                    f"model {index} is not packable (must be an initialized "
                    "OneShotSTL without a custom initializer, its residual "
                    "monitor one a column derives, see eligible())"
                )
            if model.get_params() != reference:
                raise ValueError(
                    f"model {index} has different hyper-parameters; a fleet "
                    "kernel requires a uniform configuration"
                )
        kernel = cls(reference, len(models))
        columnar.pack(kernel, models)
        monitors = [model._residual_monitor for model in models]
        kernel.monitor_mean = np.array([each._mean for each in monitors], float)
        kernel.monitor_m2 = np.array([each._m2 for each in monitors], float)
        members = [model._iterations_state for model in models]
        kernel.solver = BatchedIncrementalLDLT.pack(
            [[state.solver for state in states] for states in members]
        )
        pairs = [
            [(state.before_previous_trend, state.previous_trend) for state in states]
            for states in members
        ]
        kernel._trend_pairs = np.array(pairs, dtype=float).transpose(2, 1, 0).copy()
        return kernel

    @staticmethod
    def _sizes(params: Mapping) -> dict:
        """The cell dimensions :attr:`COLUMNS` names -- period ``T``,
        iterations ``I``, half bandwidth ``w`` -- from ``params``, which
        may come off a disk: not a parameter set at all raises."""
        period, iterations = int(params["period"]), int(params["iterations"])
        if period < 1 or iterations < 1 or int(params["shift_window"]) < 0:
            raise ValueError(f"not a kernel parameter set: {dict(params)}")
        return {"T": period, "I": iterations, "w": HALF_BANDWIDTH}

    @classmethod
    def _empty(cls, params: Mapping, n: int) -> "FleetKernel":
        """A kernel of ``params`` for ``n`` members whose state the caller
        sets (:func:`repro.utils.columns.from_arrays`)."""
        kernel = cls(dict(params), n)
        kernel.solver = BatchedIncrementalLDLT(HALF_BANDWIDTH, kernel.iterations, n)
        return kernel

    def _blank(self, n: int) -> "FleetKernel":
        """Shares :data:`_SHARED` instead of re-deriving it: a narrow
        advance costs O(width), not O(configuration)."""
        kernel = FleetKernel.__new__(FleetKernel)
        state = vars(self)
        vars(kernel).update({name: state[name] for name in _SHARED})
        kernel._n = n
        kernel._arange = kernel._workspaces = kernel._pairs_out = kernel._saved = None
        kernel._handle = None
        return kernel

    def __getstate__(self) -> dict:
        """The attributes but the native run's handle: it would point into
        the arrays of the kernel this one was copied from."""
        return {**vars(self), "_handle": None}

    @property
    def n_series(self) -> int:
        return self._n

    @property
    def trend_pairs(self) -> np.ndarray:
        """Per-iteration ``(before_previous, previous)`` trends, ``(2, I, n)``:
        a live view of the capacity buffer."""
        return self._trend_pairs[..., : self._n]

    @property
    def last_trend(self) -> np.ndarray:
        """Each member's most recent trend, ``(n,)``: a read-only view of
        its last iteration's previous trend, which it always equals."""
        view = self._trend_pairs[1, -1, : self._n]
        view.flags.writeable = False
        return view

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
        return self.extract_many([index])[0]

    def extract_many(self, columns: Sequence[int] | np.ndarray) -> list[OneShotSTL]:
        """Materialize the members at ``columns`` as fresh scalar models.

        Every per-series state array is gathered once and bulk-converted
        (``ndarray.tolist()`` yields exact Python scalars), and the
        per-iteration solvers come out of
        :meth:`BatchedIncrementalLDLT.extract_many`, so building one
        cohort of a large fleet touches only that cohort's columns.  The
        models own their state (nothing aliases the kernel) and carry
        their attributes in the order :meth:`OneShotSTL.initialize` sets
        them, so they pickle like models that were never packed.
        """
        columns = np.asarray(columns, dtype=np.intp)
        params = self.get_params()
        pairs = self.trend_pairs[..., columns].transpose(2, 1, 0).tolist()
        means = self.monitor_mean[columns].tolist()
        m2s = self.monitor_m2[columns].tolist()
        models = []
        for mean, m2, solvers, member_pairs in zip(
            means, m2s, self.solver.extract_many(columns), pairs
        ):
            model = OneShotSTL(**params)
            # initialize()'s attributes in its order, kept by the writes below
            vars(model).update(dict.fromkeys(OneShotSTL._STATE), _initialized=True)
            monitor = model._residual_monitor = NSigma(self.shift_threshold)
            monitor._mean, monitor._m2 = mean, m2
            model._iterations_state = [
                _IterationState(solver, previous, before_previous)
                for solver, (before_previous, previous) in zip(solvers, member_pairs)
            ]
            model._workspace = ContributionWorkspace(self.lambda1, self.lambda2)
            models.append(model)
        columnar.unpack(self, columns, models)
        for model in models:  # the derived facts
            model._residual_monitor._count = model._global_index
            states = model._iterations_state
            model._last_trend = states[-1].previous_trend
            for state in states:
                state.solver.size = 2 * model._points_processed
        return models

    def forecast(self, index: int, horizon: int) -> np.ndarray:
        """Member ``index``'s next ``horizon`` values, read off its column.

        The same gather and the same add as :meth:`OneShotSTL.forecast`.
        """
        positions = (self.global_index[index] + np.arange(horizon)) % self.period
        return self.last_trend[index] + self.seasonal_buffer[index, positions]

    def load(self, index: int, model: OneShotSTL) -> None:
        """Overwrite member ``index`` with a scalar model's state."""
        columnar.load(self, index, model)
        self.monitor_mean[index] = model._residual_monitor._mean
        self.monitor_m2[index] = model._residual_monitor._m2
        states = model._iterations_state
        self.solver.load(index, [state.solver for state in states])
        self.trend_pairs[..., index] = [
            [state.before_previous_trend for state in states],
            [state.previous_trend for state in states],
        ]

    # ------------------------------------------------------ batch membership

    def append(self, other: "FleetKernel") -> None:
        """Append the members of ``other`` (same configuration required),
        amortized: every declared array carries spare capacity, doubled
        when exhausted, so a trickle of late joiners costs O(total)."""
        if other.get_params() != self.get_params():
            raise ValueError("configuration mismatch between fleet kernels")
        columnar.append(self, other)
        self._n += other._n
        self._handle = None  # the arrays are new objects

    #: Gathered copies of members (only their columns are copied), the
    #: scatter back, and the committed state as named arrays -- live, not
    #: copies (a :meth:`select` is the copy to ship); with
    #: :meth:`get_params` they are everything :meth:`from_arrays` needs.
    select = columnar.select
    assign = columnar.assign
    to_arrays = columnar.to_arrays

    @classmethod
    def from_arrays(
        cls, params: Mapping, arrays: Mapping[str, np.ndarray]
    ) -> "FleetKernel":
        """Inverse of :meth:`to_arrays`: a kernel that owns copies, and no
        scalar model built on the way.  ``params`` and ``arrays`` may come
        off a disk: anything but exactly the declared sections, in the
        shapes ``params`` implies, raises ``ValueError`` (``KeyError`` /
        ``TypeError`` for ``params`` that are not a parameter set at all)
        before anything is sized from ``params``."""
        index = arrays.get("global_index")
        n = len(index) if index is not None and index.ndim == 1 else 0
        return columnar.from_arrays(
            cls, arrays, n, cls._sizes(params), lambda: cls._empty(params, n)
        )

    # -------------------------------------------------------------- streaming

    @hotpath
    def update_block(
        self, values: np.ndarray, columns: np.ndarray | None = None
    ) -> FleetUpdate:
        """Decompose a ``(rounds, m)`` block of observations.

        Semantically identical (float for float, shift searches and all)
        to advancing every member's scalar :class:`OneShotSTL` once per row
        of ``values``, but the rounds advance in *runs* of up to
        ``min(period, 64)`` rounds, each on the wavefront schedule of
        :meth:`_advance_run` and committed once, at its end.  What ends a
        run early, and what does not:

        * a round with missing observations is imputed from live state
          (latest trend + seasonal buffer at the current phase, exactly
          like the scalar model) and advances as a one-round run;
        * a member that trips the seasonality-shift search does *not* end
          the run: the marked members are replayed together, as one narrow
          kernel gathered from the pre-run state, before the commit --
          their candidate shifts searched as columns of a stacked solve in
          the rounds that trip -- while the rest of the run keeps its
          batched results;
        * a round that goes non-finite under the unguarded solves -- in
          the run, in a replay or in any *candidate* of a search -- ends
          the *call*: nothing of that run is committed, its clean prefix
          is re-run, the returned arrays then cover only the rounds before
          the offending one, the kernel holds exactly the state after
          those rounds, and the caller must advance that round member by
          member through the scalar models (:meth:`extract` /
          :meth:`load`) -- which is by definition the scalar behavior,
          pivot errors included -- before submitting the rest.

        ``columns`` restricts the advance to a subset of members, in any
        order (no repeats: a member advances once per round); ``values``
        column ``j`` is member ``columns[j]``'s.  The subset advances in
        place: the run reads and writes those columns of the kernel's own
        state, and every other column is left as it was, byte for byte.
        The returned :class:`FleetUpdate` carries ``(rounds advanced, m)``
        arrays.
        """
        values = np.asarray(values, dtype=float)
        if columns is not None:
            columns = self._members(columns)
        width = self._n if columns is None else columns.size
        if values.ndim != 2 or values.shape[1] != width:
            raise ValueError(f"values must have shape (rounds, {width})")
        planes = np.empty((6,) + values.shape)
        planes[0] = values
        rounds = self._advance_planes(planes, columns) if width else len(values)
        return FleetUpdate(*planes[:, :rounds])

    def _members(self, columns) -> np.ndarray:
        """``columns`` as the run's int64 column list, checked: every run
        reads and writes the kernel's arrays at exactly these positions."""
        columns = np.asarray(columns, dtype=np.int64).reshape(-1)
        listed = columns.tolist()
        n = self._n
        if listed and not (-n <= min(listed) and max(listed) < n):
            raise IndexError(f"columns must lie in [0, {n})")
        if listed and min(listed) < 0:
            columns = columns % n
        if len(set(columns.tolist())) != columns.size:
            # A repeated member would advance twice from one state.
            raise ValueError("columns must not repeat a member")
        return np.ascontiguousarray(columns)

    @hotpath
    def _advance_planes(
        self,
        planes: np.ndarray,
        columns: np.ndarray | None = None,
        clean: list | None = None,
    ) -> int:
        """:meth:`update_block` into the caller's planes; the rounds advanced.

        ``planes`` is ``(6, rounds, m)`` float64 with rows of contiguous
        run positions, any plane and row strides -- value, trend,
        seasonal, residual, detection residual and score,
        :class:`FleetUpdate`'s order -- and holds the observations in its
        value plane; ``columns`` is the run's int64 column list as
        :meth:`_members` checks it, or None for every column in order.
        ``clean`` is the caller's screen of the value plane, one flag per
        round, True for a round of finite values only; without one, or
        when a round may hold a missing value, the plane is screened here.
        Missing observations are imputed in the value plane, and the
        other five planes are written for every round advanced.  The
        engine passes views of its result arrays, so a batch's outputs
        land where it reports them.
        """
        if columns is None:
            columns = self._rows()
        values = planes[0]
        n_rounds = values.shape[0]
        if clean is None or False in clean:
            clean = np.isfinite(values).all(axis=1).tolist()
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
                phase = self.global_index[columns] % self.period
                anchor = self.seasonal_buffer[columns, phase]
                forecast = self.last_trend[columns] + anchor
                missing = ~np.isfinite(values[row])
                np.copyto(values[row], forecast, where=missing)
            row, solved = self._advance_run(planes, row, stop, columns)
            if not solved:
                break
        return row

    # ------------------------------------------------------------- internals

    def _solve_run(
        self,
        native: tuple | None,
        planes: np.ndarray,
        start: int,
        stop: int,
        columns: np.ndarray,
    ) -> int:
        """Solve the ``T x I`` grid of the run ``[start, stop)`` of
        ``columns``, and run the residual monitor over it.

        ``native`` is the body: the loaded routines, or None for the
        reference wavefront.  Both take the same contract, the one
        ``advance_run.c`` states.  They read each member's committed state
        at its column -- the solver's committed side, trend pairs,
        seasonal anchors, ages -- and write its post-run solver state to
        the working side and its trend pairs to :attr:`_pairs_out`, at the
        column.  Of ``planes`` they read the value rows ``[start, stop)``
        and write those rows of the other five: the residual ``(value -
        trend) - seasonal``, the detection residual a copy of it, the
        score its z against the monitor before the point, whose count is
        the column's ``global_index`` plus the rounds before it.  They fold
        every round into ``monitor_mean`` / ``monitor_m2`` in place, after
        saving each run position's pre-run moments in :meth:`_saved_space`.

        A clean run -- every round passes the screen, and no score passed
        the threshold or tripped columns are not searched -- is committed
        (:meth:`_commit`) and returns :data:`_COMMITTED`.  Any other
        returns ``2 * bad + tripped``, committing nothing: ``bad`` the
        first round (from ``start``) that fails the screen -- the sum of
        its trends plus the sum of its seasonals, each summed in run order
        (:func:`_screen`), is not finite -- the run length if none;
        ``tripped`` whether any score passed the monitor's threshold.
        """
        if native is None:
            return self._run_wavefront(planes, start, stop, columns)
        return self._run_native(native, planes, start, stop, columns)

    def _saved_space(self, m: int) -> np.ndarray:
        """Mean then m2, ``(2m,)``: where a run of width ``m`` saves its
        pre-run moments (a workspace, sized to the widest run)."""
        saved = self._saved
        if saved is None or saved.size < 2 * m:
            self._saved = saved = np.empty(2 * m)
        return saved[: 2 * m]

    def _pair_buffer(self) -> np.ndarray:
        """The working side of the trend pairs, shaped like
        ``_trend_pairs`` (a run writes it; the commit takes it)."""
        pairs_out = self._pairs_out
        if pairs_out is None or pairs_out.shape != self._trend_pairs.shape:
            self._pairs_out = pairs_out = np.empty_like(self._trend_pairs)
        return pairs_out

    @hotpath
    def _run_wavefront(
        self,
        planes: np.ndarray,
        start: int,
        stop: int,
        columns: np.ndarray,
    ) -> int:
        """The solve grid of a run on the NumPy wavefront (reference body).

        A run of every column in order advances the kernel's own solver
        stack; any other member list is gathered into a stack of its own,
        advanced there and scattered back, and so are the monitor's moments
        of every run, as the contract of :meth:`_solve_run` says.  Solve
        ``(i, r)`` -- iteration ``i`` of round ``r`` -- needs only ``(i - 1,
        r)`` and ``(i, r - 1)``, so step ``s`` of the run solves the whole
        anti-diagonal ``i + r = s`` at once: iterations ``[lo, hi)`` with
        ``lo = max(0, s - T + 1)`` and ``hi = min(I, s + 1)``, in ``T + I -
        1`` steps.  Everything a step touches is laid out so that slab is a
        plain slice: the trend history is kept in *step* coordinates
        (``hist[s + 2, i]`` is the trend of ``(i, s - i)``, so "previous
        round, same iteration" is ``hist[s + 1]`` and the round before
        ``hist[s]``), the right-hand sides are staged in reversed round order
        (iteration ``i`` of step ``s`` reads row ``T - 1 - s + i``), and the
        reweighting of ``(i, r)`` lands in weight row ``i + 1``, where ``(i +
        1, r)`` picks it up on the next step (row 0 stays 1.0: ``x * 1.0 ==
        x`` bit for bit, so the first iteration's raw lambdas need no special
        case).

        The grid done, the residuals are two subtractions over the run and
        the monitor scores, then folds, round by round
        (:func:`_welford_score`, :func:`_welford_fold`), its count the
        column's ``global_index`` plus the rounds before.
        """
        (
            values,
            trend_out,
            seasonal_out,
            residual_out,
            detection_out,
            score_out,
        ) = planes[:, start:stop]
        n_rounds = stop - start
        n_iterations = self.iterations
        last = n_iterations - 1
        m = columns.size
        hist, rhs, weights, pattern, seasonal = self._run_workspaces(n_rounds, m)
        at = columnar.span(columns)
        whole = m == self._n and isinstance(at, slice)
        solver = self.solver if whole else self.solver.select(columns)
        # Seed every iteration's pre-run trend pair on its diagonal and
        # stage the right-hand sides of the whole run.
        hist[self._pair_steps, self._pair_iterations] = self.trend_pairs[..., at]
        reversed_rounds = np.arange(n_rounds - 1, -1, -1)[:, None]
        phases = (self.global_index[columns] + reversed_rounds) % self.period
        reversed_values = values[::-1]
        rhs[0] = reversed_values
        np.add(reversed_values, self.seasonal_buffer[columns, phases], out=rhs[1])
        solver.begin_run(2, _PATTERN_ROWS, _PATTERN_COLS)
        # A column's first online point has no trend-difference term and
        # its second no second difference (the scalar model's reduced
        # point_contributions pattern): only in a run that holds such a
        # point, stage per (round, column) -- reversed rounds, like the
        # right-hand sides -- where each term's weight is gated to 0.0.
        young = None
        ages = self.points_processed[columns]
        if ages.min(initial=2) < 2:
            age = ages[None, :] + reversed_rounds
            young = np.stack((age < 1, age < 2))
        lambda1 = self.lambda1
        lambda2 = self.lambda2
        epsilon = self.epsilon
        for step in range(n_rounds + last):
            lo = max(0, step - n_rounds + 1)
            hi = min(n_iterations, step + 1)
            offset = n_rounds - 1 - step
            # The same per-entry products as the scalar
            # ContributionWorkspace.fill (multiplication commutes bitwise);
            # entries that share a value share its array.
            weight_p = weights[0, lo:hi]
            weight_q = weights[1, lo:hi]
            first, minus_first, second, four_second, minus_two_second = pattern[
                :, lo:hi
            ]
            np.multiply(weight_p, lambda1, out=first)
            np.multiply(weight_q, lambda2, out=second)
            if young is not None:
                np.copyto(first, 0.0, where=young[0, offset + lo : offset + hi])
                np.copyto(second, 0.0, where=young[1, offset + lo : offset + hi])
            np.negative(first, out=minus_first)
            np.multiply(second, 4.0, out=four_second)
            np.multiply(second, -2.0, out=minus_two_second)
            trend = hist[step + 2, lo:hi]
            solver.extend_solve(
                lo,
                hi,
                (
                    1.0,
                    1.0,
                    1.0,
                    1.0,
                    first,
                    first,
                    minus_first,
                    second,
                    four_second,
                    second,
                    minus_two_second,
                    second,
                    minus_two_second,
                ),
                rhs[:, offset + lo : offset + hi],
                trend,
                seasonal[lo:hi],
            )
            if hi == n_iterations:
                # The round's last iteration completed: its seasonal value
                # is the round's output, and its reweighting is dead
                # (weights restart at 1.0 each round).
                seasonal_out[step - last] = seasonal[last]
                hi = last
                trend = trend[: hi - lo]
            if hi > lo:
                # Same operation sequence as the scalar 0.5 / max(|diff|,
                # eps), into the next iteration's weight rows.
                previous = hist[step + 1, lo:hi]
                weight_p = weights[0, lo + 1 : hi + 1]
                weight_q = weights[1, lo + 1 : hi + 1]
                np.subtract(trend, previous, out=weight_p)
                np.absolute(weight_p, out=weight_p)
                np.maximum(weight_p, epsilon, out=weight_p)
                np.divide(0.5, weight_p, out=weight_p)
                np.multiply(previous, 2.0, out=weight_q)
                np.subtract(trend, weight_q, out=weight_q)
                np.add(weight_q, hist[step, lo:hi], out=weight_q)
                np.absolute(weight_q, out=weight_q)
                np.maximum(weight_q, epsilon, out=weight_q)
                np.divide(0.5, weight_q, out=weight_q)
        trend_out[:] = hist[n_iterations + 1 : n_iterations + 1 + n_rounds, last]
        np.subtract(values, trend_out, out=residual_out)
        np.subtract(residual_out, seasonal_out, out=residual_out)
        detection_out[:] = residual_out
        mean, m2 = self.monitor_mean[columns], self.monitor_m2[columns]
        saved = self._saved_space(m)
        saved[:m] = mean
        saved[m:] = m2
        counts = self.global_index[columns] + _ROUND_OFFSETS[: n_rounds + 1]
        for r in range(n_rounds):
            residual = residual_out[r]
            score_out[r] = _welford_score(residual, counts[r], mean, m2)
            _welford_fold(residual, counts[r + 1], mean, m2)
        self.monitor_mean[columns] = mean
        self.monitor_m2[columns] = m2
        if not whole:
            # Scatter the post-run state to the working side.
            solver.commit_run()
            blocks_out, rhs_out = self.solver.sides()[2:]
            advanced = columnar.to_arrays(solver)
            blocks_out[..., columns] = advanced["blocks"]
            rhs_out[..., columns] = advanced["rhs"]
        self._pair_buffer()[..., at] = hist[
            self._pair_steps + n_rounds, self._pair_iterations
        ]
        finite = _screen(trend_out, seasonal_out)
        bad = n_rounds if finite.all() else int(finite.argmin())
        tripped = bool((score_out > self.shift_threshold).any())
        if bad == n_rounds and not (tripped and self.shift_window > 0):
            self._commit(None, planes, start, stop, columns)
            return _COMMITTED
        return 2 * bad + tripped

    def _run_native(
        self,
        routines: tuple,
        planes: np.ndarray,
        start: int,
        stop: int,
        columns: np.ndarray,
    ) -> int:
        """The solve grid of a run, its monitor and, when it is clean, its
        commit, as one call into ``advance_run.c``.

        Same contract as :meth:`_run_wavefront`, same bits: the C routine
        performs each solve's operations, each round's scoring and fold,
        and the commit in the same order, per column, gathering each
        member's state at its column and scattering it back there.  It
        takes the kernel's handle (:meth:`_native_handle`) and the run,
        and a committed full-width run comes back as a flip for
        :meth:`_flip`.
        """
        handle = self._handle
        if handle is None:
            handle = self._handle = self._native_handle(routines[2])
        if stop - start > _MAX_BLOCK_ROUNDS:
            raise ValueError(f"a native run is at most {_MAX_BLOCK_ROUNDS} rounds")
        plane_bytes, row_bytes, item_bytes = planes.strides
        if (
            planes.dtype != np.float64
            or (planes.shape[2] > 1 and item_bytes != 8)
            or (plane_bytes | row_bytes) % 8
        ):
            raise ValueError("a native run needs float64 planes with contiguous rows")
        run = handle.run
        run.rounds = stop - start
        run.width = columns.size
        run.columns = _address(columns)
        run.planes = _address(planes) + start * row_bytes
        run.plane_stride = plane_bytes >> 3
        run.row_stride = row_bytes >> 3
        status = routines[0](handle.side, handle.run_at)
        if status == _FLIP:
            self._flip()
            return _COMMITTED
        return status

    def _native_handle(self, scratch_doubles) -> "_Handle":
        """The native body's view of this kernel: both orientations of its
        state as :class:`~repro.core._native.Side` structures and the
        :class:`~repro.core._native.Run` each run fills in.

        Built once (the working sides and workspaces sized on the way) and
        kept while the arrays it points into are the kernel's: every array
        a kernel holds is replaced, never resized (:meth:`append` drops the
        handle), and the handle keeps each one alive.
        """
        blocks, rhs, working_blocks, working_rhs = self.solver.sides()
        committed = (blocks, rhs, self._trend_pairs)
        working = (working_blocks, working_rhs, self._pair_buffer())
        self._saved_space(self._n)  # room for the widest run
        saved = self._saved
        if self._scratch is None:
            doubles = scratch_doubles(self.iterations)
            self._scratch = np.empty(doubles)
        per_column = (
            self.global_index,
            self.points_processed,
            self.last_detection_residual,
            self.monitor_mean,
            self.monitor_m2,
        )
        arrays = (*committed, *working, *per_column, saved, self._scratch)
        if any(a.dtype.itemsize != 8 or not a.flags.c_contiguous for a in arrays):
            raise ValueError("a native run needs contiguous 64-bit state arrays")
        common = {
            "seasonal_buffer": _address(self.seasonal_buffer),
            "seasonal_stride": _row_stride(self.seasonal_buffer),
            "period": self.period,
            **dict(zip(_PER_COLUMN, map(_address, per_column))),
            "saved_moments": _address(saved),
            "scratch": _address(self._scratch),
            "iterations": self.iterations,
            "members": self._n,
            "searching": self.shift_window > 0,
            "lambda1": self.lambda1,
            "lambda2": self.lambda2,
            "epsilon": self.epsilon,
            "minimum_std": DEFAULT_MINIMUM_STD,
            "threshold": self.shift_threshold,
        }
        orientations = [
            _native_side(committed, working, common),
            _native_side(working, committed, common),
        ]
        return _Handle(orientations, _native.Run(), arrays + (self.seasonal_buffer,))

    def _flip(self) -> None:
        """Make the working sides of a full-width run the committed ones:
        the solver's and the trend pairs' ping-pong swap, and so do the
        handle's orientations."""
        self._trend_pairs, self._pairs_out = self._pairs_out, self._trend_pairs
        self.solver.flip()
        handle = self._handle
        if handle is not None:
            handle.side, handle.other = handle.other, handle.side

    @hotpath
    def _advance_run(
        self,
        planes: np.ndarray,
        start: int,
        stop: int,
        columns: np.ndarray,
    ) -> tuple[int, bool]:
        """Advance the all-finite rounds ``[start, stop)`` of ``columns`` as one run.

        Hands the ``T x I`` solve grid, the residual monitor and the
        commit to the body this process runs (:meth:`_run_native`, one
        call into ``advance_run.c``, or the reference
        :meth:`_run_wavefront`; see :func:`kernel_backend` and
        :meth:`_solve_run`) -- which is all a clean run needs.  Only when
        the body leaves the run uncommitted are the pre-run moments copied
        and the rounds walked, none of which depends on the body: both
        produce the same bits.

        A column whose score passes the threshold is marked and, once the
        run has finished for everyone, replayed before the commit:
        searched in place when the run is one round long
        (:meth:`_search_shifts`), else advanced again in a narrow kernel
        that cuts the run at the tripped rounds (:meth:`_replay_marked`).
        A run that returns short restores the run's pre-run moments: the
        body folded every round, the non-finite one and those after it
        included.

        Returns ``(next_round, solved)``: ``(stop, True)`` normally.  A
        round that went non-finite on a column whose batched values are
        used, in a replay or in a candidate of a search commits nothing,
        re-runs the rounds before it and returns ``(that round, False)``.
        ``stop - start`` never exceeds ``min(period, _MAX_BLOCK_ROUNDS)``,
        which guarantees no round of the run reads a seasonal slot an
        earlier round wrote -- the precondition for reading anchors from
        the buffer and deferring the seasonal scatter to run end.
        """
        native = _native_run
        if self._solve_run(native, planes, start, stop, columns) == _COMMITTED:
            return stop, True
        n_rounds = stop - start
        searching = self.shift_window > 0
        m = columns.size
        saved = self._saved_space(m).copy()
        block = planes[:, start:stop]
        trend_block, seasonal_block, score_block = block[1], block[2], block[5]
        finite = _screen(trend_block, seasonal_block)
        # A column whose score passes the threshold is marked for replay,
        # and from then on its batched values (no longer used) are out of
        # the screen.  The walk reads the body's outputs alone.
        flags = score_block > self.shift_threshold if searching else None
        marked = None
        cuts = []
        bad = n_rounds
        for r in range(n_rounds):
            if not finite[r] and (
                marked is None
                or not math.isfinite(
                    float(trend_block[r, ~marked].sum())
                    + float(seasonal_block[r, ~marked].sum())
                )
            ):
                bad = r
                break
            if flags is not None and flags[r].any():
                marked = flags[r] if marked is None else marked | flags[r]
                cuts += (r, r + 1)
        replayed = None
        if marked is not None and bad == n_rounds:
            positions = np.flatnonzero(marked)
            members = columns[positions]
            if n_rounds == 1:
                replayed, points, bad = self._search_shifts(
                    members, block[0, 0, positions], score_block[0, positions]
                )
            else:
                cuts.append(n_rounds)
                moments = saved.reshape(2, m).take(positions, 1)
                replayed, points, bad = self._replay_marked(
                    members, moments, block[0][:, positions], cuts
                )
        if bad < n_rounds:
            self.monitor_mean[columns] = saved[:m]
            self.monitor_m2[columns] = saved[m:]
            if bad == 0:
                return start, False
            return self._advance_run(planes, start, start + bad, columns)[0], False
        self._commit(native, planes, start, stop, columns)
        if replayed is not None:
            self.assign(members, replayed)
            block[1:, :, positions] = points
        return stop, True

    def _commit(
        self,
        native: tuple | None,
        planes: np.ndarray,
        start: int,
        stop: int,
        columns: np.ndarray,
    ) -> None:
        """Make the finished run ``[start, stop)`` of ``columns`` the
        committed state: a full-width run flips the solver's and the trend
        pairs' ping-pong, a subset copies its columns from the working
        side.  The native body commits through ``advance_commit``, which
        takes the run :meth:`_run_native` last handed ``advance_run``
        (replays and searches run on kernels of their own); the NumPy body
        commits here.  Within a run every member writes ``stop - start``
        distinct seasonal slots (runs never exceed ``period`` rounds), so
        one fancy scatter equals the per-round scatters."""
        if native is not None:
            handle = self._handle
            if native[1](handle.side, handle.run_at) == _FLIP:
                self._flip()
            return
        n_rounds = stop - start
        at = columnar.span(columns)
        index = self.global_index[at]
        phases = (index + _ROUND_OFFSETS[:n_rounds]) % self.period
        self.seasonal_buffer[columns, phases] = planes[2, start:stop]
        self.global_index[at] = index + n_rounds
        self.points_processed[at] = self.points_processed[at] + n_rounds
        self.last_detection_residual[at] = planes[4, stop - 1]
        if columns.size == self._n:
            self._flip()
        else:
            self._trend_pairs[..., at] = self._pairs_out[..., at]
            self.solver.take(at)

    @hotpath
    def _replay_marked(
        self,
        columns: np.ndarray,
        moments: np.ndarray,
        values: np.ndarray,
        cuts: list,
    ) -> tuple["FleetKernel", np.ndarray, int]:
        """Replay the marked columns of a finished, uncommitted run.

        The columns are gathered from the pre-run state (nothing of the
        run is committed yet; the monitor's moments, updated in place,
        come as ``moments``, their ``(2, k)`` mean and m2 before the run)
        into one narrow kernel that advances the run's ``(rounds, k)``
        ``values`` itself.
        ``cuts`` is its schedule: ascending, ``r`` and ``r + 1`` for every
        round ``r`` the speculative run saw trip, then the run length.
        Each such round becomes a one-round run, which searches what trips
        in place (:meth:`_search_shifts`); the rounds between advance as
        ordinary runs.  A column that a search moved off its speculative
        trajectory may trip elsewhere: the narrow kernel's own run then
        marks and replays it the same way, on ever shorter runs.

        Returns ``(kernel, points, bad)``: the narrow kernel after the run,
        its own ``(5, rounds, k)`` trend / seasonal / residual / detection
        residual / score, and the first round that went non-finite (the run
        length when none did).
        """
        sub = self.select(columns)
        sub.monitor_mean, sub.monitor_m2 = moments
        points = np.empty((6,) + values.shape)
        points[0] = values
        members = sub._rows()
        row = 0
        solved = True
        for stop in cuts:
            if solved and row < stop:
                row, solved = sub._advance_run(points, row, stop, members)
        return sub, points[1:], values.shape[0] if solved else row

    @hotpath
    def _search_shifts(
        self, columns: np.ndarray, values: np.ndarray, scores: np.ndarray
    ) -> tuple["FleetKernel | None", np.ndarray | None, int]:
        """Seasonality-shift search (Section 3.4) of a one-round run.

        Every member of ``columns`` tripped the monitor on the run's only
        round, on observation ``values[j]`` with z-score ``scores[j]``.
        Its candidate shifts are independent trials from one pre-round
        state that differ only in the anchor phase ``(global_index + c) %
        period``, so they become columns: the pre-round state (the run is
        not committed yet) is gathered once per candidate and the
        candidate rides in the gathered ``global_index`` -- the anchor read
        *and* the seasonal write at the shifted slot then fall out of the
        ordinary staging and commit -- and one ``I``-step run advances them
        all.  The winner is the first smallest ``|residual|`` in the
        scalar's candidate order (its strict ``<``).

        Returns ``(kernel, points, bad)`` like :meth:`_replay_marked`: the
        winners as a ``k``-column kernel with the scalar's bookkeeping --
        ``global_index`` advanced by one, ``last_applied_shift`` written
        only by a non-zero shift, ``last_detection_residual`` the
        candidate-0 (pre-search) residual the run's body already fed the
        monitor, its moments the run's and ``scores`` (a trial counts from
        its shifted ``global_index``) -- or ``(None, None, 0)`` when a
        candidate went non-finite.
        """
        shifts = self._shifts
        n_shifts = shifts.size
        wide = self.select(np.repeat(columns, n_shifts))
        # A trial is a plain advance: candidates do not search.
        wide.shift_window = 0
        wide.global_index += np.tile(shifts, columns.size)
        trials = np.empty((6, 1, wide._n))
        trials[0, 0] = np.repeat(values, n_shifts)
        # A shifted count may be 0: moments nobody reads need not warn.
        with np.errstate(divide="ignore", invalid="ignore"):
            if not wide._advance_run(trials, 0, 1, wide._rows())[1]:
                return None, None, 0
        residual = trials[3, 0].reshape(columns.size, n_shifts)
        best = np.abs(residual).argmin(axis=1)
        picks = best + np.arange(0, wide._n, n_shifts)
        chosen = shifts[best]
        winners = wide.select(picks)
        winners.global_index -= chosen
        winners.last_applied_shift = np.where(
            chosen != 0, chosen, winners.last_applied_shift
        )
        winners.last_detection_residual[:] = residual[:, 0]
        winners.monitor_mean = self.monitor_mean[columns]
        winners.monitor_m2 = self.monitor_m2[columns]
        points = trials[1:, :, picks]
        points[3, 0] = residual[:, 0]
        points[4, 0] = scores
        return winners, points, 1

    def _run_workspaces(self, n_rounds: int, m: int) -> tuple:
        """(Re)size the wavefront's workspaces; returns views for an
        ``n_rounds`` run of width ``m``.

        ``(hist, rhs, weights, pattern, seasonal)``: the skewed trend
        history ``(T + I + 1, I, m)``, the reversed-round right-hand sides
        ``(2, T, m)``, the IRLS weights ``(2, I, m)`` (row 0 is the
        constant 1.0 of a round's first iteration), the five distinct
        weighted pattern values ``(5, I, m)`` and the per-iteration
        seasonal scratch ``(I, m)``.
        """
        n_iterations = self.iterations
        workspaces = self._workspaces
        if (
            workspaces is None
            or workspaces[0].shape[2] != m
            or workspaces[1].shape[1] < n_rounds
        ):
            weights = np.empty((2, n_iterations, m))
            weights[:, 0] = 1.0
            self._workspaces = workspaces = (
                np.empty((n_rounds + n_iterations + 1, n_iterations, m)),
                np.empty((2, n_rounds, m)),
                weights,
                np.empty((5, n_iterations, m)),
                np.empty((n_iterations, m)),
            )
        hist, rhs, weights, pattern, seasonal = workspaces
        return hist, rhs[:, :n_rounds], weights, pattern, seasonal
