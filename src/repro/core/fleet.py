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
  Welford statistics are contiguous ``(n, ...)`` arrays.

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
  never ``-ffast-math``) and loads with ``ctypes``.  It walks the grid
  column-chunk by column-chunk, round by round, iteration by iteration,
  with a chunk's ``I x 22`` doubles of state in cache for the whole run
  -- the computation moved to where the state lives, instead of the whole
  ``(6, 7, I, n)`` workspace swept past one NumPy operator at a time.
  After a round's last iteration it also scores the round's residual
  against the residual monitor and folds it in, the chunk's Welford
  moments in lanes for the whole run (``sqrt`` is correctly rounded by
  IEEE 754, like ``+ - * /``, so it cannot change a bit either).
  Lanes (16 columns a chunk) are its innermost loop, so the compiler may
  vectorise across columns only; there is no reduction anywhere.  On
  x86-64 glibc the routine is built as AVX-512F, AVX2 and baseline clones
  and the dynamic loader picks the widest this CPU runs, once, when the
  library is opened; every operation is correctly rounded per lane, so
  the clone cannot change a bit.
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

A run commits once, at its end; until then the committed state is the
pre-run state.  (The residual monitor's moments are the exception: the
body folds every round into them in place, and a run that returns short
puts back the copy taken before it.)  A series whose residual monitor
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
declared once, in ``FleetKernel.COLUMNS`` and ``ColumnarNSigma.COLUMNS``
(and the solver's): that list is a store segment's section list, and
:mod:`repro.utils.columns` walks it for every gather, scatter, append,
copy, segment round trip and 1:1 scalar copy.  Grouping series by
configuration, absorption and which boundary needs scalar state at all
live in the streaming engine (:mod:`repro.streaming.engine`).
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

__all__ = ["ColumnarNSigma", "FleetKernel", "FleetUpdate", "kernel_backend"]

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

#: The native body of a run -- ``(advance_run, scratch_doubles)``, the
#: ``ctypes`` functions of ``advance_run.c`` -- or None for the NumPy
#: wavefront.  Written once, by :func:`kernel_backend`; the test suite
#: runs every oracle under both bodies by patching this one attribute.
_native_run: tuple | None = None
#: :func:`kernel_backend`'s answer, None until the body has been chosen
_backend: dict | None = None

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

    Thirty-five columns -- two full chunks of the routine's 16 lanes and a
    ragged tail of 3, so a chunk at a non-zero base and the spare lanes of
    a last chunk are both exercised -- aged 0, 1 and 7 points in turn take
    a three-round run (both gated patterns, the steady one, second and
    third rounds) from a made-up positive definite state that differs in
    every cell, iteration and column, so a transposed index cannot hide.
    The residual monitor's moments differ in every column too: some have
    seen nothing (score 0.0) and some have no spread (a floored standard
    deviation, a score far past the threshold).  The five output planes,
    the post-run moments, trend pairs and the solver's working side are
    compared as bytes, signs of zeros included.
    """
    n_rounds, n_iterations, n = 3, 3, 35
    params = {
        "period": 4, "lambda1": 2.0, "lambda2": 3.0, "iterations": n_iterations,
        "shift_window": 0, "shift_threshold": 5.0, "epsilon": 1e-8,
    }  # fmt: skip
    ramp = np.arange(16.0 * n_iterations * n).reshape(4, 4, n_iterations, n)
    # Entries below 0.5 and a diagonal above 2: diagonally dominant.
    blocks = (ramp + ramp.transpose(1, 0, 2, 3)) / (4.0 * ramp.size)
    blocks[np.arange(4), np.arange(4)] += 2.0
    ages = np.resize([0, 1, 7], n)
    values = 3.0 * np.sin(np.arange(n_rounds * n) * 0.7).reshape(n_rounds, n)
    counts = np.resize([0, 3, 40, 9, 1], n)
    spreads = np.resize([0.5, 0.0, 2.0, 0.1], n) * (1.0 + np.arange(n) / n)
    state = {
        "seasonal_buffer": np.sin(np.arange(4.0 * n)).reshape(n, 4),
        "global_index": ages,
        "points_processed": ages,
        "last_trend": np.zeros(n),
        "last_detection_residual": np.zeros(n),
        "last_applied_shift": np.zeros(n, dtype=np.int64),
        "trend_pairs": np.sin(np.arange(2.0 * n_iterations * n)).reshape(2, -1, n),
        "solver_blocks": blocks,
        "solver_rhs": np.cos(np.arange(4.0 * n_iterations * n)).reshape(4, -1, n),
        "solver_sizes": np.zeros((n_iterations, n), dtype=np.int64),
        "monitor_count": counts,
        "monitor_mean": np.cos(np.arange(n) * 0.9),
        "monitor_m2": spreads * counts,
    }
    images = []
    for body in (None, routines):
        kernel = FleetKernel.from_arrays(params, state)
        outputs = np.empty((5, n_rounds, n))
        _phases, pairs = kernel._solve_run(body, values, 0, n_rounds, outputs)
        working = kernel.solver.run_buffers(2, n_rounds)[2:]
        moments = kernel.monitor.to_arrays().values()
        images.append(
            b"".join(
                array.tobytes() for array in (outputs, *moments, pairs, *working)
            )
        )
    return images[0] == images[1]


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


class ColumnarNSigma:
    """Struct-of-arrays form of ``n`` independent :class:`NSigma` scorers.

    All members must share ``threshold`` and ``minimum_std`` (they come
    from one pipeline spec).  ``score``/``update`` vectorize the scalar
    scorer's exact operation sequence over the series axis, so scores and
    verdicts equal the scalar scorers' exactly.
    """

    #: A member's Welford moments, in segment order (``monitor_*``
    #: sections of a kernel), each a scalar scorer's attribute.
    COLUMNS = (
        Array("count", np.int64, scalar="_count"),
        Array("mean", float, scalar="_mean"),
        Array("m2", float, scalar="_m2"),
    )

    def __init__(self, threshold: float, minimum_std: float):
        """Shared parameters only: :meth:`pack`, or a kernel's
        :meth:`FleetKernel.from_arrays`, sets the moments."""
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
        columnar.pack(monitor, scorers)
        return monitor

    def _blank(self, n: int) -> "ColumnarNSigma":
        return ColumnarNSigma(self.threshold, self.minimum_std)

    @property
    def n_series(self) -> int:
        return self.count.shape[0]

    def extract_many(self, columns: Sequence[int] | np.ndarray) -> list[NSigma]:
        """Materialize the members at ``columns`` as fresh scalar scorers."""
        columns = np.asarray(columns, dtype=np.intp)
        scorers = [NSigma(self.threshold, self.minimum_std) for _ in columns]
        columnar.unpack(self, columns, scorers)
        return scorers

    # Membership, persistence and loading one member back from its scalar
    # scorer are the declaration's (same parameters).
    load = columnar.load
    append = columnar.append
    select = columnar.select
    copy = columnar.copy
    assign = columnar.assign
    to_arrays = columnar.to_arrays

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
        self.update_stats(values)
        return scores, flags

    @hotpath
    def update_stats(self, values: np.ndarray) -> None:
        """Fold ``values`` into the Welford statistics without scoring.

        Exactly the mutation half of :meth:`update` (scoring reads but
        never writes): a kernel run scores, then folds, round by round.
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
    #: per-iteration ``(before_previous, previous)`` trend pairs, then the
    #: solver's (``solver_*``) and the residual monitor's (``monitor_*``).
    COLUMNS = (
        Array("seasonal_buffer", float, cell=("T",), scalar="_seasonal_buffer"),
        Array("global_index", np.int64, scalar="_global_index"),
        Array("points_processed", np.int64, scalar="_points_processed"),
        Array("last_trend", float, scalar="_last_trend"),
        Array("last_detection_residual", float, scalar="_last_detection_residual"),
        Array("last_applied_shift", np.int64, scalar="_last_applied_shift"),
        Array("trend_pairs", float, -1, (2, "I")),
        Part("solver", BatchedIncrementalLDLT, "solver_"),
        Part("monitor", ColumnarNSigma, "monitor_"),
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
        self._scratch: np.ndarray | None = None
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
        """Whether ``model`` is an initialized default-initializer OneShotSTL."""
        return (
            type(model) is OneShotSTL
            and model._initialized
            and model._initializer is None
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
                    "OneShotSTL without a custom initializer)"
                )
            if model.get_params() != reference:
                raise ValueError(
                    f"model {index} has different hyper-parameters; a fleet "
                    "kernel requires a uniform configuration"
                )
        kernel = cls(reference, len(models))
        columnar.pack(kernel, models)
        kernel.monitor = ColumnarNSigma.pack([m._residual_monitor for m in models])
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
        kernel.monitor = ColumnarNSigma(kernel.shift_threshold, DEFAULT_MINIMUM_STD)
        return kernel

    def _blank(self, n: int) -> "FleetKernel":
        """Shares :data:`_SHARED` instead of re-deriving it: a narrow
        advance costs O(width), not O(configuration)."""
        kernel = FleetKernel.__new__(FleetKernel)
        state = vars(self)
        vars(kernel).update({name: state[name] for name in _SHARED})
        kernel._n = n
        kernel._arange = kernel._workspaces = kernel._pairs_out = None
        return kernel

    @property
    def n_series(self) -> int:
        return self._n

    @property
    def trend_pairs(self) -> np.ndarray:
        """Per-iteration ``(before_previous, previous)`` trends, ``(2, I, n)``:
        a live view of the capacity buffer."""
        return self._trend_pairs[..., : self._n]

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
        models = []
        for monitor, solvers, member_pairs in zip(
            self.monitor.extract_many(columns), self.solver.extract_many(columns), pairs
        ):
            model = OneShotSTL(**params)
            # initialize()'s attributes in its order, kept by the writes below
            vars(model).update(dict.fromkeys(OneShotSTL._STATE), _initialized=True)
            model._residual_monitor = monitor
            model._iterations_state = [
                _IterationState(solver, previous, before_previous)
                for solver, (before_previous, previous) in zip(solvers, member_pairs)
            ]
            model._workspace = ContributionWorkspace(self.lambda1, self.lambda2)
            models.append(model)
        columnar.unpack(self, columns, models)
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
        self.monitor.load(index, model._residual_monitor)
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
        """Decompose a ``(rounds, n)`` block of observations.

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
          the rounds that trip -- while the rest of the cohort keeps its
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

        ``columns`` restricts the advance to a subset of members (no
        repeats: a member advances once per round).  The returned
        :class:`FleetUpdate` carries ``(rounds advanced, n)`` arrays.
        """
        if columns is not None:
            columns = np.asarray(columns, dtype=np.intp)
            if columns.size > 1 and len(set(columns.tolist())) != columns.size:
                # A repeated member would advance as two gathered copies,
                # return two result columns and scatter one state back.
                raise ValueError("columns must not repeat a member")
            sub = self.select(columns)
            result = sub.update_block(np.asarray(values, dtype=float))
            self.assign(columns, sub)
            return result
        n = self._n
        values = np.asarray(values, dtype=float)
        if values.ndim != 2 or values.shape[1] != n:
            raise ValueError(f"values must have shape (rounds, {n})")
        n_rounds = values.shape[0]
        # The call's one private block: row-contiguous whatever strides
        # the caller's array had (``ndarray.copy`` is C-ordered), which
        # is the layout every run below hands its body.
        value_out = values.copy()
        trend_out = np.empty((n_rounds, n))
        seasonal_out = np.empty((n_rounds, n))
        residual_out = np.empty((n_rounds, n))
        detection_out = np.empty((n_rounds, n))
        score_out = np.empty((n_rounds, n))
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
            row, solved = self._advance_run(
                value_out,
                row,
                stop,
                trend_out,
                seasonal_out,
                residual_out,
                detection_out,
                score_out,
            )
            if not solved:
                break
        return FleetUpdate(
            value_out[:row],
            trend_out[:row],
            seasonal_out[:row],
            residual_out[:row],
            detection_out[:row],
            score_out[:row],
        )

    # ------------------------------------------------------------- internals

    def _solve_run(
        self,
        native: tuple | None,
        values: np.ndarray,
        start: int,
        stop: int,
        outputs: Sequence[np.ndarray],
    ) -> tuple[np.ndarray, np.ndarray]:
        """Stage and solve the ``T x I`` grid of the run ``[start, stop)``,
        and run the residual monitor over it.

        ``native`` is the body: the loaded routines, or None for the
        reference wavefront.  ``outputs`` are the five ``(rounds, n)``
        planes trend, seasonal, residual, detection residual and score.
        Either body writes rows ``[start, stop)`` of each -- the residual
        ``(value - trend) - seasonal``, the detection residual a copy of
        it, the score its z against the monitor before the point -- folds
        every round into :attr:`monitor` in place, and leaves the solver
        with a complete, uncommitted run.  Returns ``(phases, pairs)``:
        the run's ``(T, n)`` seasonal phases in reversed round order (row
        ``T - 1 - r`` is round ``r``'s) and the post-run ``(2, I, n)``
        trend pairs.
        """
        reversed_rounds = np.arange(stop - start - 1, -1, -1)[:, None]
        phases = (self.global_index[None, :] + reversed_rounds) % self.period
        anchors = self.seasonal_buffer[self._rows()[None, :], phases]
        if native is None:
            pairs = self._run_wavefront(values, start, stop, anchors, outputs)
        else:
            pairs = self._run_native(native, values, start, stop, anchors, outputs)
        return phases, pairs

    @hotpath
    def _run_wavefront(
        self,
        values: np.ndarray,
        start: int,
        stop: int,
        anchors: np.ndarray,
        outputs: Sequence[np.ndarray],
    ) -> np.ndarray:
        """The solve grid of a run on the NumPy wavefront (reference body).

        Solve ``(i, r)`` -- iteration ``i`` of round ``r`` -- needs only
        ``(i - 1, r)`` and ``(i, r - 1)``, so step ``s`` of the run solves
        the whole anti-diagonal ``i + r = s`` at once: iterations
        ``[lo, hi)`` with ``lo = max(0, s - T + 1)`` and ``hi = min(I, s +
        1)``, in ``T + I - 1`` steps.  Everything a step touches is laid
        out so that slab is a plain slice: the trend history is kept in
        *step* coordinates (``hist[s + 2, i]`` is the trend of ``(i, s -
        i)``, so "previous round, same iteration" is ``hist[s + 1]`` and
        the round before ``hist[s]``), the right-hand sides are staged in
        reversed round order (iteration ``i`` of step ``s`` reads row ``T
        - 1 - s + i``), and the reweighting of ``(i, r)`` lands in weight
        row ``i + 1``, where ``(i + 1, r)`` picks it up on the next step
        (row 0 stays 1.0: ``x * 1.0 == x`` bit for bit, so the first
        iteration's raw lambdas need no special case).

        The grid done, the residuals are two subtractions over the run and
        the monitor scores, then folds, round by round
        (:meth:`ColumnarNSigma.score`, :meth:`ColumnarNSigma.update_stats`).
        Same contract as :meth:`_solve_run`; returns the post-run ``(2, I,
        n)`` trend pairs.
        """
        trend_out, seasonal_out, residual_out, detection_out, score_out = outputs
        n_rounds = stop - start
        n_iterations = self.iterations
        last = n_iterations - 1
        hist, rhs, weights, pattern, seasonal = self._run_workspaces(n_rounds)
        solver = self.solver
        # Seed every iteration's pre-run trend pair on its diagonal and
        # stage the right-hand sides of the whole run.
        hist[self._pair_steps, self._pair_iterations] = self.trend_pairs
        reversed_rounds = np.arange(n_rounds - 1, -1, -1)[:, None]
        reversed_values = values[start:stop][::-1]
        rhs[0] = reversed_values
        np.add(reversed_values, anchors, out=rhs[1])
        solver.begin_run(2, _PATTERN_ROWS, _PATTERN_COLS)
        # A column's first online point has no trend-difference term and
        # its second no second difference (the scalar model's reduced
        # point_contributions pattern): only in a run that holds such a
        # point, stage per (round, column) -- reversed rounds, like the
        # right-hand sides -- where each term's weight is gated to 0.0.
        young = None
        if self.points_processed.min(initial=2) < 2:
            age = self.points_processed[None, :] + reversed_rounds
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
                seasonal_out[start + step - last] = seasonal[last]
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
        trend_out[start:stop] = hist[
            n_iterations + 1 : n_iterations + 1 + n_rounds, last
        ]
        residual_block = residual_out[start:stop]
        np.subtract(values[start:stop], trend_out[start:stop], out=residual_block)
        np.subtract(residual_block, seasonal_out[start:stop], out=residual_block)
        detection_out[start:stop] = residual_block
        monitor = self.monitor
        for r in range(start, stop):
            score_out[r] = monitor.score(residual_out[r])[0]
            monitor.update_stats(residual_out[r])
        return hist[self._pair_steps + n_rounds, self._pair_iterations]

    def _run_native(
        self,
        routines: tuple,
        values: np.ndarray,
        start: int,
        stop: int,
        anchors: np.ndarray,
        outputs: Sequence[np.ndarray],
    ) -> np.ndarray:
        """The solve grid of a run, and its monitor, as one call into
        ``advance_run.c``.

        Same contract as :meth:`_run_wavefront`, same bits: the C routine
        performs each solve's operations, and each round's scoring and
        fold, in the same order, per column, reading the committed side
        of the solver's ping-pong and writing the working side.
        """
        n = self._n
        advance_run, scratch_doubles = routines
        monitor = self.monitor
        moments = (monitor.count, monitor.mean, monitor.m2)
        if not all(moment.flags.c_contiguous for moment in moments):
            raise ValueError("a native run needs contiguous monitor moments")
        pairs_in = self._trend_pairs
        pairs_out = self._pairs_out
        if pairs_out is None or pairs_out.shape != pairs_in.shape:
            self._pairs_out = pairs_out = np.empty_like(pairs_in)
        scratch = self._scratch
        if scratch is None:
            self._scratch = scratch = np.empty(scratch_doubles(self.iterations))
        block = values[start:stop]
        planes = [plane[start:stop] for plane in outputs]
        out_stride = _row_stride(planes[0])
        if any(_row_stride(plane) != out_stride for plane in planes):
            raise ValueError("the output planes must share a layout")
        points_processed = np.ascontiguousarray(self.points_processed, dtype=np.int64)
        blocks_in, rhs_in, blocks_out, rhs_out = self.solver.run_buffers(
            2, stop - start
        )
        advance_run(
            stop - start,
            self.iterations,
            n,
            _address(blocks_in),
            _address(rhs_in),
            _address(blocks_out),
            _address(rhs_out),
            blocks_in.shape[-1],
            _address(pairs_in),
            _address(pairs_out),
            pairs_in.shape[-1],
            _address(block),
            _row_stride(block),
            _address(anchors),
            _address(points_processed),
            self.lambda1,
            self.lambda2,
            self.epsilon,
            *map(_address, planes),
            out_stride,
            *map(_address, moments),
            monitor.minimum_std,
            _address(scratch),
        )
        return pairs_out[..., :n]

    @hotpath
    def _advance_run(
        self,
        values: np.ndarray,
        start: int,
        stop: int,
        trend_out: np.ndarray,
        seasonal_out: np.ndarray,
        residual_out: np.ndarray,
        detection_out: np.ndarray,
        score_out: np.ndarray,
    ) -> tuple[int, bool]:
        """Advance the all-finite rounds ``[start, stop)`` as one run.

        Stages the run's seasonal phases and anchors, hands the ``T x I``
        solve grid and the residual monitor to the body this process runs
        (:meth:`_run_native`, one call into ``advance_run.c``, or the
        reference :meth:`_run_wavefront`; see :func:`kernel_backend`),
        then screens, replays and commits around it -- none of which
        depends on the body: both produce the same bits.

        The body scores each round against the monitor (``score_out``),
        then folds it in; a column whose score passes the threshold is
        marked and, once the run has finished for everyone, replayed
        before the commit: searched in place when the run is one round
        long (:meth:`_search_shifts`), else advanced again in a narrow
        kernel that cuts the run at the tripped rounds
        (:meth:`_replay_marked`).  A run that returns short restores the
        pre-run monitor: the body folded every round, the non-finite one
        and those after it included.

        Returns ``(next_round, solved)``: ``(stop, True)`` normally.  A
        round that went non-finite on a column whose batched values are
        used, in a replay or in a candidate of a search commits nothing,
        re-runs the rounds before it and returns ``(that round, False)``.
        ``stop - start`` never exceeds ``min(period, _MAX_BLOCK_ROUNDS)``,
        which guarantees no round of the run reads a seasonal slot an
        earlier round wrote -- the precondition for staging anchors and
        deferring the seasonal scatter to run end.
        """
        n_rounds = stop - start
        rows = self._rows()
        monitor = self.monitor
        pre_run_monitor = monitor.copy()
        phases, pairs = self._solve_run(
            _native_run,
            values,
            start,
            stop,
            (trend_out, seasonal_out, residual_out, detection_out, score_out),
        )
        trend_block = trend_out[start:stop]
        seasonal_block = seasonal_out[start:stop]
        residual_block = residual_out[start:stop]
        detection_block = detection_out[start:stop]
        score_block = score_out[start:stop]
        finite = np.isfinite(trend_block.sum(axis=1) + seasonal_block.sum(axis=1))
        # A column whose score passes the threshold is marked for replay,
        # and from then on its batched values (no longer used) are out of
        # the screen.  Rounds are walked only when one is non-finite or
        # something tripped; the walk reads the body's outputs alone.
        tripped = None
        if self.shift_window > 0:
            tripped = score_block > monitor.threshold
        marked = None
        cuts = []
        bad = n_rounds
        if not finite.all() or (tripped is not None and tripped.any()):
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
                if tripped is not None and tripped[r].any():
                    flagged = tripped[r]
                    marked = flagged if marked is None else marked | flagged
                    cuts += (r, r + 1)
        replayed = None
        if marked is not None and bad == n_rounds:
            columns = np.flatnonzero(marked)
            if n_rounds == 1:
                replayed, points, bad = self._search_shifts(
                    columns, values[start, columns], score_block[0, columns]
                )
            else:
                cuts.append(n_rounds)
                replayed, points, bad = self._replay_marked(
                    columns, pre_run_monitor, values[start:stop, columns], cuts
                )
        if bad < n_rounds:
            monitor.assign(slice(None), pre_run_monitor)
            if bad == 0:
                return start, False
            return (
                self._advance_run(
                    values,
                    start,
                    start + bad,
                    trend_out,
                    seasonal_out,
                    residual_out,
                    detection_out,
                    score_out,
                )[0],
                False,
            )
        # Commit: within a run every series writes ``n_rounds`` distinct
        # seasonal slots (runs never exceed ``period`` rounds), so one
        # fancy scatter equals the per-round scatters.
        self.seasonal_buffer[rows[None, :], phases] = seasonal_block[::-1]
        self.global_index += n_rounds
        self.points_processed += n_rounds
        self.trend_pairs[...] = pairs
        np.copyto(self.last_trend, trend_block[-1])
        np.copyto(self.last_detection_residual, detection_block[-1])
        self.solver.commit_run()
        if replayed is not None:
            self.assign(columns, replayed)
            trend_block[:, columns] = points[0]
            seasonal_block[:, columns] = points[1]
            residual_block[:, columns] = points[2]
            detection_block[:, columns] = points[3]
            score_block[:, columns] = points[4]
        return stop, True

    @hotpath
    def _replay_marked(
        self,
        columns: np.ndarray,
        pre_run_monitor: ColumnarNSigma,
        values: np.ndarray,
        cuts: list,
    ) -> tuple["FleetKernel", np.ndarray, int]:
        """Replay the marked columns of a finished, uncommitted run.

        The columns are gathered from the pre-run state (nothing of the
        run is committed yet; the monitor, updated in place, comes from
        its pre-run copy) into one narrow kernel that advances the run's
        ``(rounds, k)`` ``values`` itself.  ``cuts`` is its schedule:
        ascending, ``r`` and ``r + 1`` for every round ``r`` the
        speculative run saw trip, then the run length.  Each such round
        becomes a one-round run, which searches what trips in place
        (:meth:`_search_shifts`); the rounds between advance as ordinary
        runs.  A column that a search moved off its speculative trajectory
        may trip elsewhere: the narrow kernel's own run then marks and
        replays it the same way, on ever shorter runs.

        Returns ``(kernel, points, bad)``: the narrow kernel after the run,
        its own ``(5, rounds, k)`` trend / seasonal / residual / detection
        residual / score, and the first round that went non-finite (the run
        length when none did).
        """
        sub = self.select(columns)
        sub.monitor = pre_run_monitor.select(columns)
        # The caller's ``block[start:stop, columns]`` gather comes out
        # column-major; rows must be contiguous for the native body (once
        # per replay -- every cut below reads this one block).
        values = np.ascontiguousarray(values)
        points = np.empty((5,) + values.shape)
        row = 0
        solved = True
        for stop in cuts:
            if solved and row < stop:
                row, solved = sub._advance_run(values, row, stop, *points)
        return sub, points, values.shape[0] if solved else row

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
        monitor, and ``scores`` (the trials' monitors have folded the point
        in) -- or ``(None, None, 0)`` when a candidate went non-finite.
        """
        shifts = self._shifts
        n_shifts = shifts.size
        wide = self.select(np.repeat(columns, n_shifts))
        # A trial is a plain advance: candidates do not search.
        wide.shift_window = 0
        wide.global_index += np.tile(shifts, columns.size)
        trials = np.empty((5, 1, wide._n))
        observed = np.repeat(values, n_shifts)[None, :]
        if not wide._advance_run(observed, 0, 1, *trials)[1]:
            return None, None, 0
        residual = trials[2, 0].reshape(columns.size, n_shifts)
        best = np.abs(residual).argmin(axis=1)
        picks = best + np.arange(0, wide._n, n_shifts)
        chosen = shifts[best]
        winners = wide.select(picks)
        winners.global_index -= chosen
        winners.last_applied_shift = np.where(
            chosen != 0, chosen, winners.last_applied_shift
        )
        winners.last_detection_residual[:] = residual[:, 0]
        winners.monitor = self.monitor.select(columns)
        points = trials[:, :, picks]
        points[3, 0] = residual[:, 0]
        points[4, 0] = scores
        return winners, points, 1

    def _run_workspaces(self, n_rounds: int) -> tuple:
        """(Re)size the wavefront's workspaces; returns views for an ``n_rounds`` run.

        ``(hist, rhs, weights, pattern, seasonal)``: the skewed trend
        history ``(T + I + 1, I, n)``, the reversed-round right-hand sides
        ``(2, T, n)``, the IRLS weights ``(2, I, n)`` (row 0 is the
        constant 1.0 of a round's first iteration), the five distinct
        weighted pattern values ``(5, I, n)`` and the per-iteration
        seasonal scratch ``(I, n)``.
        """
        n = self._n
        n_iterations = self.iterations
        workspaces = self._workspaces
        if (
            workspaces is None
            or workspaces[0].shape[2] != n
            or workspaces[1].shape[1] < n_rounds
        ):
            weights = np.empty((2, n_iterations, n))
            weights[:, 0] = 1.0
            self._workspaces = workspaces = (
                np.empty((n_rounds + n_iterations + 1, n_iterations, n)),
                np.empty((2, n_rounds, n)),
                weights,
                np.empty((5, n_iterations, n)),
                np.empty((n_iterations, n)),
            )
        hist, rhs, weights, pattern, seasonal = workspaces
        return hist, rhs[:, :n_rounds], weights, pattern, seasonal
