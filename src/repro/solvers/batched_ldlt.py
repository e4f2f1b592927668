"""Iteration-stacked struct-of-arrays incremental banded LDL^T solver.

:class:`BatchedIncrementalLDLT` holds ``I x n`` *independent* growing
banded systems -- the ``I`` IRLS-iteration systems of each of ``n``
monitored series -- in one state, and advances any contiguous slab of
iterations ``[lo, hi)`` of every series with a handful of NumPy array
operations instead of a Python loop over scalar
:class:`~repro.solvers.incremental_ldlt.IncrementalBandedLDLT` instances.
It plays two roles for the fleet kernel
(:class:`repro.core.fleet.FleetKernel`).  It is the *state container* of
every kernel: the committed / working ping-pong below is where a fleet's
solver state lives, whichever body advances it -- the kernel's native run
(``repro/core/advance_run.c``) borrows both sides through
:meth:`BatchedIncrementalLDLT.run_buffers`, reads the committed one,
writes the working one -- for every member, or for the subset of members
the run names -- and :meth:`commit_run` flips them as for any run, or
copies the subset's columns across.
And :meth:`extend_solve` is the *reference arithmetic*: the NumPy body
whose wavefront schedule solves one anti-diagonal of the (round x
iteration) grid per call (``T + I - 1`` stacked steps a run, not ``T *
I``), which the native run must reproduce bit for bit and which is what
runs on a machine without a C compiler.

The state layout is columnar (struct of arrays) and *cell-major*, with the
iteration axis next to the series axis: the corrected trailing blocks are
one ``(w, w, I, n)`` array -- entry ``(i, j)`` of every system is a
contiguous ``(I, n)`` plane, a slab of iterations a contiguous piece of it
-- and the corrected right-hand sides ``(w, I, n)``, declared once in
``BatchedIncrementalLDLT.COLUMNS`` (a kernel segment's ``solver_*``
sections; :mod:`repro.utils.columns` walks it for membership, persistence
and scalar copies).  No system size is stored: the arithmetic never reads
one, and a fleet kernel derives it.  Because every system is independent,
each scalar operation of the sequential solver becomes one elementwise
array operation over a ``(hi - lo, n)`` slab,
applied in *exactly the same order* as the scalar kernel performs it.  Elementwise IEEE-754 double arithmetic is
identical between Python floats and NumPy float64 (both are
round-to-nearest binary64, and no reductions or fused operations are
involved), so the stacked solver reproduces the scalar solvers' results
exactly -- the test suite asserts equality on every path.

One deliberate difference from the scalar solver's *shape* (not values):
coefficient updates are addressed in *local* trailing-block coordinates
(``0 .. w + num_new``) rather than absolute indices, because member
systems may have different absolute sizes (series go live at different
times) while sharing the same local update pattern.  Local index ``i``
corresponds to absolute index ``size - w + i`` of that member's system --
for a member shorter than ``w`` the leading local indices are its phantom
unit pivots (see :mod:`repro.solvers.incremental_ldlt`), which a caller
may only ever add ``+-0.0`` to.

Advancing is transactional per *run* (:meth:`begin_run` ...
:meth:`extend_solve` ... :meth:`commit_run`, or :meth:`run_buffers` ...
:meth:`commit_run` when a routine outside this class does the extends).  The state lives in a pair
of capacity-managed *ping-pong* buffers: a run reads each iteration's
pre-run state from the committed side the first time that iteration is
extended and keeps all of its progress on the other side, so the
committed side stays untouched -- it is the run's single undo level --
until :meth:`commit_run` flips the two.  A run that is simply never
committed costs nothing to abandon, every read-back before the commit
(:meth:`extract`, and the :meth:`select` gathers -- repeats allowed -- that
the fleet kernel replays tripped columns and their shift candidates from)
still sees the pre-run state, and the hot path allocates nothing but the
sweep temporaries.  The spare columns
of the buffers double as append capacity: absorbing ``m`` late-joining
members costs O(m) amortized instead of one full copy per absorption.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.analysis import hotpath
from repro.solvers.incremental_ldlt import IncrementalBandedLDLT
from repro.utils import columns as columnar
from repro.utils.columns import Array

__all__ = ["BatchedIncrementalLDLT"]


class BatchedIncrementalLDLT:
    """``I x n`` independent incremental banded solvers in one stacked state.

    Instances are normally created with :meth:`pack` (from scalar
    solvers of any size, empty ones included), or from the named arrays
    of a store segment (:func:`repro.utils.columns.from_arrays`).  The
    constructor takes the shape -- half bandwidth ``w`` shared by every
    member system, ``I`` systems per member, ``n`` members -- and leaves
    the state to them.
    """

    #: A member's state, in segment order (``solver_*`` sections of a
    #: kernel): the corrected trailing blocks ``(w, w, I, n)`` and their
    #: right-hand sides ``(w, I, n)``, each a scalar solver's attribute
    #: per iteration.  The committed side of the ping-pong below.
    COLUMNS = (
        Array("blocks", float, -1, ("w", "w", "I"), "_m_trail"),
        Array("rhs", float, -1, ("w", "I"), "_bp_trail"),
    )

    def __init__(self, half_bandwidth: int, iterations: int, n: int):
        if half_bandwidth < 1:
            raise ValueError("half_bandwidth must be at least 1")
        self.half_bandwidth = int(half_bandwidth)
        self._iterations = iterations
        self._n = n
        #: the ping-pong: ``_blocks`` / ``_rhs`` -- ``(w, w, I, cap)``,
        #: ``(w, I, cap)`` -- are the committed state, and this the other
        #: side of the same shapes, the run in progress (and scratch
        #: between runs).  Spare trailing columns are append capacity.
        self._working: tuple | None = None
        #: last validated update pattern, keyed by argument identity (the
        #: fleet kernel passes the same module constants on every run)
        self._pattern_cache: tuple | None = None
        #: the staged run: ``(num_new, cells, limits)`` between
        #: begin_run and commit_run, ``()`` for a run_buffers run, else None
        self._run: tuple | None = None
        #: iterations ``[0, _entered)`` have been extended in this run (and
        #: read their state from the working side)
        self._entered = 0
        #: augmented elimination workspaces, one view per slab width:
        #: ``_slabs[k - 1]`` is a compact ``(block, block + 1, k, n)`` view
        #: of one shared allocation -- the extended block with the
        #: right-hand side as its last column, so every sweep updates
        #: matrix and RHS in one array operation (a slab's workspace is
        #: rebuilt from the state on every step, so it need not sit at the
        #: slab's place in a full-width array, and a narrow slab keeps the
        #: locality of a single system's workspace)
        self._slabs: tuple = ()

    def _blank(self, n: int) -> "BatchedIncrementalLDLT":
        """Same shape and validated pattern: a gathered stack that is
        advanced right away (the fleet kernel's narrow advances and
        replays) does not validate it again."""
        stack = BatchedIncrementalLDLT(self.half_bandwidth, self._iterations, n)
        stack._pattern_cache = self._pattern_cache
        return stack

    # ----------------------------------------------------------- construction

    @classmethod
    def pack(
        cls, members: Sequence[Sequence[IncrementalBandedLDLT]]
    ) -> "BatchedIncrementalLDLT":
        """Lift scalar solvers into one stacked state.

        ``members[k]`` holds the ``I`` per-iteration solvers of member
        ``k``.  Every solver must share the same half bandwidth; the
        scalar instances are left untouched.
        """
        if not members or not members[0]:
            raise ValueError("pack() needs at least one solver")
        w = members[0][0].half_bandwidth
        iterations = len(members[0])
        for index, solvers in enumerate(members):
            if len(solvers) != iterations:
                raise ValueError(
                    f"member {index} has {len(solvers)} solvers, expected "
                    f"{iterations}"
                )
            for solver in solvers:
                if solver.half_bandwidth != w:
                    raise ValueError(
                        f"member {index} has half bandwidth "
                        f"{solver.half_bandwidth}, expected {w}"
                    )
        stack = cls(w, iterations, len(members))
        columnar.pack(stack, members)
        return stack

    @property
    def n_series(self) -> int:
        """Number of members (each holds ``iterations`` systems)."""
        return self._n

    @property
    def iterations(self) -> int:
        """Number of stacked systems per member."""
        return self._iterations

    # ------------------------------------------------ scalar interoperability

    def extract(self, index: int) -> list[IncrementalBandedLDLT]:
        """Materialize member ``index`` as its ``I`` scalar solvers, sizes unset."""
        return self.extract_many(np.array([index], dtype=np.intp))[0]

    def extract_many(self, columns: np.ndarray) -> list[list[IncrementalBandedLDLT]]:
        """Materialize the members at ``columns`` as scalar solvers at once
        (one gather per array, see :func:`repro.utils.columns.unpack`).
        Their ``size`` is the caller's to set: the stack holds none."""
        columns = np.asarray(columns, dtype=np.intp)
        w, iterations = self.half_bandwidth, self._iterations
        members = [
            [IncrementalBandedLDLT(w) for _ in range(iterations)] for _ in columns
        ]
        columnar.unpack(self, columns, members)
        return members

    def load(self, index: int, solvers: Sequence[IncrementalBandedLDLT]) -> None:
        """Overwrite member ``index`` with its ``I`` scalar solvers' state."""
        if len(solvers) != self._iterations:
            raise ValueError(f"expected {self._iterations} solvers")
        for solver in solvers:
            if solver.half_bandwidth != self.half_bandwidth:
                raise ValueError("half bandwidth mismatch")
        columnar.load(self, index, solvers)

    # ------------------------------------------------------ batch membership

    def append(self, other: "BatchedIncrementalLDLT") -> None:
        """Append the members of ``other`` (e.g. a freshly packed stack),
        amortized O(members of ``other``): the buffers' spare columns."""
        if (
            other.half_bandwidth != self.half_bandwidth
            or other._iterations != self._iterations
        ):
            raise ValueError("half bandwidth or iteration count mismatch")
        columnar.append(self, other)
        self._n += other._n

    #: gathered copies of members (only their columns are copied; same
    #: validated pattern, see ``_blank``) and the scatter back
    select = columnar.select
    assign = columnar.assign

    # -------------------------------------------------------------- advancing

    def _staged_pattern(self, num_new: int, rows, columns) -> tuple:
        """Validate the shared update pattern; returns ``(cells, limits)``.

        Cached by argument identity: the fleet kernel passes the same
        module-constant pattern arrays on every run, so after the first
        call the (pure) validation and profiling are skipped entirely.
        """
        cache = self._pattern_cache
        if (
            cache is not None
            and cache[0] is rows
            and cache[1] is columns
            and cache[2] == num_new
        ):
            return cache[3]
        w = self.half_bandwidth
        block = w + num_new
        checked_rows = np.asarray(rows, dtype=np.intp)
        checked_columns = np.asarray(columns, dtype=np.intp)
        if checked_rows.shape != checked_columns.shape or checked_rows.ndim != 1:
            raise ValueError("rows and columns must be equal-length 1-D arrays")
        if checked_rows.size and (
            checked_rows.min() < 0
            or checked_rows.max() >= block
            or checked_columns.min() < 0
            or checked_columns.max() >= block
            or np.abs(checked_rows - checked_columns).max() > w
        ):
            raise ValueError(
                "update positions must lie in the extended trailing block "
                f"[0, {block}) and respect the half bandwidth {w}"
            )
        # Same-cell accumulation order is the tuple order, which is caller
        # order.
        cells = tuple(zip(checked_rows.tolist(), checked_columns.tolist()))
        # Structural profile of the appended rows: appended row ``w + i``
        # of the staged block holds exact ``+0.0`` left of its first
        # pattern entry (the setup zero-fill writes it and nothing else
        # does), so an elimination sweep ``k < first_col[i]`` would give
        # it a factor of ``+-0.0`` and subtract ``+-0.0 * pivot_row``
        # from cells that are themselves ``+0.0`` or untouched nonzeros
        # -- bitwise a no-op in either case.  Each sweep can therefore
        # stop at a precomputed row limit.  The skipped rows must form a
        # suffix of the block, so the limits apply only while
        # ``first_col`` is non-decreasing; otherwise every sweep runs
        # the full range (same values, more work).
        first_col = [block] * num_new
        for row, column in cells:
            if row >= w and column < first_col[row - w]:
                first_col[row - w] = column
            if column >= w and row < first_col[column - w]:
                first_col[column - w] = row
        if all(a <= b for a, b in zip(first_col, first_col[1:])):
            limits = tuple(
                max(k + 1, w + sum(1 for c in first_col if c <= k))
                for k in range(block - 1)
            )
        else:
            limits = (block,) * (block - 1)
        self._pattern_cache = (rows, columns, num_new, (cells, limits))
        return cells, limits

    def begin_run(self, num_new: int, rows: np.ndarray, columns: np.ndarray) -> None:
        """Open a run of :meth:`extend_solve` calls sharing one pattern.

        ``num_new`` variables (``1 <= num_new <= half_bandwidth``) are
        appended to a system per :meth:`extend_solve`; ``rows``/``columns``
        are the shared coefficient-update positions in *local*
        trailing-block coordinates ``[0, half_bandwidth + num_new)``, shape
        ``(k,)``.  Every system receives the same update pattern (the
        fleet kernel guarantees this: a OneShotSTL point touches the same
        local positions for every series and iteration, and a series'
        first two points carry exact zeros where they lack a term).
        As in the scalar solver, each value is added at ``(row, column)``
        *and* at the mirrored position.

        Validates the pattern once and sizes the elimination workspace and
        the working side of the ping-pong, so each :meth:`extend_solve` of
        the run skips all validation, shape checking and state allocation.
        Nothing the run computes is visible in the committed state before
        :meth:`commit_run`; opening another run instead abandons it.
        """
        w = self.half_bandwidth
        if not 1 <= num_new <= w:
            raise ValueError(f"num_new must be in [1, {w}], got {num_new}")
        cells, limits = self._staged_pattern(num_new, rows, columns)
        block = w + num_new
        shape = (block, block + 1, self._iterations, self._n)
        if not self._slabs or self._slabs[-1].shape != shape:
            scratch = np.empty(shape).reshape(-1)
            plane = block * (block + 1) * self._n
            self._slabs = tuple(
                scratch[: plane * k].reshape(block, block + 1, k, self._n)
                for k in range(1, self._iterations + 1)
            )
        self._size_working_side()
        self._entered = 0
        self._run = (num_new, cells, limits)

    def _size_working_side(self) -> tuple:
        """Give the working side of the ping-pong the committed side's
        shape; returns it."""
        working = self._working
        if working is None or working[0].shape != self._blocks.shape:
            self._working = working = tuple(
                map(np.empty_like, (self._blocks, self._rhs))
            )
        return working

    def run_buffers(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Open a run that a routine outside this class advances.

        Returns the full-capacity ``(committed blocks, committed
        right-hand sides, working blocks, working right-hand sides)``
        buffers -- ``(w, w, I, capacity)`` and ``(w, I, capacity)``, C
        contiguous, members in the leading ``n_series`` columns.  The
        caller promises what a run of :meth:`extend_solve` calls
        guarantees by construction: it only *reads* the committed side,
        and before :meth:`commit_run` it has written the working side of
        every iteration of every member it advances with that system's
        post-run state.  Until the commit every read-back still sees the
        pre-run state, and opening another run abandons this one.
        """
        working = self._size_working_side()
        self._entered = self._iterations
        self._run = ()
        return self._blocks, self._rhs, *working

    @hotpath
    def extend_solve(
        self,
        lo: int,
        hi: int,
        values: Sequence,
        rhs: np.ndarray,
        out_trend: np.ndarray,
        out_seasonal: np.ndarray,
    ) -> None:
        """Extend iterations ``[lo, hi)`` of every member and solve their tails.

        Requires an open run (:meth:`begin_run`); iterations must enter a
        run in index order (``lo`` never exceeds the count already
        entered), which is what lets the first extend of an iteration read
        the committed side and every later one the working side without
        per-iteration bookkeeping.  ``values[position]`` is the value of
        pattern entry ``position`` -- a ``(hi - lo, n)`` array or a scalar
        -- ``rhs`` the ``(num_new, hi - lo, n)`` right-hand sides; the
        last two solution entries land in ``out_seasonal`` (local row
        ``w - 1``) and ``out_trend`` (row ``w - 2``), both ``(hi - lo, n)``.

        For finite operands the values are identical to every system's
        scalar :meth:`IncrementalBandedLDLT.extend` followed by
        ``tail_solution(2)`` -- the tail sweep continues the extend's
        elimination in the same scratch (the new trailing state *is* the
        partially eliminated block), the dead back-substitution rows
        below ``w - 2`` are skipped, and the scalar solver's pivot guards
        are dropped: a zero/invalid pivot propagates non-finite values into
        the outputs instead of raising, which the caller screens post hoc
        (the fleet kernel then leaves the run uncommitted and the round
        replays through the scalar solvers to reproduce the exact scalar
        values or error).
        """
        w = self.half_bandwidth
        num_new, cells, limits = self._run
        block = w + num_new
        n = self._n
        m_work, b_work = self._working
        # The staged workspace is *augmented*: the right-hand side rides as
        # column ``block`` of the matrix, so each elimination sweep updates
        # matrix and RHS in one array operation (the per-element multiply
        # and subtract are the unfused ones of the scalar extend, so values
        # match bit for bit).
        if not 0 <= lo < hi <= self._iterations or lo > self._entered:
            raise ValueError(
                f"slab [{lo}, {hi}) is empty, out of range or skips an "
                "iteration that has not entered the run yet"
            )
        aug = self._slabs[hi - lo - 1]
        aug[:w, w:block] = 0.0
        aug[w:, :block] = 0.0
        warm = max(lo, min(hi, self._entered))
        if warm > lo:
            aug[:w, :w, : warm - lo] = m_work[:, :, lo:warm, :n]
            aug[:w, block, : warm - lo] = b_work[:, lo:warm, :n]
        if hi > warm:
            # First extend of these iterations in this run: their pre-run
            # state is on the committed side.
            aug[:w, :w, warm - lo :] = self._blocks[:, :, warm:hi, :n]
            aug[:w, block, warm - lo :] = self._rhs[:, warm:hi, :n]
            self._entered = hi
        aug[w:, block] = rhs
        # Sequential per-entry accumulation -- cells hit by several pattern
        # entries must fold in caller order, like the scalar solver's
        # sequential `+=`.
        for position, (row, column) in enumerate(cells):
            value = values[position]
            cell = aug[row, column]
            np.add(cell, value, out=cell)
            if row != column:
                cell = aug[column, row]
                np.add(cell, value, out=cell)
        # Sweeps stop at the staged per-sweep row limit: appended rows
        # that have not coupled in yet carry an exact ``+-0.0`` factor,
        # and subtracting ``+-0.0 * pivot_row`` is bitwise a no-op (see
        # _staged_pattern).  Same sweep order as the scalar kernel, whose
        # `if factor != 0.0` skip is likewise a pure no-op for finite
        # operands (x - 0.0 * y == x up to the sign of a zero), so the
        # unconditional vectorized form computes the same values.
        for k in range(num_new):
            limit = limits[k]
            factor = aug[k + 1 : limit, k] / aug[k, k]
            aug[k + 1 : limit, k + 1 :] -= factor[:, None] * aug[k, None, k + 1 :]
        # Store the new trailing state BEFORE the tail continuation: the
        # trailing block is final here, and the tail sweep below destroys
        # it in the scratch.
        m_work[:, :, lo:hi, :n] = aug[num_new:, num_new:block]
        b_work[:, lo:hi, :n] = aug[num_new:, block]
        # Fused tail: continuing the elimination over the trailing block in
        # the same scratch performs exactly the scalar tail_solution's sweep
        # (its final pivot iteration touches no rows and is skipped).
        for k in range(num_new, block - 1):
            limit = limits[k]
            factor = aug[k + 1 : limit, k] / aug[k, k]
            aug[k + 1 : limit, k + 1 :] -= factor[:, None] * aug[k, None, k + 1 :]
        # Back substitution of the last two rows only (the rest is dead),
        # with the scalar tail_solution's accumulation order (out_trend
        # doubles as the accumulator).
        np.divide(aug[block - 1, block], aug[block - 1, block - 1], out=out_seasonal)
        np.multiply(aug[block - 2, block - 1], out_seasonal, out=out_trend)
        np.subtract(aug[block - 2, block], out_trend, out=out_trend)
        np.divide(out_trend, aug[block - 2, block - 2], out=out_trend)

    def commit_run(self, columns: "np.ndarray | slice | None" = None) -> None:
        """Make the open run's state the committed state.

        A run of every member is a buffer flip; every iteration must have
        been extended at least once (the working side holds nothing for an
        iteration the run never entered).  A run that a routine outside
        this class advanced on a subset of members passes their
        ``columns``: those are copied from the working side, and every
        other member's committed state is left as it was.
        """
        if self._run is None or self._entered != self._iterations:
            raise ValueError("no complete run to commit")
        working = self._working
        self._run = None
        if columns is not None:
            self._blocks[..., columns] = working[0][..., columns]
            self._rhs[..., columns] = working[1][..., columns]
            return
        self._working = (self._blocks, self._rhs)
        self._blocks, self._rhs = working
