"""Struct-of-arrays batched incremental banded LDL^T solver.

:class:`BatchedIncrementalLDLT` advances ``n`` *independent* growing banded
systems -- one per monitored series -- with a handful of NumPy array
operations per append instead of a Python loop over ``n`` scalar
:class:`~repro.solvers.incremental_ldlt.IncrementalBandedLDLT` instances.
It is the linear-algebra substrate of the fleet kernel
(:class:`repro.core.fleet.FleetKernel`): a thousand-series fleet pays one
elimination sweep of small stacked blocks per point, so the per-point cost
of the whole fleet approaches the cost of a single series.

The state layout is columnar (struct of arrays) and *cell-major*: the
corrected trailing block of every system is stored as one ``(w, w, n)``
array -- entry ``(i, j)`` of all ``n`` systems is a contiguous vector --
and the corrected right-hand sides as ``(w, n)``.  Because each system is
independent, every scalar operation of the sequential solver becomes one
elementwise array operation over the trailing ``n`` axis, applied in
*exactly the same order* as the scalar kernel performs it; the cell-major
layout makes every one of those operations a contiguous vector operation
(series-major ``(n, w, w)`` storage would turn each cell access into a
strided gather, which costs ~3x in practice).  Elementwise IEEE-754 double
arithmetic is identical between Python floats and NumPy float64 (both are
round-to-nearest binary64, and no reductions or fused operations are
involved), so the batched solver reproduces the scalar solver's results
exactly -- the test suite asserts equality on every path.

Two deliberate differences from the scalar solver's *shape* (not values):

* all member systems must already be in incremental mode (the dense warm-up
  of a fresh stream is a few points long and stays on the scalar path;
  :meth:`pack` lifts scalar solvers into the batch once they are warm);
* coefficient updates are addressed in *local* trailing-block coordinates
  (``0 .. w + num_new``) rather than absolute indices, because member
  systems may have different absolute sizes (series go live at different
  times) while sharing the same local update pattern.  Local index ``i``
  corresponds to absolute index ``size - w + i`` of that member's system.

Internally the corrected state lives in a pair of capacity-managed
*ping-pong* buffers: every :meth:`extend_solve` computes the new trailing
state into the inactive buffer and flips, which makes :meth:`rollback` an
O(1) flip back (the previous state is still sitting in the other buffer)
and removes all per-point allocation from the hot path (the staged
extended-block workspace is reused call to call).  The spare columns of
the buffers double as append capacity: absorbing ``m`` late-joining
members costs O(m) amortized instead of one full copy per absorption.
:meth:`undo_state` / :meth:`extract_pre_extend` expose the saved
pre-extend state so a caller can rebuild one member's pre-extend scalar
state without rolling back the rest of the fleet -- which is how the fleet
kernel retries a single series' seasonality-shift search while the other
series keep their committed update.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.analysis import hotpath
from repro.solvers.incremental_ldlt import IncrementalBandedLDLT

__all__ = ["BatchedIncrementalLDLT"]

#: smallest buffer capacity (members) allocated for a non-empty batch
_MIN_CAPACITY = 8


class BatchedIncrementalLDLT:
    """``n`` independent incremental banded solvers advanced in lockstep.

    Instances are normally created with :meth:`pack` (from warm scalar
    solvers) or :meth:`empty` (zero members, grown with :meth:`append`).

    Parameters
    ----------
    half_bandwidth:
        Half bandwidth ``w`` shared by every member system.
    m_trail:
        Corrected trailing blocks, shape ``(n, w, w)``.
    bp_trail:
        Corrected trailing right-hand sides, shape ``(n, w)``.
    sizes:
        Absolute system size of each member, shape ``(n,)`` (bookkeeping
        only; the incremental representation itself is size independent).
    """

    def __init__(
        self,
        half_bandwidth: int,
        m_trail: np.ndarray,
        bp_trail: np.ndarray,
        sizes: np.ndarray,
    ):
        if half_bandwidth < 1:
            raise ValueError("half_bandwidth must be at least 1")
        w = int(half_bandwidth)
        m_trail = np.asarray(m_trail, dtype=float)
        bp_trail = np.asarray(bp_trail, dtype=float)
        sizes = np.array(sizes, dtype=np.int64)
        if m_trail.ndim != 3 or m_trail.shape[1:] != (w, w):
            raise ValueError(f"m_trail must have shape (n, {w}, {w})")
        n = m_trail.shape[0]
        if bp_trail.shape != (n, w):
            raise ValueError(f"bp_trail must have shape ({n}, {w})")
        if sizes.shape != (n,):
            raise ValueError(f"sizes must have shape ({n},)")
        self.half_bandwidth = w
        self._n = n
        #: ping-pong state buffers in cell-major layout -- ``(w, w, cap)``
        #: blocks and ``(w, cap)`` right-hand sides: index ``_cur`` holds
        #: the committed state, the other side holds the pre-extend state
        #: while an undo level is available (and is scratch otherwise).
        #: The spare trailing columns are append capacity.
        self._m_buffers: list[np.ndarray | None] = [
            np.ascontiguousarray(m_trail.transpose(1, 2, 0)),
            None,
        ]
        self._b_buffers: list[np.ndarray | None] = [
            np.ascontiguousarray(bp_trail.T),
            None,
        ]
        self._s_buffers: list[np.ndarray | None] = [sizes, None]
        self._cur = 0
        self._undo_ok = False
        #: cache of the last validated update-pattern arrays (the fleet
        #: kernel passes the same module-constant pattern on every point)
        self._pattern_cache: tuple | None = None
        #: staged round-block state (begin_extend_block/extend_solve):
        #: validated pattern arrays, block width, and the back-substitution
        #: temporary shared by every staged solve
        self._block_pattern: tuple[int, np.ndarray, np.ndarray] | None = None
        self._block_tmp: np.ndarray | None = None
        #: staged augmented workspace: the extended block with the RHS as
        #: a trailing column, so every elimination sweep of extend_solve
        #: updates matrix and RHS in one array operation
        self._block_scratch: np.ndarray | None = None
        #: per-sweep row limits for extend_solve, from the staged
        #: pattern's structural profile (see begin_extend_block)
        self._block_limits: tuple[int, ...] = ()
        #: per-run pattern-cell views into the staged scratch
        #: (``(cell, mirror_or_None, value_position)`` per entry)
        self._block_cells: tuple = ()

    # ------------------------------------------------------- state plumbing

    def _m_state(self) -> np.ndarray:
        """Committed trailing blocks, cell-major ``(w, w, n)`` live view."""
        return self._m_buffers[self._cur][:, :, : self._n]

    def _b_state(self) -> np.ndarray:
        """Committed right-hand sides, cell-major ``(w, n)`` live view."""
        return self._b_buffers[self._cur][:, : self._n]

    @property
    def _m_trail(self) -> np.ndarray:
        """Committed trailing blocks as a series-major ``(n, w, w)`` view.

        A transposed (non-contiguous) view of the live state: reads and
        writes go straight through, which is what the cold scalar-interop
        paths use.  The hot paths work on the cell-major state directly.
        """
        return self._m_state().transpose(2, 0, 1)

    @property
    def _bp_trail(self) -> np.ndarray:
        """Committed right-hand sides as a series-major ``(n, w)`` view."""
        return self._b_state().T

    @property
    def _sizes(self) -> np.ndarray:
        """Committed member sizes, shape ``(n,)`` (live view)."""
        return self._s_buffers[self._cur][: self._n]

    def _other_side(self, capacity: int) -> int:
        """Index of the inactive buffer side, (re)allocated to ``capacity``."""
        other = 1 - self._cur
        buffer = self._m_buffers[other]
        if buffer is None or buffer.shape[2] < capacity:
            w = self.half_bandwidth
            self._m_buffers[other] = np.empty((w, w, capacity))
            self._b_buffers[other] = np.empty((w, capacity))
            self._s_buffers[other] = np.empty(capacity, dtype=np.int64)
        return other

    # ----------------------------------------------------------- construction

    @classmethod
    def empty(cls, half_bandwidth: int) -> "BatchedIncrementalLDLT":
        """A batch with zero members (grown later with :meth:`append`)."""
        w = int(half_bandwidth)
        return cls(
            w,
            np.zeros((0, w, w)),
            np.zeros((0, w)),
            np.zeros(0, dtype=np.int64),
        )

    @classmethod
    def pack(
        cls, solvers: Sequence[IncrementalBandedLDLT]
    ) -> "BatchedIncrementalLDLT":
        """Lift warm scalar solvers into one columnar batch.

        Every solver must already be in incremental mode and share the same
        half bandwidth; the scalar instances are left untouched.
        """
        if not solvers:
            raise ValueError("pack() needs at least one solver")
        w = solvers[0].half_bandwidth
        for index, solver in enumerate(solvers):
            if solver.half_bandwidth != w:
                raise ValueError(
                    f"solver {index} has half bandwidth {solver.half_bandwidth}, "
                    f"expected {w}"
                )
            if not solver.is_incremental:
                raise ValueError(
                    f"solver {index} is still in dense warm-up mode; only "
                    "incremental-mode solvers can be packed"
                )
        m_trail = np.array([solver._m_trail for solver in solvers], dtype=float)
        bp_trail = np.array([solver._bp_trail for solver in solvers], dtype=float)
        sizes = np.array([solver.size for solver in solvers], dtype=np.int64)
        return cls(w, m_trail, bp_trail, sizes)

    @property
    def n_series(self) -> int:
        """Number of member systems."""
        return self._n

    @property
    def sizes(self) -> np.ndarray:
        """Absolute system size of each member (copy)."""
        return self._sizes.copy()

    def copy(self) -> "BatchedIncrementalLDLT":
        """Independent deep copy (the pending rollback level is dropped)."""
        return BatchedIncrementalLDLT(
            self.half_bandwidth,
            self._m_trail.copy(),
            self._bp_trail.copy(),
            self._sizes.copy(),
        )

    # ------------------------------------------------ scalar interoperability

    def extract(self, index: int) -> IncrementalBandedLDLT:
        """Materialize member ``index`` as an equivalent scalar solver."""
        return self._make_scalar(
            self._m_state()[:, :, index],
            self._b_state()[:, index],
            int(self._sizes[index]),
        )

    def undo_state(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The saved pre-extend ``(m_trail, bp_trail, sizes)`` views.

        Series-major views (``(n, w, w)`` / ``(n, w)`` / ``(n,)``) of the
        inactive buffer side.  Requires an unconsumed undo level; the views
        must be treated as read-only (they will be overwritten by the next
        :meth:`extend_solve`).
        """
        if not self._undo_ok:
            raise ValueError("no extend to read back (a single undo level is kept)")
        other = 1 - self._cur
        n = self._n
        return (
            self._m_buffers[other][:, :, :n].transpose(2, 0, 1),
            self._b_buffers[other][:, :n].T,
            self._s_buffers[other][:n],
        )

    def extract_pre_extend(self, index: int) -> IncrementalBandedLDLT:
        """Scalar solver equal to member ``index`` *before* the last extend.

        Requires an unconsumed undo level (i.e. :meth:`extend_solve` was called
        and neither :meth:`rollback` nor another state rebinding happened
        since).  Used by the fleet kernel to rerun one series' point without
        disturbing the rest of the batch.
        """
        m_trail, bp_trail, sizes = self.undo_state()
        return self._make_scalar(m_trail[index], bp_trail[index], int(sizes[index]))

    def _make_scalar(self, m_trail, bp_trail, size: int) -> IncrementalBandedLDLT:
        """Scalar solver from one member's trailing state (arrays or lists)."""
        solver = IncrementalBandedLDLT(self.half_bandwidth)
        solver.size = size
        solver._incremental = True
        solver._dense_matrix = None
        solver._dense_rhs = None
        # ndarray.tolist() yields exact Python floats -- no value changes.
        solver._m_trail = (
            m_trail.tolist() if isinstance(m_trail, np.ndarray) else m_trail
        )
        solver._bp_trail = (
            bp_trail.tolist() if isinstance(bp_trail, np.ndarray) else bp_trail
        )
        return solver

    @hotpath
    def extract_many(self, columns: np.ndarray) -> list[IncrementalBandedLDLT]:
        """Materialize the members at ``columns`` as scalar solvers at once.

        Equivalent to ``[self.extract(c) for c in columns]`` but gathers
        each state array once (one fancy-indexed copy) and bulk-converts it
        with a single ``ndarray.tolist()`` instead of ``len(columns)``
        strided per-member conversions -- the hot piece of exporting a
        dirty cohort's state for an incremental checkpoint.
        """
        columns = np.asarray(columns, dtype=np.intp)
        m_lists = self._m_trail[columns].tolist()
        b_lists = self._bp_trail[columns].tolist()
        sizes = self._sizes[columns].tolist()
        return [
            self._make_scalar(m_lists[position], b_lists[position], sizes[position])
            for position in range(columns.size)
        ]

    def load(self, index: int, solver: IncrementalBandedLDLT) -> None:
        """Overwrite member ``index`` with a scalar solver's state.

        The pending undo level (if any) is left untouched, so the fleet
        kernel can keep reading other members' pre-extend state after
        scattering one member's retried update back in.
        """
        if not solver.is_incremental:
            raise ValueError("only incremental-mode solvers can be loaded")
        if solver.half_bandwidth != self.half_bandwidth:
            raise ValueError("half bandwidth mismatch")
        self._m_state()[:, :, index] = solver._m_trail
        self._b_state()[:, index] = solver._bp_trail
        self._sizes[index] = solver.size

    def unpack(self) -> list[IncrementalBandedLDLT]:
        """Materialize every member as an independent scalar solver."""
        return [self.extract(index) for index in range(self.n_series)]

    # ------------------------------------------------------ batch membership

    def append(self, other: "BatchedIncrementalLDLT") -> None:
        """Append the members of ``other`` (e.g. a freshly packed batch).

        Appending is amortized O(members of ``other``): the state buffers
        carry spare capacity (doubled whenever they fill up), so absorbing
        a trickle of late-joining series one at a time costs O(total)
        rather than one full-fleet copy per absorption.
        """
        if other.half_bandwidth != self.half_bandwidth:
            raise ValueError("half bandwidth mismatch")
        n, m = self._n, other._n
        buffer = self._m_buffers[self._cur]
        if buffer.shape[2] < n + m:
            capacity = max(2 * (n + m), _MIN_CAPACITY)
            w = self.half_bandwidth
            grown_m = np.empty((w, w, capacity))
            grown_b = np.empty((w, capacity))
            grown_s = np.empty(capacity, dtype=np.int64)
            grown_m[:, :, :n] = self._m_state()
            grown_b[:, :n] = self._b_state()
            grown_s[:n] = self._sizes
            self._m_buffers[self._cur] = grown_m
            self._b_buffers[self._cur] = grown_b
            self._s_buffers[self._cur] = grown_s
        self._m_buffers[self._cur][:, :, n : n + m] = other._m_state()
        self._b_buffers[self._cur][:, n : n + m] = other._b_state()
        self._s_buffers[self._cur][n : n + m] = other._sizes
        self._n = n + m
        self._undo_ok = False

    def select(self, columns: np.ndarray) -> "BatchedIncrementalLDLT":
        """Gathered copy of the members at ``columns`` (fancy indexing)."""
        return BatchedIncrementalLDLT(
            self.half_bandwidth,
            self._m_trail[columns],
            self._bp_trail[columns],
            self._sizes[columns],
        )

    def assign(self, columns: np.ndarray, other: "BatchedIncrementalLDLT") -> None:
        """Scatter the members of ``other`` back into ``columns``."""
        self._m_state()[:, :, columns] = other._m_state()
        self._b_state()[:, columns] = other._b_state()
        self._sizes[columns] = other._sizes
        self._undo_ok = False

    # -------------------------------------------------------------- advancing

    @hotpath
    def rollback(self) -> None:
        """Undo the most recent :meth:`extend_solve` for the whole batch in O(1)."""
        if not self._undo_ok:
            raise ValueError("no extend to roll back (a single undo level is kept)")
        self._cur = 1 - self._cur
        self._undo_ok = False

    def _validated_pattern(
        self, num_new: int, rows, columns
    ) -> tuple[np.ndarray, np.ndarray]:
        """Validate the shared update pattern (cached by argument identity).

        The fleet kernel passes the same module-constant pattern arrays on
        every single point, so after the first call the (pure) validation
        is skipped entirely.
        """
        cache = self._pattern_cache
        if (
            cache is not None
            and cache[0] is rows
            and cache[1] is columns
            and cache[2] == num_new
        ):
            return cache[3], cache[4]
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
        self._pattern_cache = (rows, columns, num_new, checked_rows, checked_columns)
        return checked_rows, checked_columns

    def begin_extend_block(
        self, num_new: int, rows: np.ndarray, columns: np.ndarray
    ) -> None:
        """Stage a run of :meth:`extend_solve` calls sharing one pattern.

        ``num_new`` variables (``1 <= num_new <= half_bandwidth``) are
        appended to every member system per :meth:`extend_solve`;
        ``rows``/``columns`` are the shared coefficient-update positions in
        *local* trailing-block coordinates ``[0, half_bandwidth +
        num_new)``, shape ``(k,)``.  Every member receives the same update
        pattern (the fleet kernel guarantees this: the steady-state
        OneShotSTL point touches the same local positions for every
        series).  As in the scalar solver, each value is added at ``(row,
        column)`` *and* at the mirrored position.

        Validates the shared update pattern once and pre-sizes the staged
        augmented workspace, so each :meth:`extend_solve` of the run
        skips all validation, shape checking and allocation.  The staged
        pattern stays valid until the next :meth:`begin_extend_block`;
        membership changes (append/assign) between runs are fine because
        every call re-reads ``self._n``.
        """
        w = self.half_bandwidth
        if not 1 <= num_new <= w:
            raise ValueError(f"num_new must be in [1, {w}], got {num_new}")
        checked_rows, checked_columns = self._validated_pattern(
            num_new, rows, columns
        )
        block = w + num_new
        n = self._n
        tmp = self._block_tmp
        if tmp is None or tmp.shape[0] < n:
            self._block_tmp = np.empty(n)
        scratch = self._block_scratch
        if scratch is None or scratch.shape[0] != block or scratch.shape[2] < n:
            self._block_scratch = np.empty((block, block + 1, n))
        # Pattern-cell views are resolved once per run: each extend_solve
        # then applies the shared update through the views directly,
        # skipping numpy's index parsing on every one of the (mirrored)
        # pattern entries.  Views into the freshly sized scratch stay
        # valid for the whole run; same-cell accumulation order is the
        # tuple order, which is caller order.
        scratch = self._block_scratch
        cells = []
        for position in range(checked_rows.size):
            row, column = checked_rows[position], checked_columns[position]
            mirror = scratch[column, row, :n] if row != column else None
            cells.append((scratch[row, column, :n], mirror, position))
        self._block_cells = tuple(cells)
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
        for row, column in zip(checked_rows.tolist(), checked_columns.tolist()):
            if row >= w and column < first_col[row - w]:
                first_col[row - w] = column
            if column >= w and row < first_col[column - w]:
                first_col[column - w] = row
        if all(a <= b for a, b in zip(first_col, first_col[1:])):
            self._block_limits = tuple(
                max(k + 1, w + sum(1 for c in first_col if c <= k))
                for k in range(block - 1)
            )
        else:
            self._block_limits = (block,) * (block - 1)
        self._block_pattern = (num_new, checked_rows, checked_columns)

    @hotpath
    def extend_solve(
        self,
        values_t: np.ndarray,
        rhs_t: np.ndarray,
        out_trend: np.ndarray,
        out_seasonal: np.ndarray,
    ) -> None:
        """Append the staged variables to every member and solve the tail.

        Requires a preceding :meth:`begin_extend_block`.  ``values_t`` is
        the cell-major ``(k, n)`` pattern-value buffer and ``rhs_t`` the
        cell-major ``(num_new, n)`` right-hand sides; the last two solution
        entries land in ``out_seasonal`` (local row ``w - 1``) and
        ``out_trend`` (row ``w - 2``), both shape ``(n,)``.

        For finite operands the values are identical to every member's
        scalar :meth:`IncrementalBandedLDLT.extend` followed by
        ``tail_solution(2)`` -- the tail sweep continues the extend's
        elimination in the same scratch (the committed trailing state *is*
        the partially eliminated block), the dead back-substitution rows
        below ``w - 2`` are skipped, and the scalar solver's pivot guards
        are dropped: a zero/invalid pivot propagates non-finite values into
        the outputs instead of raising, which the caller screens post hoc
        (the fleet kernel rolls the round back with :meth:`rollback`, and
        the round replays through the scalar solvers to reproduce the exact
        scalar values or error).  The new trailing state is committed into
        the inactive ping-pong buffer and the pre-extend state stays intact
        on the other side as the single undo level.
        """
        w = self.half_bandwidth
        num_new = self._block_pattern[0]
        block = w + num_new
        n = self._n
        # The staged workspace is *augmented*: the right-hand side rides as
        # column ``block`` of the matrix, so each elimination sweep updates
        # matrix and RHS in one array operation (the per-element multiply
        # and subtract are the unfused ones of the scalar extend, so values
        # match bit for bit).  The sweep temporaries are deliberately
        # allocated fresh: repeated same-size allocations reuse hot
        # addresses, which beats per-solver persistent buffers that
        # multiply the working set by the iteration count.
        aug = self._block_scratch[:, :, :n]
        aug[:w, w:block] = 0.0
        aug[w:, :block] = 0.0
        aug[:w, :w] = self._m_state()
        aug[:w, block] = self._b_state()
        aug[w:, block] = rhs_t
        # Sequential per-entry accumulation -- cells hit by several pattern
        # entries must fold in caller order, like the scalar solver's
        # sequential `+=` -- through the cell views staged by
        # begin_extend_block.
        for view, mirror, position in self._block_cells:
            value = values_t[position]
            np.add(view, value, out=view)
            if mirror is not None:
                np.add(mirror, value, out=mirror)
        # Sweeps stop at the staged per-sweep row limit: appended rows
        # that have not coupled in yet carry an exact ``+-0.0`` factor,
        # and subtracting ``+-0.0 * pivot_row`` is bitwise a no-op (see
        # begin_extend_block).  Same sweep order as the scalar kernel,
        # whose `if factor != 0.0` skip is likewise a pure no-op for finite
        # operands (x - 0.0 * y == x up to the sign of a zero), so the
        # unconditional vectorized form computes the same values.
        limits = self._block_limits
        for k in range(num_new):
            limit = limits[k]
            factor = aug[k + 1 : limit, k] / aug[k, k]
            aug[k + 1 : limit, k + 1 :] -= factor[:, None, :] * aug[k, None, k + 1 :]
        # Commit BEFORE the tail continuation: the trailing block is final
        # here, and the tail sweep below must not observe its own updates
        # in the committed state (rollback/extract_pre_extend still see the
        # pre-extend side).
        sizes = self._sizes
        other = self._other_side(self._m_buffers[self._cur].shape[2])
        self._m_buffers[other][:, :, :n] = aug[num_new:, num_new:block]
        self._b_buffers[other][:, :n] = aug[num_new:, block]
        np.add(sizes, num_new, out=self._s_buffers[other][:n])
        self._cur = other
        self._undo_ok = True
        # Fused tail: continuing the elimination over the trailing block in
        # the same scratch performs exactly the scalar tail_solution's sweep
        # (its final pivot iteration touches no rows and is skipped).
        for k in range(num_new, block - 1):
            limit = limits[k]
            factor = aug[k + 1 : limit, k] / aug[k, k]
            aug[k + 1 : limit, k + 1 :] -= factor[:, None, :] * aug[k, None, k + 1 :]
        # Back substitution of the last two rows only (the rest is dead),
        # with the scalar tail_solution's accumulation order.
        tmp = self._block_tmp[:n]
        np.divide(aug[block - 1, block], aug[block - 1, block - 1], out=out_seasonal)
        np.multiply(aug[block - 2, block - 1], out_seasonal, out=tmp)
        np.subtract(aug[block - 2, block], tmp, out=tmp)
        np.divide(tmp, aug[block - 2, block - 2], out=out_trend)
