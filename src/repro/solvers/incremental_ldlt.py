"""Incremental banded LDL^T solver (generalized OnlineDoolittle, Algorithm 4).

The OneShotSTL online phase repeatedly solves a *growing* symmetric
positive-definite banded linear system ``A x = b`` in which

* each step appends a small, fixed number of new variables,
* the appended terms only modify matrix entries whose row and column both
  lie within the trailing ``w`` indices of the previous system (``w`` is the
  half bandwidth), and
* only the last few entries of the solution are required.

Under these conditions the factorization work per append is ``O(w^2)`` --
independent of the total system size -- which is exactly the observation
behind the paper's OnlineDoolittle algorithm (Algorithm 4).

The state kept here is the *Schur form* of that algorithm.  Once an index
moves more than ``w`` positions away from the end it is finalized: no
future append can touch it, so its entire influence on the rest of the
system is summarized by the Schur-complement correction it leaves on the
trailing block.  The solver therefore stores only the *corrected* trailing
block ``M_trail`` (``w x w``) and right-hand side ``bp_trail`` (``w``): the
raw trailing coefficients minus the accumulated correction of every
finalized column.  In LDL^T terms these equal ``L_tail D_tail L_tail^T``
and ``L_tail z_tail`` of the classic OnlineDoolittle state -- the two
representations are algebraically identical, but the Schur form advances
with one small dense elimination per append instead of re-deriving
off-band factor columns.

Appending ``k`` variables extends the corrected block to ``(w + k)`` rows,
applies the coefficient updates, and then eliminates the ``k`` oldest
variables (they become finalized) in one elimination sweep.  The last
``w`` entries of the full solution are recovered by solving the ``w x w``
corrected system directly -- no entry outside the trailing block can
influence them.

The trailing block is at most ``2w`` wide (6x6 for the OneShotSTL system),
far below the size where NumPy ufunc/BLAS dispatch pays for itself, so the
per-append kernel keeps the block as plain Python floats and unrolls the
arithmetic; NumPy appears only at the API boundary.  Callers in a
per-point loop (OneShotSTL runs ``I`` of these solvers per observation)
get two further conveniences:

* :meth:`IncrementalBandedLDLT.extend` accepts, besides the classic
  iterable of ``(row, column, value)`` triples, a tuple of three equal
  length arrays ``(rows, columns, values)`` -- the shape produced by
  :class:`repro.core.online_system.ContributionWorkspace` -- so the hot
  path hands over one preallocated array bundle instead of a fresh list of
  tuples per point.
* :meth:`IncrementalBandedLDLT.rollback` undoes the most recent
  :meth:`extend` in O(1) time.  Every extend rebinds (never mutates) the
  ``O(w^2)`` state, so one level of undo is just a bundle of saved
  references.  OneShotSTL's seasonality-shift search uses this to retry a
  point with candidate shifts without paying for a deep snapshot on the
  (overwhelmingly common) points where the search never triggers.
* :meth:`IncrementalBandedLDLT.append_point` is the OneShotSTL step
  itself: ``extend`` of the steady-state 13-entry pattern plus
  ``tail_solution(2)``, fused and unrolled on local floats.  It runs the
  same operations in the same order, so it matches the generic pair bit
  for bit, pivot errors included, at about a fifth of its cost; the
  model's first two points, whose pattern lacks difference terms, and
  every other caller use the generic pair.

A fresh solver already *is* that Schur form: the corrected block starts
as the ``w x w`` identity with a zero right-hand side.  Read as a system,
those are ``w`` *phantom* variables ahead of the stream -- decoupled unit
pivots with solution 0.  While the stream is shorter than ``w`` they fill
the leading rows of the block, and nothing ever couples to them (updates
may only address real indices), so when an append finalizes one its
elimination factor is exactly ``0.0 / 1.0 = 0.0``: the sweep skips it and
the real cells keep their bits.  A stream therefore runs the one
elimination from its first append -- there is no separate start-up
representation -- and every size, from 1 up, matches a full dense solve
to machine precision, which is verified by the test suite.
"""

from __future__ import annotations

import math
import sys
from typing import Iterable, Sequence, Tuple, Union

import numpy as np

from repro.analysis import hotpath

__all__ = ["IncrementalBandedLDLT"]

#: entry of the ``updates`` argument of :meth:`IncrementalBandedLDLT.extend`:
#: ``(row, column, value)`` with absolute indices.
UpdateEntry = Tuple[int, int, float]

#: array form of ``updates``: ``(rows, columns, values)`` of equal length.
UpdateArrays = Tuple[np.ndarray, np.ndarray, np.ndarray]


class IncrementalBandedLDLT:
    """Solver for a growing symmetric banded system with O(1) appends.

    Parameters
    ----------
    half_bandwidth:
        Half bandwidth ``w`` of the system: ``A[i, j] == 0`` whenever
        ``|i - j| > w``.
    """

    def __init__(self, half_bandwidth: int):
        if half_bandwidth < 1:
            raise ValueError("half_bandwidth must be at least 1")
        self.half_bandwidth = int(half_bandwidth)
        self.size = 0
        w = self.half_bandwidth
        #: corrected trailing block (raw trailing coefficients minus the
        #: Schur correction of every finalized column) and its rhs, stored
        #: as plain Python floats for the scalar kernel.  It covers the
        #: absolute indices ``[size - w, size)``; the negative ones are the
        #: phantom unit pivots of a stream shorter than ``w``.
        self._m_trail: list[list[float]] = [
            [1.0 if row == column else 0.0 for column in range(w)]
            for row in range(w)
        ]
        self._bp_trail: list[float] = [0.0] * w
        #: saved pre-extend state references for :meth:`rollback`.
        self._undo: tuple | None = None

    def __setstate__(self, state: dict) -> None:
        """Restore a pickled solver, refusing the retired dense form.

        A solver pickled before it was born in Schur form carries an
        ``_incremental`` flag; installed as it is, it would solve the
        wrong system, so it raises ``ValueError`` (to a store reader, an
        undecodable segment).  Attribute names are interned, as
        ``__init__`` leaves them, so a loaded solver pickles like a built
        one.
        """
        if "_incremental" in state:
            raise ValueError(
                "an IncrementalBandedLDLT pickled in the retired dense form "
                "(it carries '_incremental') is not readable by this build"
            )
        self.__dict__.update(
            (sys.intern(name), value) for name, value in state.items()
        )

    # ------------------------------------------------------------------ API

    def copy(self) -> "IncrementalBandedLDLT":
        """Return an independent deep copy of the solver state.

        Copies are cheap (``O(w^2)`` memory) and are used by OneShotSTL's
        seasonality-shift search to evaluate candidate shifts without
        committing their effect.  The pending :meth:`rollback` level, if
        any, is not carried over.  The clone skips ``__init__`` (whose
        identity block it would throw away) but sets the attributes in its
        order, so a copy pickles like a built solver.
        """
        clone = object.__new__(IncrementalBandedLDLT)
        clone.half_bandwidth = self.half_bandwidth
        clone.size = self.size
        clone._m_trail = [row[:] for row in self._m_trail]
        clone._bp_trail = self._bp_trail[:]
        clone._undo = None
        return clone

    @hotpath
    def rollback(self) -> None:
        """Undo the most recent :meth:`extend` in O(1) time.

        Exactly one level of undo is kept: calling ``rollback()`` twice in a
        row, or before any ``extend``, raises.  The restored state is
        bit-identical to the pre-extend state (the extend path rebinds
        rather than mutates the whole state, so restoring the saved
        references is exact).
        """
        if self._undo is None:
            raise ValueError("no extend to roll back (a single undo level is kept)")
        self.size, self._m_trail, self._bp_trail = self._undo
        self._undo = None

    @hotpath
    def extend(
        self,
        num_new: int,
        updates: Union[Iterable[UpdateEntry], UpdateArrays],
        rhs_new: Sequence[float],
        check_indices: bool = True,
    ) -> None:
        """Append ``num_new`` variables and apply coefficient updates.

        Parameters
        ----------
        num_new:
            Number of appended variables (``1 <= num_new <= half_bandwidth``).
        updates:
            Either an iterable of ``(row, column, value)`` triples, or -- the
            array fast path -- a tuple of three equal-length 1-D NumPy
            arrays ``(rows, columns, values)`` (recognized by the first
            element being an ``ndarray``).  ``value`` is *added* to
            ``A[row, column]`` (and to the symmetric entry).  Indices are
            absolute; both must lie within the trailing ``half_bandwidth``
            indices of the previous system or refer to the newly appended
            variables, and ``|row - column|`` must not exceed the half
            bandwidth.  The arrays of the fast path are consumed during the
            call and may be reused by the caller afterwards.
        rhs_new:
            Right-hand-side values of the appended variables
            (length ``num_new``).  Existing right-hand-side entries cannot be
            modified.
        check_indices:
            Set to False to skip the per-entry index validation.  Only for
            callers that guarantee the banded-update contract structurally
            (the OneShotSTL hot path emits the same statically valid
            pattern for every point); out-of-contract indices then raise
            unspecific errors or corrupt the trailing block.
        """
        w = self.half_bandwidth
        if not 1 <= num_new <= w:
            raise ValueError(f"num_new must be in [1, {w}], got {num_new}")
        # The array fast path is recognized by its first element being an
        # ndarray -- a plain 3-tuple of (row, column, value) triples is a
        # valid instance of the iterable-of-triples form and must not be
        # transposed.
        if (
            isinstance(updates, tuple)
            and len(updates) == 3
            and isinstance(updates[0], np.ndarray)
        ):
            rows = updates[0].tolist()
            columns = np.asarray(updates[1]).tolist()
            values = np.asarray(updates[2]).tolist()
            if not len(rows) == len(columns) == len(values):
                raise ValueError(
                    "updates must provide equal-length rows/columns/values"
                )
            entries = zip(rows, columns, values)
        else:
            entries = updates
        if isinstance(rhs_new, np.ndarray):
            rhs_list = rhs_new.tolist()
        else:
            rhs_list = [float(value) for value in rhs_new]
        if len(rhs_list) != num_new:
            raise ValueError(f"rhs_new must have length {num_new}")

        block = w + num_new
        old_size = self.size
        new_size = old_size + num_new
        # Negative while phantoms still fill the head of the block; they
        # are not addressable (checked updates start at index 0).
        old_boundary = old_size - w
        lowest_mutable = max(0, old_boundary)

        # Extended corrected block over absolute indices
        # [old_boundary, new_size), as plain floats.
        matrix = [row[:] + [0.0] * num_new for row in self._m_trail]
        zero_row = [0.0] * block
        for _ in range(num_new):
            matrix.append(zero_row[:])
        rhs = self._bp_trail + rhs_list
        for row_index, column_index, value in entries:
            if row_index < column_index:
                row_index, column_index = column_index, row_index
            if check_indices:
                _check_entry(row_index, column_index, new_size, lowest_mutable, w)
            local_row = row_index - old_boundary
            local_column = column_index - old_boundary
            matrix[local_row][local_column] += value
            if local_row != local_column:
                matrix[local_column][local_row] += value

        # Eliminate the num_new oldest variables: they are finalized now, so
        # fold their Schur-complement correction into the new trailing block.
        for k in range(num_new):
            pivot = matrix[k][k]
            if pivot == 0.0 or not math.isfinite(pivot):
                raise ValueError(
                    f"zero or invalid pivot while finalizing index {old_boundary + k}"
                )
            pivot_row = matrix[k]
            pivot_rhs = rhs[k]
            for i in range(k + 1, block):
                factor = matrix[i][k] / pivot
                if factor != 0.0:
                    row = matrix[i]
                    for j in range(k + 1, block):
                        row[j] -= factor * pivot_row[j]
                    rhs[i] -= factor * pivot_rhs

        self._undo = (old_size, self._m_trail, self._bp_trail)
        self._m_trail = [row[num_new:] for row in matrix[num_new:]]
        self._bp_trail = rhs[num_new:]
        self.size = new_size

    @hotpath
    def append_point(
        self,
        value: float,
        anchor: float,
        first_weight: float,
        second_weight: float,
    ) -> tuple[float, float]:
        """Append one OneShotSTL point and return its ``(trend, seasonal)``.

        The fused steady-state step of the online model: exactly
        ``extend(2, updates, [value, value + anchor], check_indices=False)``
        followed by ``tail_solution(2)``, where ``updates`` is the 13-entry
        pattern of :class:`repro.core.online_system.ContributionWorkspace`
        for the point whose trend variable is index ``size`` (weights
        ``first_weight = lambda1 * p`` and ``second_weight = lambda2 * q``).
        It runs the same IEEE operations in the same order on local floats
        -- the entries are added in pattern order, every cell of both
        sweeps is computed and the ``factor != 0.0`` skip is kept -- so
        state and result match that pair bit for bit, ``-0.0`` and NaN
        included.  The only eliminations left out are those of rows whose
        factor is a structural ``0.0`` divided by a checked non-zero
        finite pivot: the generic sweep computes ``±0.0`` there and skips
        them.  Pivot errors are the pair's too: a finalizing pivot raises
        before anything is committed, a trailing one after the append is
        (and :meth:`rollback` undoes it).  Only for a half bandwidth of 4,
        the OneShotSTL system's.
        """
        if self.half_bandwidth != 4:
            raise ValueError(
                "append_point needs the OneShotSTL half bandwidth 4, "
                f"got {self.half_bandwidth}"
            )
        old_size = self.size
        # The extended 6x6 block over absolute indices [size - 4, size + 2):
        # old trailing rows 0-3 padded with two zero columns, the new trend
        # (4) and seasonal (5) rows zero, then the pattern added entry by
        # entry (sums of constants are folded: they are exact).
        row0, row1, row2, row3 = self._m_trail
        m00, m01, m02, m03 = row0
        m10, m11, m12, m13 = row1
        m20, m21, m22, m23 = row2
        m30, m31, m32, m33 = row3
        r0, r1, r2, r3 = self._bp_trail
        m05 = m14 = m15 = m25 = m34 = m35 = m41 = m43 = 0.0
        negative_first = -first_weight
        fourfold_second = 4.0 * second_weight
        negative_twice_second = -2.0 * second_weight
        m44 = 1.0 + first_weight
        m45 = 1.0
        m55 = 2.0
        m22 += first_weight
        m42 = 0.0 + negative_first
        m24 = 0.0 + negative_first
        m44 += second_weight
        m22 += fourfold_second
        m00 += second_weight
        m42 += negative_twice_second
        m24 += negative_twice_second
        m40 = 0.0 + second_weight
        m04 = 0.0 + second_weight
        m20 += negative_twice_second
        m02 += negative_twice_second
        r4 = value
        r5 = value + anchor

        # Finalize index size - 4 (the seasonal row 5 has a structural zero
        # in column 0, so its factor is ±0.0 and the sweep skips it).
        pivot = m00
        if pivot == 0.0 or not math.isfinite(pivot):
            raise ValueError(
                f"zero or invalid pivot while finalizing index {old_size - 4}"
            )
        factor = m10 / pivot
        if factor != 0.0:
            m11 -= factor * m01
            m12 -= factor * m02
            m13 -= factor * m03
            m14 -= factor * m04
            m15 -= factor * m05
            r1 -= factor * r0
        factor = m20 / pivot
        if factor != 0.0:
            m21 -= factor * m01
            m22 -= factor * m02
            m23 -= factor * m03
            m24 -= factor * m04
            m25 -= factor * m05
            r2 -= factor * r0
        factor = m30 / pivot
        if factor != 0.0:
            m31 -= factor * m01
            m32 -= factor * m02
            m33 -= factor * m03
            m34 -= factor * m04
            m35 -= factor * m05
            r3 -= factor * r0
        factor = m40 / pivot
        if factor != 0.0:
            m41 -= factor * m01
            m42 -= factor * m02
            m43 -= factor * m03
            m44 -= factor * m04
            m45 -= factor * m05
            r4 -= factor * r0

        # Finalize index size - 3 (row 5's column 1 is still the zero).
        pivot = m11
        if pivot == 0.0 or not math.isfinite(pivot):
            raise ValueError(
                f"zero or invalid pivot while finalizing index {old_size - 3}"
            )
        factor = m21 / pivot
        if factor != 0.0:
            m22 -= factor * m12
            m23 -= factor * m13
            m24 -= factor * m14
            m25 -= factor * m15
            r2 -= factor * r1
        factor = m31 / pivot
        if factor != 0.0:
            m32 -= factor * m12
            m33 -= factor * m13
            m34 -= factor * m14
            m35 -= factor * m15
            r3 -= factor * r1
        factor = m41 / pivot
        if factor != 0.0:
            m42 -= factor * m12
            m43 -= factor * m13
            m44 -= factor * m14
            m45 -= factor * m15
            r4 -= factor * r1

        # Commit exactly as extend does: rebind, never mutate.  The seasonal
        # row was never eliminated into, so it is still 0, 0, 1, 2.
        self._undo = (old_size, self._m_trail, self._bp_trail)
        self._m_trail = [
            [m22, m23, m24, m25],
            [m32, m33, m34, m35],
            [m42, m43, m44, m45],
            [0.0, 0.0, 1.0, m55],
        ]
        self._bp_trail = [r2, r3, r4, r5]
        self.size = old_size + 2

        # tail_solution(2) on the new trailing block: rows 2-5 above are
        # its rows 0-3.  Row 3 keeps its structural zeros in columns 0 and
        # 1, so it is eliminated into only by pivot 2.
        pivot = m22
        if pivot == 0.0 or not math.isfinite(pivot):
            raise ValueError("singular trailing system at pivot 0")
        factor = m32 / pivot
        if factor != 0.0:
            m33 -= factor * m23
            m34 -= factor * m24
            m35 -= factor * m25
            r3 -= factor * r2
        factor = m42 / pivot
        if factor != 0.0:
            m43 -= factor * m23
            m44 -= factor * m24
            m45 -= factor * m25
            r4 -= factor * r2
        pivot = m33
        if pivot == 0.0 or not math.isfinite(pivot):
            raise ValueError("singular trailing system at pivot 1")
        factor = m43 / pivot
        if factor != 0.0:
            m44 -= factor * m34
            m45 -= factor * m35
            r4 -= factor * r3
        pivot = m44
        if pivot == 0.0 or not math.isfinite(pivot):
            raise ValueError("singular trailing system at pivot 2")
        factor = 1.0 / pivot
        if factor != 0.0:
            m55 -= factor * m45
            r5 -= factor * r4
        pivot = m55
        if pivot == 0.0 or not math.isfinite(pivot):
            raise ValueError("singular trailing system at pivot 3")
        # Back substitution of the two returned entries; the other two are
        # never read, and no division by a checked pivot can raise.
        seasonal = r5 / pivot
        trend = (r4 - m45 * seasonal) / m44
        return trend, seasonal

    @hotpath
    def tail_solution(self, count: int) -> np.ndarray:
        """Return the last ``count`` entries of the solution of ``A x = b``.

        ``count`` may exceed neither the half bandwidth nor the system
        size (the OneShotSTL model needs only the last two entries: the
        newest trend and seasonal values).
        """
        if self.size == 0:
            raise ValueError("the system is empty")
        if count < 1:
            raise ValueError("count must be at least 1")
        if count > self.size:
            raise ValueError("count exceeds the system size")
        w = self.half_bandwidth
        if count > w:
            raise ValueError(
                f"count ({count}) cannot exceed the half bandwidth ({w})"
            )
        # The corrected trailing system is exactly what the last w entries
        # of the global solution satisfy: no finalized variable can reach
        # them except through the correction already folded into M_trail.
        matrix = [row[:] for row in self._m_trail]
        rhs = self._bp_trail[:]
        for k in range(w):
            pivot = matrix[k][k]
            if pivot == 0.0 or not math.isfinite(pivot):
                raise ValueError(f"singular trailing system at pivot {k}")
            pivot_row = matrix[k]
            pivot_rhs = rhs[k]
            for i in range(k + 1, w):
                factor = matrix[i][k] / pivot
                if factor != 0.0:
                    row = matrix[i]
                    for j in range(k + 1, w):
                        row[j] -= factor * pivot_row[j]
                    rhs[i] -= factor * pivot_rhs
        solution = [0.0] * w
        for i in range(w - 1, -1, -1):
            accumulator = rhs[i]
            row = matrix[i]
            for j in range(i + 1, w):
                accumulator -= row[j] * solution[j]
            solution[i] = accumulator / row[i]
        return np.array(solution[w - count :])


def _check_entry(
    row: int, column: int, new_size: int, lowest_mutable: int, half_bandwidth: int
) -> None:
    """Validate one (row >= column) coefficient update."""
    if row >= new_size:
        raise IndexError(f"update row {row} outside the extended system")
    if column < lowest_mutable:
        raise ValueError(
            f"update touches finalized index {column} "
            f"(allowed indices start at {lowest_mutable})"
        )
    if row - column > half_bandwidth:
        raise ValueError(
            f"update ({row}, {column}) violates the half bandwidth {half_bandwidth}"
        )
