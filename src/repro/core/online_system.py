"""Construction of the online (modified) JointSTL linear system.

The modified JointSTL problem (paper Problem (7) / Eq. (8)) is a least
squares problem over the interleaved variable vector

    x = [tau_1, s_1, tau_2, s_2, ..., tau_M, s_M]

covering the ``M`` points seen so far in the online phase.  Its normal
equations ``A x = b`` form a symmetric positive-definite banded system with
half bandwidth 4.  Each newly arrived point adds four kinds of terms:

* the fit term            ``(tau_j + s_j - y_j)^2``,
* the seasonal anchor     ``(s_j - v_{j mod T})^2``,
* the first-difference    ``lambda_1 * p_j * (tau_j - tau_{j-1})^2`` and
* the second-difference   ``lambda_2 * q_j * (tau_j - 2 tau_{j-1} + tau_{j-2})^2``

(the last two only once enough points are in the window).  Crucially these
terms touch only the newest variables and the trailing four indices of the
previous system, which is what allows the O(1) incremental factorization.

:func:`point_contributions` returns the coefficient updates and new
right-hand-side entries of one point as a plain list of triples -- the
readable reference form consumed by the exact Algorithm-2 implementation
(:class:`repro.core.modified_joint_stl.ModifiedJointSTL`).
:class:`ContributionWorkspace` produces the *same* contributions, but
writes them into preallocated NumPy arrays, the form
:meth:`repro.solvers.IncrementalBandedLDLT.extend` takes; the test suite
asserts the two forms agree entry for entry, which is what keeps the
"OneShotSTL equals the reference to machine precision" test meaningful.
OneShotSTL feeds the workspace to ``extend`` for a stream's first two
points; from the third on it calls
:meth:`~repro.solvers.IncrementalBandedLDLT.append_point`, which adds
the workspace's steady-state pattern, in its order, on local floats.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

__all__ = ["HALF_BANDWIDTH", "ContributionWorkspace", "point_contributions"]

#: Half bandwidth of the interleaved online system (paper: banded matrix of
#: total bandwidth 9).
HALF_BANDWIDTH = 4


def point_contributions(
    point_index: int,
    value: float,
    anchor: float,
    lambda1: float,
    lambda2: float,
    p_weight: float,
    q_weight: float,
) -> Tuple[List[Tuple[int, int, float]], List[float]]:
    """Return the system contributions of the ``point_index``-th online point.

    Parameters
    ----------
    point_index:
        Zero-based position of the point within the online window.
    value:
        The observation ``y_j``.
    anchor:
        The seasonal buffer value ``v_{j mod T}`` (possibly shift-corrected)
        that anchors the new seasonal variable.
    lambda1, lambda2:
        Trend smoothness hyper-parameters.
    p_weight, q_weight:
        IRLS weights of the first/second trend-difference terms introduced by
        this point (1.0 in the first IRLS iteration).

    Returns
    -------
    (updates, rhs_new):
        ``updates`` is a list of ``(row, column, value)`` additions to the
        symmetric matrix ``A`` using absolute variable indices, and
        ``rhs_new`` the two right-hand-side entries of the appended trend and
        seasonal variables.
    """
    if point_index < 0:
        raise ValueError("point_index must be non-negative")
    trend_index = 2 * point_index
    seasonal_index = trend_index + 1

    updates: List[Tuple[int, int, float]] = [
        # Fit term (tau + s - y)^2 ...
        (trend_index, trend_index, 1.0),
        (seasonal_index, seasonal_index, 1.0),
        (seasonal_index, trend_index, 1.0),
        # ... plus the seasonal anchor term (s - v)^2.
        (seasonal_index, seasonal_index, 1.0),
    ]
    rhs_new = [float(value), float(value) + float(anchor)]

    if point_index >= 1:
        previous_trend = trend_index - 2
        weight = float(lambda1) * float(p_weight)
        updates.extend(
            [
                (trend_index, trend_index, weight),
                (previous_trend, previous_trend, weight),
                (trend_index, previous_trend, -weight),
            ]
        )
    if point_index >= 2:
        previous_trend = trend_index - 2
        before_previous = trend_index - 4
        weight = float(lambda2) * float(q_weight)
        updates.extend(
            [
                (trend_index, trend_index, weight),
                (previous_trend, previous_trend, 4.0 * weight),
                (before_previous, before_previous, weight),
                (trend_index, previous_trend, -2.0 * weight),
                (trend_index, before_previous, weight),
                (previous_trend, before_previous, -2.0 * weight),
            ]
        )
    return updates, rhs_new


class ContributionWorkspace:
    """Allocation-free array form of :func:`point_contributions`.

    Once the online window holds at least three points, every new point adds
    the same 13-entry pattern of coefficient updates whose positions are a
    fixed offset from the point's trend variable and whose values depend
    only on the observation, the seasonal anchor and the two IRLS weights.
    The workspace exploits that: it keeps one set of preallocated index and
    value arrays and rewrites them in place for every ``fill`` call, so the
    steady-state hot path performs no list or tuple allocation at all.

    ``fill`` returns ``((rows, columns, values), rhs)`` in exactly the shape
    expected by the array fast path of
    :meth:`repro.solvers.IncrementalBandedLDLT.extend`.  The returned arrays
    are views into the workspace and are overwritten by the next ``fill``;
    callers must consume them before filling again (the solver does).

    The first two points of the window (which lack one or both trend
    difference terms) fall back to the reference :func:`point_contributions`
    -- a cold path that runs at most twice per stream.  The steady-state
    arrays are the reference :meth:`IncrementalBandedLDLT.append_point`
    is tested against; OneShotSTL no longer fills them per point.
    """

    #: row/column positions of the steady-state pattern, relative to the
    #: point's trend variable index; values mirror point_contributions.
    _ROW_OFFSETS = np.array([0, 1, 1, 1, 0, -2, 0, 0, -2, -4, 0, 0, -2], dtype=np.intp)
    _COL_OFFSETS = np.array([0, 1, 0, 1, 0, -2, -2, 0, -2, -4, -2, -4, -4], dtype=np.intp)

    def __init__(self, lambda1: float, lambda2: float):
        self.lambda1 = float(lambda1)
        self.lambda2 = float(lambda2)
        # Zeroed, not empty: OneShotSTL's steady-state step is
        # append_point, so only tests fill them, and a model pickles its
        # workspace -- uninitialised memory would reach its bytes.
        self._rows = np.zeros(13, dtype=np.intp)
        self._columns = np.zeros(13, dtype=np.intp)
        self._values = np.zeros(13)
        # Fit + seasonal anchor entries are weight independent.
        self._values[:4] = 1.0
        self._rhs = np.zeros(2)

    def fill(
        self,
        point_index: int,
        value: float,
        anchor: float,
        p_weight: float,
        q_weight: float,
    ):
        """Write one point's contributions into the workspace arrays.

        Returns ``((rows, columns, values), rhs)`` where the first element
        feeds :meth:`IncrementalBandedLDLT.extend` directly.
        """
        if point_index < 2:
            updates, rhs_new = point_contributions(
                point_index,
                value,
                anchor,
                self.lambda1,
                self.lambda2,
                p_weight,
                q_weight,
            )
            rows, columns, values = zip(*updates)
            return (
                (
                    np.array(rows, dtype=np.intp),
                    np.array(columns, dtype=np.intp),
                    np.array(values, dtype=float),
                ),
                np.array(rhs_new, dtype=float),
            )
        trend_index = 2 * point_index
        np.add(self._ROW_OFFSETS, trend_index, out=self._rows)
        np.add(self._COL_OFFSETS, trend_index, out=self._columns)
        values = self._values
        first_weight = self.lambda1 * p_weight
        second_weight = self.lambda2 * q_weight
        values[4] = first_weight
        values[5] = first_weight
        values[6] = -first_weight
        values[7] = second_weight
        values[8] = 4.0 * second_weight
        values[9] = second_weight
        values[10] = -2.0 * second_weight
        values[11] = second_weight
        values[12] = -2.0 * second_weight
        rhs = self._rhs
        rhs[0] = value
        rhs[1] = value + anchor
        return (self._rows, self._columns, values), rhs
