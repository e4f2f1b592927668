"""l1 trend filtering (Kim, Koh, Boyd, Gorinevsky 2009).

The l1 trend filter estimates a piecewise-linear trend by solving

    min_tau  loss(y - tau) + lam * sum_t |tau_t - 2 tau_{t-1} + tau_{t-2}|

where ``loss`` is either the squared l2 norm (classic formulation) or the
robust l1 norm (used inside RobustSTL).  Both the loss and the penalty are
handled with IRLS, turning every iteration into one sparse symmetric solve.

The JointSTL model of the paper is an extension of this filter with a
jointly estimated seasonal component; this standalone version is used by
the RobustSTL baseline and is exposed publicly because it is broadly
useful on its own.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.utils import as_float_array, check_positive, check_positive_int

if TYPE_CHECKING:
    from scipy import sparse

__all__ = ["l1_trend_filter"]


def _second_difference_matrix(n: int) -> sparse.csr_matrix:
    from scipy import sparse

    rows = np.arange(n - 2)
    data = np.concatenate([np.ones(n - 2), -2.0 * np.ones(n - 2), np.ones(n - 2)])
    columns = np.concatenate([rows, rows + 1, rows + 2])
    return sparse.csr_matrix(
        (data, (np.concatenate([rows, rows, rows]), columns)), shape=(n - 2, n)
    )


def l1_trend_filter(
    values,
    smoothness: float,
    iterations: int = 10,
    loss: str = "l2",
    epsilon: float = 1e-6,
) -> np.ndarray:
    """Estimate a piecewise-linear trend with the l1 trend filter.

    Parameters
    ----------
    values:
        Input series.
    smoothness:
        Penalty weight ``lam``; larger values produce fewer trend knots.
    iterations:
        Number of IRLS iterations.
    loss:
        ``"l2"`` for the classic squared loss or ``"l1"`` for the robust
        absolute loss (resistant to spike outliers).
    epsilon:
        Numerical floor used in the IRLS weight updates.

    Returns
    -------
    numpy.ndarray
        The estimated trend, same length as the input.
    """
    values = as_float_array(values, "values", min_length=3)
    smoothness = check_positive(smoothness, "smoothness")
    iterations = check_positive_int(iterations, "iterations")
    if loss not in ("l1", "l2"):
        raise ValueError("loss must be 'l1' or 'l2'")
    epsilon = check_positive(epsilon, "epsilon")
    # scipy is imported here, not at module level, so the online
    # import path (repro.core, repro.streaming) never loads it.
    from scipy import sparse
    from scipy.sparse.linalg import splu

    n = values.size
    second_diff = _second_difference_matrix(n)
    identity = sparse.identity(n, format="csr")

    trend = values.copy()
    for _ in range(iterations):
        penalty_weights = 0.5 / np.maximum(np.abs(second_diff @ trend), epsilon)
        if loss == "l2":
            loss_matrix = identity
            rhs = values
        else:
            loss_weights = 0.5 / np.maximum(np.abs(values - trend), epsilon)
            loss_matrix = sparse.diags(loss_weights)
            rhs = loss_weights * values
        system = loss_matrix + smoothness * (
            second_diff.T @ sparse.diags(penalty_weights) @ second_diff
        )
        trend = splu(system.tocsc()).solve(np.asarray(rhs, dtype=float))
    return trend
