"""Batch JointSTL (paper Section 3.1, Algorithm 1).

JointSTL estimates the trend and seasonal components *jointly* by solving

    min_{tau, s}  sum_t (tau_t + s_t - y_t)^2
                + sum_{t>T} (s_t - s_{t-T})^2
                + lambda_1 * sum_t |tau_t - tau_{t-1}|
                + lambda_2 * sum_t |tau_t - 2 tau_{t-1} + tau_{t-2}|

with IRLS: the l1 penalties are replaced by iteratively re-weighted
quadratic terms (Eq. (3)-(5)), so every iteration reduces to one sparse
symmetric linear solve (Eq. (6)).

Implementation notes
--------------------
* The objective is invariant to moving a constant between the trend and the
  seasonal component (both the difference penalties and the fit term ignore
  a constant exchange), so the normal-equation matrix of the *batch* problem
  is singular.  A tiny ridge term ``seasonal_ridge * ||s||^2`` pins the
  constant to the trend; its default (1e-6) is far below the scale of any
  other term and does not measurably change the decomposition.
* The per-iteration sparse systems are solved with SciPy's sparse Cholesky
  (via ``splu`` on the CSC matrix), which is exact -- the IRLS iterations
  are the only approximation, just as in the paper.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.decomposition.base import BatchDecomposer, DecompositionResult
from repro.utils import as_float_array, check_period, check_positive, check_positive_int

if TYPE_CHECKING:
    from scipy import sparse

__all__ = ["JointSTL"]


class JointSTL(BatchDecomposer):
    """Batch joint seasonal-trend decomposition via IRLS (Algorithm 1).

    Parameters
    ----------
    period:
        Seasonal period length ``T``.
    lambda1, lambda2:
        Weights of the first and second order l1 trend-difference penalties.
    iterations:
        Number of IRLS iterations ``I``.
    epsilon:
        Lower bound on the absolute trend differences when computing the
        IRLS weights (guards the ``1 / (2 |.|)`` update against division by
        zero).
    seasonal_ridge:
        Tiny ridge applied to the seasonal block to remove the constant
        trend/seasonal ambiguity of the batch objective (see module notes).
    """

    def __init__(
        self,
        period: int,
        lambda1: float = 1.0,
        lambda2: float = 1.0,
        iterations: int = 8,
        epsilon: float = 1e-6,
        seasonal_ridge: float = 1e-6,
    ):
        self.period = check_period(period)
        self.lambda1 = check_positive(lambda1, "lambda1")
        self.lambda2 = check_positive(lambda2, "lambda2")
        self.iterations = check_positive_int(iterations, "iterations")
        self.epsilon = check_positive(epsilon, "epsilon")
        self.seasonal_ridge = check_positive(seasonal_ridge, "seasonal_ridge")

    # ------------------------------------------------------------------ API

    def decompose(self, values) -> DecompositionResult:
        # scipy is imported here, not at module level, so the online
        # import path (repro.core, repro.streaming) never loads it.
        from scipy import sparse
        from scipy.sparse.linalg import splu

        values = as_float_array(values, "values", min_length=self.period + 3)
        n = values.size
        period = self.period

        fit_block, seasonal_block, first_diff, second_diff = self._design_matrices(n, period)
        rhs = fit_block.T @ values

        p_weights = np.ones(n - 1)
        q_weights = np.ones(n - 2)
        trend = np.zeros(n)
        seasonal = np.zeros(n)
        for _ in range(self.iterations):
            system = (
                (fit_block.T @ fit_block)
                + (seasonal_block.T @ seasonal_block)
                + self.lambda1 * (first_diff.T @ sparse.diags(p_weights) @ first_diff)
                + self.lambda2 * (second_diff.T @ sparse.diags(q_weights) @ second_diff)
                + self._ridge(n)
            )
            solution = splu(system.tocsc()).solve(rhs)
            trend = solution[:n]
            seasonal = solution[n:]
            p_weights = 0.5 / np.maximum(np.abs(np.diff(trend)), self.epsilon)
            q_weights = 0.5 / np.maximum(np.abs(np.diff(trend, n=2)), self.epsilon)

        residual = values - trend - seasonal
        return DecompositionResult(
            observed=values,
            trend=trend,
            seasonal=seasonal,
            residual=residual,
            period=period,
        )

    # ------------------------------------------------------------- internals

    def _design_matrices(self, n: int, period: int):
        """Build the sparse design matrices B1, B2, B3, B4 of Eq. (6)."""
        from scipy import sparse

        identity = sparse.identity(n, format="csr")
        fit_block = sparse.hstack([identity, identity], format="csr")

        rows = np.arange(n - period)
        seasonal_diff = sparse.csr_matrix(
            (
                np.concatenate([np.ones(n - period), -np.ones(n - period)]),
                (
                    np.concatenate([rows, rows]),
                    np.concatenate([rows + period + n, rows + n]),
                ),
            ),
            shape=(n - period, 2 * n),
        )

        rows = np.arange(n - 1)
        first_diff = sparse.csr_matrix(
            (
                np.concatenate([np.ones(n - 1), -np.ones(n - 1)]),
                (np.concatenate([rows, rows]), np.concatenate([rows + 1, rows])),
            ),
            shape=(n - 1, 2 * n),
        )

        rows = np.arange(n - 2)
        second_diff = sparse.csr_matrix(
            (
                np.concatenate([np.ones(n - 2), -2 * np.ones(n - 2), np.ones(n - 2)]),
                (
                    np.concatenate([rows, rows, rows]),
                    np.concatenate([rows + 2, rows + 1, rows]),
                ),
            ),
            shape=(n - 2, 2 * n),
        )
        return fit_block, seasonal_diff, first_diff, second_diff

    def _ridge(self, n: int) -> sparse.spmatrix:
        from scipy import sparse

        diagonal = np.concatenate([np.zeros(n), np.full(n, self.seasonal_ridge)])
        return sparse.diags(diagonal)
