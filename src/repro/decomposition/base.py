"""Common types and interfaces for seasonal-trend decomposition.

Every decomposition method in this library -- batch or online, the paper's
OneShotSTL or one of the baselines -- produces the additive model

    y_t = trend_t + seasonal_t + residual_t

and is exposed through one of two small interfaces:

* :class:`BatchDecomposer` consumes a complete series and returns a
  :class:`DecompositionResult`.
* :class:`OnlineDecomposer` is initialized on a prefix of the series and is
  then fed one observation at a time, emitting a :class:`DecompositionPoint`
  per observation with bounded state.

Keeping these interfaces identical across methods is what makes the
downstream anomaly-detection and forecasting wrappers (Section 4 of the
paper) method agnostic.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.utils import as_float_array

__all__ = [
    "DecompositionPoint",
    "DecompositionResult",
    "BatchDecomposer",
    "OnlineDecomposer",
]


class DecompositionPoint(NamedTuple):
    """Decomposition of a single observation.

    A named tuple (one is built per online update): it also compares equal
    to ``(value, trend, seasonal, residual)`` and unpacks like it.
    """

    value: float
    trend: float
    seasonal: float
    residual: float

    def reconstruct(self) -> float:
        """Return ``trend + seasonal + residual`` (equals ``value`` by construction)."""
        return self.trend + self.seasonal + self.residual


@dataclass
class DecompositionResult:
    """Decomposition of a full series into trend, seasonal and residual."""

    observed: np.ndarray
    trend: np.ndarray
    seasonal: np.ndarray
    residual: np.ndarray
    period: int

    def __post_init__(self) -> None:
        lengths = {
            self.observed.shape,
            self.trend.shape,
            self.seasonal.shape,
            self.residual.shape,
        }
        if len(lengths) != 1:
            raise ValueError("all decomposition components must have the same shape")

    def __len__(self) -> int:
        return int(self.observed.size)

    def reconstruct(self) -> np.ndarray:
        """Return ``trend + seasonal + residual``."""
        return self.trend + self.seasonal + self.residual

    def point(self, index: int) -> DecompositionPoint:
        """Return the decomposition of the observation at ``index``."""
        return DecompositionPoint(
            value=float(self.observed[index]),
            trend=float(self.trend[index]),
            seasonal=float(self.seasonal[index]),
            residual=float(self.residual[index]),
        )

    def tail(self, count: int) -> "DecompositionResult":
        """Return the last ``count`` points as a new result."""
        return DecompositionResult(
            observed=self.observed[-count:].copy(),
            trend=self.trend[-count:].copy(),
            seasonal=self.seasonal[-count:].copy(),
            residual=self.residual[-count:].copy(),
            period=self.period,
        )


class BatchDecomposer(ABC):
    """A method that decomposes a complete series in one shot."""

    #: seasonal period length used by the method
    period: int

    @abstractmethod
    def decompose(self, values) -> DecompositionResult:
        """Decompose ``values`` into trend, seasonal and residual components."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(period={getattr(self, 'period', None)})"


class OnlineDecomposer(ABC):
    """A method that decomposes a stream one observation at a time."""

    #: seasonal period length used by the method
    period: int

    #: whether :meth:`update` accepts NaN as a missing-value marker and
    #: imputes it internally; decomposers without imputation must not be
    #: fed NaN (it would silently poison their state).
    supports_missing: bool = False

    def get_params(self) -> dict:
        """Primitive constructor parameters for :mod:`repro.specs`.

        Registered decomposers override this to report the keyword
        arguments that reconstruct an equivalent fresh instance.  A
        ``ValueError`` signals a configuration that cannot be expressed as
        primitives (e.g. an injected initializer object).
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not expose spec parameters"
        )

    @abstractmethod
    def initialize(self, values) -> DecompositionResult:
        """Fit the method on an initialization prefix and return its decomposition."""

    @abstractmethod
    def update(self, value: float) -> DecompositionPoint:
        """Consume one new observation and return its decomposition."""

    def decompose(self, values, initialization_length: int) -> DecompositionResult:
        """Convenience wrapper: initialize on a prefix, then stream the rest.

        The returned result covers the entire input; the first
        ``initialization_length`` points carry the initialization
        decomposition, the remaining points the online one.
        """
        values = as_float_array(values, "values", min_length=2)
        if not 0 < initialization_length < values.size:
            raise ValueError(
                "initialization_length must be positive and smaller than the series"
            )
        init_result = self.initialize(values[:initialization_length])
        trend = np.empty_like(values)
        seasonal = np.empty_like(values)
        residual = np.empty_like(values)
        trend[:initialization_length] = init_result.trend
        seasonal[:initialization_length] = init_result.seasonal
        residual[:initialization_length] = init_result.residual
        for index in range(initialization_length, values.size):
            point = self.update(float(values[index]))
            trend[index] = point.trend
            seasonal[index] = point.seasonal
            residual[index] = point.residual
        return DecompositionResult(
            observed=values,
            trend=trend,
            seasonal=seasonal,
            residual=residual,
            period=self.period,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(period={getattr(self, 'period', None)})"
