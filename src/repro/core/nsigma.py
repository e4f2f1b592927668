"""Streaming NSigma anomaly scorer (paper Algorithm 6).

NSigma keeps a running mean and variance of the values it has seen and
scores every new value by its absolute z-score.  It is used in three places
in the reproduction, exactly as in the paper:

* as a standalone TSAD baseline applied directly to the raw series,
* as the scoring stage of the STD-based detectors (applied to the
  decomposed residual), and
* inside OneShotSTL's seasonality-shift handling (Section 3.4), where an
  anomalous residual triggers the shift search.

The running variance uses Welford's online algorithm rather than the
textbook ``E[x^2] - E[x]^2`` identity: the latter catastrophically cancels
for series with a large offset relative to their spread (for a metric
hovering around 1e8 the two terms agree to ~16 digits, so their float64
difference is mostly rounding noise and can even go negative), which makes
the z-scores garbage exactly on the high-volume counters a monitoring
fleet cares about.  Welford tracks the centered second moment directly and
stays accurate at any offset.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.registry import register_scorer
from repro.utils import as_float_array, check_positive

__all__ = ["DEFAULT_MINIMUM_STD", "DEFAULT_THRESHOLD", "NSigma", "NSigmaVerdict"]

#: flagging threshold unless a caller names another (the paper's ``n = 5``)
DEFAULT_THRESHOLD = 5.0
#: floor of the running standard deviation unless a caller names another
#: (OneShotSTL's residual monitor never does)
DEFAULT_MINIMUM_STD = 1e-12


@dataclass(frozen=True, slots=True)
class NSigmaVerdict:
    """Outcome of scoring a single value."""

    score: float
    is_anomaly: bool


@register_scorer("nsigma")
class NSigma:
    """Streaming z-score anomaly detector.

    Parameters
    ----------
    threshold:
        Number of standard deviations above which a value is flagged
        (the paper uses ``n = 5``).
    minimum_std:
        Lower bound applied to the running standard deviation so that a
        constant warm-up prefix does not produce infinite scores.
    """

    def __init__(
        self,
        threshold: float = DEFAULT_THRESHOLD,
        minimum_std: float = DEFAULT_MINIMUM_STD,
    ):
        self.threshold = check_positive(threshold, "threshold")
        self.minimum_std = check_positive(minimum_std, "minimum_std")
        self._count = 0
        self._mean = 0.0
        # Sum of squared deviations from the running mean (Welford's M2).
        self._m2 = 0.0

    # ------------------------------------------------------------------ API

    def get_params(self) -> dict:
        """Primitive constructor parameters (see :mod:`repro.specs`)."""
        return {"threshold": self.threshold, "minimum_std": self.minimum_std}

    @property
    def count(self) -> int:
        """Number of values incorporated so far."""
        return self._count

    @property
    def mean(self) -> float:
        """Running mean (0.0 before any value is seen)."""
        return self._mean

    @property
    def std(self) -> float:
        """Running (population) standard deviation."""
        if self._count == 0:
            return 0.0
        variance = self._m2 / self._count
        return float(np.sqrt(max(variance, 0.0)))

    def score(self, value: float) -> NSigmaVerdict:
        """Score ``value`` against the running statistics without updating them."""
        value = float(value)
        if self._count == 0:
            return NSigmaVerdict(score=0.0, is_anomaly=False)
        std = max(self.std, self.minimum_std)
        score = abs(value - self.mean) / std
        return NSigmaVerdict(score=score, is_anomaly=bool(score > self.threshold))

    def update(self, value: float) -> NSigmaVerdict:
        """Score ``value`` and then fold it into the running statistics."""
        verdict = self.score(value)
        self.update_stats(value)
        return verdict

    def update_stats(self, value: float) -> None:
        """Fold ``value`` into the running statistics without scoring it.

        The mutation half of :meth:`update` (scoring reads but never
        writes): what seeds a monitor with values nobody wants verdicts
        for, such as an initialization window's residuals.
        """
        value = float(value)
        self._count += 1
        delta = value - self._mean
        self._mean += delta / self._count
        self._m2 += delta * (value - self._mean)

    def score_series(self, values) -> np.ndarray:
        """Score every value of a series in streaming order.

        Returns the array of anomaly scores; the running statistics are
        updated as the series is consumed, exactly as in the online setting.
        """
        values = as_float_array(values, "values")
        scores = np.empty(values.size)
        for index, value in enumerate(values):
            scores[index] = self.update(float(value)).score
        return scores

    def copy(self) -> "NSigma":
        """Return an independent copy of the detector state."""
        clone = NSigma(self.threshold, self.minimum_std)
        clone._count = self._count
        clone._mean = self._mean
        clone._m2 = self._m2
        return clone

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"NSigma(threshold={self.threshold}, count={self._count})"
