"""Input validation helpers.

Every public entry point of the library funnels its array and scalar
arguments through these helpers so that error messages are uniform and
raised early, before any expensive computation starts.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

__all__ = [
    "as_float_array",
    "check_positive",
    "check_positive_int",
    "check_period",
    "check_probability",
    "owned_arrays",
    "sliding_window_view",
]


def as_float_array(values, name: str = "values", min_length: int = 1) -> np.ndarray:
    """Convert ``values`` to a contiguous 1-D float64 array.

    Parameters
    ----------
    values:
        Any array-like of numbers.
    name:
        Argument name used in error messages.
    min_length:
        Minimum number of elements required.

    Returns
    -------
    numpy.ndarray
        A 1-D ``float64`` copy of the input.

    Raises
    ------
    ValueError
        If the input is not one dimensional, contains NaN/inf, or is
        shorter than ``min_length``.
    """
    array = np.asarray(values, dtype=float)
    if array.ndim != 1:
        raise ValueError(f"{name} must be one dimensional, got shape {array.shape}")
    if array.size < min_length:
        raise ValueError(
            f"{name} must contain at least {min_length} values, got {array.size}"
        )
    if not np.all(np.isfinite(array)):
        raise ValueError(f"{name} must not contain NaN or infinite values")
    return np.ascontiguousarray(array, dtype=float)


def check_positive(value: float, name: str = "value") -> float:
    """Validate that ``value`` is a finite, strictly positive number."""
    value = float(value)
    if not np.isfinite(value) or value <= 0:
        raise ValueError(f"{name} must be a positive finite number, got {value}")
    return value


def check_positive_int(value: int, name: str = "value", minimum: int = 1) -> int:
    """Validate that ``value`` is an integer greater than or equal to ``minimum``."""
    if not float(value).is_integer():
        raise ValueError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return value


def check_period(period: int, series_length: int | None = None) -> int:
    """Validate a seasonal period length.

    A period must be an integer of at least 2.  When ``series_length`` is
    given, the period must also be strictly smaller than the series length
    so that at least one full cycle is observed.
    """
    period = check_positive_int(period, "period", minimum=2)
    if series_length is not None and period >= series_length:
        raise ValueError(
            f"period ({period}) must be smaller than the series length ({series_length})"
        )
    return period


def check_probability(value: float, name: str = "value") -> float:
    """Validate that ``value`` lies in the closed interval [0, 1]."""
    value = float(value)
    if not np.isfinite(value) or value < 0 or value > 1:
        raise ValueError(f"{name} must lie in [0, 1], got {value}")
    return value


def sliding_window_view(values: np.ndarray, window: int) -> np.ndarray:
    """Return a read-only view of all length-``window`` subsequences.

    Thin wrapper around :func:`numpy.lib.stride_tricks.sliding_window_view`
    with argument validation, shared by the matrix-profile and
    subsequence-clustering anomaly detectors.
    """
    values = np.asarray(values, dtype=float)
    window = check_positive_int(window, "window")
    if window > values.size:
        raise ValueError(
            f"window ({window}) cannot exceed the series length ({values.size})"
        )
    return np.lib.stride_tricks.sliding_window_view(values, window)


def owned_arrays(
    arrays: Mapping[str, np.ndarray], layout: dict[str, tuple[type, tuple]]
) -> list[np.ndarray]:
    """Writable copies of exactly the arrays ``layout`` names, in its order.

    ``layout`` maps each name to ``(dtype, shape)``.  A missing or extra
    name, a float array where integers belong (or the reverse) and any
    other shape raise ``ValueError``: the arrays come off a disk.
    """
    if set(arrays) != set(layout):
        raise ValueError(
            f"expected the arrays {sorted(layout)}, found {sorted(arrays)}"
        )
    owned = []
    for name, (dtype, shape) in layout.items():
        array = arrays[name]
        if array.dtype.kind != np.dtype(dtype).kind or array.shape != shape:
            raise ValueError(
                f"array {name!r} is {array.dtype} {array.shape}, expected "
                f"{np.dtype(dtype)} {shape}"
            )
        owned.append(np.array(array, dtype=dtype))
    return owned
