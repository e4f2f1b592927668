"""Small shared utilities used across the OneShotSTL reproduction."""

from repro.utils.validation import (
    as_float_array,
    check_period,
    check_positive,
    check_positive_int,
    check_probability,
    owned_arrays,
    sliding_window_view,
)

__all__ = [
    "as_float_array",
    "check_period",
    "check_positive",
    "check_positive_int",
    "check_probability",
    "owned_arrays",
    "sliding_window_view",
]
