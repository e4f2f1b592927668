"""Amortized (capacity-doubling) growth for struct-of-arrays state.

The columnar fleet structures -- the batched solver, the fleet kernel and
the engine's per-group bookkeeping -- all grow along their leading
"series" axis when late-joining series are absorbed.  Growing with
``np.concatenate`` copies the whole array on every absorption, which turns
a trickle of one-at-a-time joins into quadratic total work.
:func:`amortized_append` implements the classic fix: the logical array is a
view into a larger base allocation, and appending reuses the spare
capacity, so a sequence of ``m`` single-row appends costs O(m) amortized
copying instead of O(m^2).  Cell-major state, whose series axis is the
*trailing* one, grows the same way through
:func:`amortized_append_columns`.
"""

from __future__ import annotations

import numpy as np

__all__ = ["amortized_append", "amortized_append_columns"]

#: smallest base allocation (rows) created when capacity is first needed
_MIN_CAPACITY = 8


def _owns_prefix(view: np.ndarray, base) -> bool:
    """Whether ``view`` is exactly the leading-rows slice of ``base``."""
    return (
        base is not None
        and isinstance(base, np.ndarray)
        and base.dtype == view.dtype
        and base.ndim == view.ndim
        and base.shape[1:] == view.shape[1:]
        and base.flags.c_contiguous
        and view.flags.c_contiguous
        and base.__array_interface__["data"][0]
        == view.__array_interface__["data"][0]
    )


def amortized_append(view: np.ndarray, new_rows) -> np.ndarray:
    """Append rows to ``view`` with amortized O(len(new_rows)) copying.

    Returns the grown logical array -- a view of a base allocation that
    holds hidden spare capacity.  When ``view`` is already the leading
    slice of such a base (i.e. it came from a previous
    ``amortized_append``) and the base has room, the new rows are written
    into the spare capacity and no existing row is copied; otherwise a
    fresh base of twice the required size is allocated once.

    The caller must treat the passed-in ``view`` as invalidated (the
    returned view aliases the same memory) and must only ever mutate the
    logical array in place -- rebinding it to a fresh array silently drops
    the spare capacity (the next append degrades to one full copy, which
    is correct but no longer amortized).
    """
    new_rows = np.asarray(new_rows, dtype=view.dtype)
    if new_rows.ndim == view.ndim - 1:
        new_rows = new_rows[None, ...]
    if new_rows.shape[1:] != view.shape[1:]:
        raise ValueError(
            f"cannot append rows of shape {new_rows.shape[1:]} to an array "
            f"of row shape {view.shape[1:]}"
        )
    n = view.shape[0]
    m = new_rows.shape[0]
    base = view.base
    if not _owns_prefix(view, base) or base.shape[0] < n + m:
        capacity = max(2 * (n + m), _MIN_CAPACITY)
        base = np.empty((capacity,) + view.shape[1:], dtype=view.dtype)
        base[:n] = view
    base[n : n + m] = new_rows
    return base[: n + m]


def amortized_append_columns(
    buffer: np.ndarray, used: int, new_columns: np.ndarray
) -> np.ndarray:
    """Write ``new_columns`` at ``buffer[..., used : used + m]``, doubling on demand.

    The trailing-axis counterpart of :func:`amortized_append` for
    cell-major state (``(..., capacity)`` buffers whose logical array is
    ``buffer[..., :used]``; the caller tracks ``used``).  Returns the
    buffer that now holds ``used + m`` columns: the same object while the
    spare capacity lasts, otherwise a fresh allocation of twice the
    required size carrying the first ``used`` columns over.
    """
    m = new_columns.shape[-1]
    if buffer.shape[-1] < used + m:
        capacity = max(2 * (used + m), _MIN_CAPACITY)
        grown = np.empty(buffer.shape[:-1] + (capacity,), dtype=buffer.dtype)
        grown[..., :used] = buffer[..., :used]
        buffer = grown
    buffer[..., used : used + m] = new_columns
    return buffer
