"""Per-column array declarations, and the one implementation that walks them.

The fleet kernel (:class:`repro.core.fleet.FleetKernel`), its residual
monitor (:class:`~repro.core.fleet.ColumnarNSigma`), its stacked solver
(:class:`~repro.solvers.batched_ldlt.BatchedIncrementalLDLT`) and the
engine's kernel groups keep one column per member series, and each names
the arrays of a column once, in segment order, in a class attribute
``COLUMNS`` of :class:`Array` entries and :class:`Part` entries (a nested
columnar object).  Everything that moves whole columns is a loop over
those lists here: :func:`select`, :func:`assign`, :func:`append`, the
named arrays a store segment writes (:func:`to_arrays`) and their checked
inverse (:func:`from_arrays`), and the 1:1 copies to and from scalar
objects (:func:`pack`, :func:`unpack`, :func:`load`).  A new
per-column array is one declaration line; the flattened declarations are
a segment's section list.

Storage follows the column axis.  An axis-0 array lives in the attribute
it is named after and may be the leading rows of a larger allocation (its
``.base``) whose spare rows are append capacity.  An axis ``-1``
(cell-major) array lives in a ``(..., capacity)`` buffer ``_<name>``
whose leading ``n_series`` columns are live, the layout the kernel's
native run addresses.  A declaring class provides ``n_series`` and
``_blank(n)``: an object of its configuration for ``n`` columns whose
arrays and parts the caller sets.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Callable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from repro.utils.validation import owned_arrays

__all__ = ["Array", "Part", "amortized_append", "from_arrays", "layout", "span", "walk"]

#: smallest base allocation (columns) created when capacity is first needed
_MIN_CAPACITY = 8


class Array(NamedTuple):
    """One per-column array: its section ``name`` (after the prefixes of
    the parts it sits in), ``dtype``, column ``axis`` (0 or -1), ``cell``
    -- the other dimensions, each an ``int`` or the name of a size -- and
    the ``scalar`` object's attribute a column maps 1:1 onto (or None).
    An axis ``-1`` column maps onto a sequence of scalar objects along its
    last-but-one axis (one per IRLS iteration)."""

    name: str
    dtype: type
    axis: int = 0
    cell: tuple = ()
    scalar: str | None = None


class Part(NamedTuple):
    """A nested columnar object of class ``of`` in attribute ``name``,
    whose sections carry ``prefix``."""

    name: str
    of: type
    prefix: str = ""


def _storage(entry: Array) -> str:
    return entry.name if entry.axis == 0 else "_" + entry.name


def _live(holder, entry: Array) -> np.ndarray:
    stored = getattr(holder, _storage(entry))
    return stored if entry.axis == 0 else stored[..., : holder.n_series]


def _span(axis: int, start: int, stop: int) -> tuple:
    return (slice(start, stop),) if axis == 0 else (Ellipsis, slice(start, stop))


def amortized_append(view: np.ndarray, new, axis: int = 0) -> np.ndarray:
    """``view`` grown by ``new`` along ``axis`` (0 or -1), amortized.

    Returns a view of a base allocation with spare capacity (its
    ``.base``).  When ``view`` is already the leading slice of such a base
    with room, ``new`` lands in the spare capacity and nothing is copied;
    otherwise a base of twice the required size is allocated once, so
    ``m`` one-column appends copy O(m) in total, not O(m^2).  The caller
    must drop ``view`` and only ever mutate the result in place.  No
    array's buffer moves: growth is a new array object, never an
    in-place ``ndarray.resize``, so a buffer address is valid for as long
    as its array object lives (the native run caches them per object).
    """
    new = np.asarray(new, dtype=view.dtype)
    cell = view.shape[1:] if axis == 0 else view.shape[:-1]
    if (new.shape[1:] if axis == 0 else new.shape[:-1]) != cell:
        raise ValueError(f"cannot append {new.shape} to {view.shape} ({axis})")
    n, m = view.shape[axis], new.shape[axis]
    base = view.base
    if not (
        isinstance(base, np.ndarray)
        and base.dtype == view.dtype
        and (base.shape[1:] if axis == 0 else base.shape[:-1]) == cell
        and base.flags.c_contiguous
        and base.strides == view.strides
        and base.__array_interface__["data"] == view.__array_interface__["data"]
        and base.shape[axis] >= n + m
    ):
        shape = list(view.shape)
        shape[axis] = max(2 * (n + m), _MIN_CAPACITY)
        base = np.empty(shape, dtype=view.dtype)
        base[_span(axis, 0, n)] = view
    base[_span(axis, n, n + m)] = new
    return base[_span(axis, 0, n + m)]


#: per class, its declaration as ``(attribute, axis)`` pairs (None: a
#: part) -- the membership loops run on narrow hot paths
_PLANS: dict[type, tuple] = {}


def _plan(cls: type) -> tuple:
    plan = _PLANS.get(cls)
    if plan is None:
        plan = _PLANS[cls] = tuple(
            (entry.name, None)
            if type(entry) is Part
            else (_storage(entry), entry.axis)
            for entry in cls.COLUMNS
        )
    return plan


def walk(obj, prefix: str = "") -> Iterator[tuple[str, Any, Array]]:
    """``(section, holder, entry)`` of every array of ``obj`` in segment
    order, parts walked in place."""
    for entry in type(obj).COLUMNS:
        if type(entry) is Part:
            yield from walk(getattr(obj, entry.name), prefix + entry.prefix)
        else:
            yield prefix + entry.name, obj, entry


def span(columns: np.ndarray) -> "slice | np.ndarray":
    """A non-empty list of distinct columns as a slice when it is
    consecutive and ascending -- every index through it is then a view,
    not a gather or a scatter -- else as it is."""
    first, m = columns.item(0), columns.size
    if columns.item(-1) - first == m - 1 and (
        m < 3 or bool((np.diff(columns) == 1).all())
    ):
        return slice(first, first + m)
    return columns


# ------------------------------------------------------------ membership


def select(obj, columns, into=None):
    """The members at ``columns`` (repeats allowed) gathered into ``into``,
    by default a fresh ``obj._blank``.  An axis ``-1`` array is taken from
    its buffer: ``take`` would copy a strided live view whole first."""
    sub = obj._blank(len(columns)) if into is None else into
    for name, axis in _plan(type(obj)):
        value = getattr(obj, name)
        value = select(value, columns) if axis is None else value.take(columns, axis)
        setattr(sub, name, value)
    return sub


def assign(obj, columns, other) -> None:
    """Scatter the members of ``other`` into ``columns``."""
    for name, axis in _plan(type(obj)):
        mine, theirs = getattr(obj, name), getattr(other, name)
        if axis is None:
            assign(mine, columns, theirs)
        elif axis == 0:
            mine[columns] = theirs
        else:
            mine[..., : obj.n_series][..., columns] = theirs[..., : other.n_series]


def append(obj, other) -> None:
    """Append the members of ``other`` (see :func:`amortized_append`).  A
    part is appended by its own ``append``, which keeps any column count
    (the caller keeps ``obj``'s); a part ``obj`` lacks is taken as it is."""
    for name, axis in _plan(type(obj)):
        mine, theirs = getattr(obj, name), getattr(other, name)
        if axis is None:
            if mine is None:
                setattr(obj, name, theirs)
            else:
                mine.append(theirs)
        elif axis == 0:
            setattr(obj, name, amortized_append(mine, theirs))
        else:
            live = mine[..., : obj.n_series]
            grown = amortized_append(live, theirs[..., : other.n_series], -1)
            setattr(obj, name, grown.base)


# ----------------------------------------------------------- persistence


def to_arrays(obj) -> dict[str, np.ndarray]:
    """Every member's state as named arrays in segment order (live views)."""
    return {section: _live(holder, entry) for section, holder, entry in walk(obj)}


def layout(cls: type, n: int, sizes: Mapping[str, int], prefix: str = "") -> dict:
    """``{section: (dtype, shape)}`` of ``n`` columns of ``cls`` in segment
    order; ``sizes`` gives the named cell dimensions."""
    sections = {}
    for entry in cls.COLUMNS:
        if type(entry) is Part:
            sections.update(layout(entry.of, n, sizes, prefix + entry.prefix))
        else:
            cell = tuple(sizes.get(size, size) for size in entry.cell)
            shape = (n, *cell) if entry.axis == 0 else (*cell, n)
            sections[prefix + entry.name] = (entry.dtype, shape)
    return sections


def from_arrays(
    cls: type, arrays: Mapping, n: int, sizes: Mapping[str, int], build: Callable
):
    """Owned copies of ``arrays`` in ``build()`` -- a ``cls`` for ``n``
    columns, parts in place, arrays unset.  ``arrays`` may come off a disk:
    anything but exactly the sections of :func:`layout`, each of its dtype
    kind and shape, raises ``ValueError`` before ``build`` is called."""
    owned = owned_arrays(arrays, layout(cls, n, sizes))
    obj = build()
    for (_, holder, entry), array in zip(walk(obj), owned):
        setattr(holder, _storage(entry), array)
    return obj


# --------------------------------------------------- scalar interoperability


def _scalar_entries(obj) -> Iterator[Array]:
    for entry in type(obj).COLUMNS:
        if type(entry) is not Part and entry.scalar is not None:
            yield entry


def pack(obj, scalars: Sequence) -> None:
    """Set ``obj``'s 1:1 arrays from one scalar object per column."""
    for entry in _scalar_entries(obj):
        get = attrgetter(entry.scalar)
        if entry.axis == 0:
            value = np.array([get(scalar) for scalar in scalars], dtype=entry.dtype)
        else:
            stacked = np.array([[*map(get, column)] for column in scalars], entry.dtype)
            stacked = stacked.transpose(*range(2, stacked.ndim), 1, 0)
            value = np.ascontiguousarray(stacked)
        setattr(obj, _storage(entry), value)


def unpack(obj, columns: np.ndarray, scalars: Sequence) -> None:
    """Write the members at ``columns`` into the 1:1 attributes of
    ``scalars``, one per column: one gather per array, bulk-converted by
    ``ndarray.tolist()`` (exact Python scalars; a row with cells becomes a
    fresh array).  The attributes must exist already -- overwriting keeps
    their order, and so their pickles."""
    for entry in _scalar_entries(obj):
        if entry.axis == 0:
            gathered = _live(obj, entry)[columns]
            if gathered.ndim == 1:
                values = gathered.tolist()
            else:
                values = [*map(np.copy, gathered)]
            pairs = zip(scalars, values)
        else:
            gathered = _live(obj, entry)[..., columns]
            last = gathered.ndim - 1
            values = gathered.transpose(last, last - 1, *range(last - 1)).tolist()
            pairs = (pair for group in zip(scalars, values) for pair in zip(*group))
        for scalar, value in pairs:
            setattr(scalar, entry.scalar, value)


def load(obj, index: int, scalar) -> None:
    """Overwrite member ``index``'s 1:1 arrays from its scalar object."""
    for entry in _scalar_entries(obj):
        get = attrgetter(entry.scalar)
        if entry.axis == 0:
            _live(obj, entry)[index] = get(scalar)
        else:
            stacked = np.array([get(each) for each in scalar], dtype=entry.dtype)
            stacked = stacked.transpose(*range(1, stacked.ndim), 0)
            _live(obj, entry)[..., index] = stacked
