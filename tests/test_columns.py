"""One declaration per columnar class, and the operations that walk it.

``FleetKernel``, ``BatchedIncrementalLDLT`` and the engine's
``_FleetGroup`` each name their per-column arrays once
(``COLUMNS``); every membership and persistence operation is a loop over
that list (:mod:`repro.utils.columns`).  Pinned here, for each class, with
every declared array holding values that differ in every column and cell:
gather a permutation and scatter it onto a twin, append, remove (the
group), and the named-array round trip are byte-identical column by
column -- and what each operation carries is exactly the declared
sections, and no undeclared per-column array rides beside them, so an
array added to a declaration later is covered here without a new test.
"""

import numpy as np
import pytest

from repro.core.fleet import FleetKernel
from repro.durability.segment import ColumnGroup
from repro.solvers.batched_ldlt import BatchedIncrementalLDLT
from repro.specs import DecomposerSpec, DetectorSpec, PipelineSpec
from repro.streaming.engine import _FleetGroup
from repro.utils import columns as columnar

#: a prime column count, unlike any cell dimension below
N = 7
PARAMS = {
    "period": 5,
    "lambda1": 2.0,
    "lambda2": 3.0,
    "iterations": 3,
    "shift_window": 2,
    "shift_threshold": 5.0,
    "epsilon": 1e-6,
}
SIZES = FleetKernel._sizes(PARAMS)
SPEC = PipelineSpec(
    decomposer=DecomposerSpec("oneshotstl", {"period": 5, "iterations": 3}),
    detector=DetectorSpec("nsigma", {"threshold": 5.0}),
)


def build(cls, arrays: dict, n: int):
    """An instance of ``cls`` holding ``arrays``, through its own loader."""
    if cls is BatchedIncrementalLDLT:
        return columnar.from_arrays(
            cls, arrays, n, SIZES, lambda: cls(SIZES["w"], SIZES["I"], n)
        )
    if cls is FleetKernel:
        return FleetKernel.from_arrays(PARAMS, arrays)
    meta = {"spec": SPEC.to_dict(), "kernel": PARAMS}
    keys = [f"k{column}" for column in range(n)]
    return _FleetGroup.from_columns(keys, ColumnGroup(meta, arrays), 16)


def distinct(cls, n: int = N, offset: float = 0.0):
    """``cls`` whose every declared array differs in every cell."""
    arrays = {}
    for index, (section, (dtype, shape)) in enumerate(
        columnar.layout(cls, n, SIZES).items()
    ):
        values = np.arange(np.prod(shape)).reshape(shape) * 1.25 + 1000 * index + offset
        arrays[section] = values.astype(dtype)
    return build(cls, arrays, n)


def as_bytes(arrays: dict) -> dict:
    """Every section as ``(dtype, shape, bytes)``."""
    return {
        name: (array.dtype.str, array.shape, np.ascontiguousarray(array).tobytes())
        for name, array in arrays.items()
    }


def state(obj) -> dict:
    return as_bytes(columnar.to_arrays(obj))


def columns_of(obj, columns) -> dict:
    """The declared sections of ``obj`` at ``columns``, gathered by hand."""
    return as_bytes(
        {
            section: columnar.to_arrays(holder)[entry.name].take(columns, entry.axis)
            for section, holder, entry in columnar.walk(obj)
        }
    )


def assert_declared(obj, n: int) -> None:
    """The sections are exactly the declaration's, each ``n`` columns wide,
    and no holder keeps an undeclared array ``n`` columns wide."""
    sections = columnar.layout(type(obj), n, SIZES)
    arrays = columnar.to_arrays(obj)
    assert list(arrays) == list(sections)
    for name, (dtype, shape) in sections.items():
        assert arrays[name].dtype == np.dtype(dtype) and arrays[name].shape == shape, name
    declared: dict = {}
    for _, holder, entry in columnar.walk(obj):
        storage = entry.name if entry.axis == 0 else "_" + entry.name
        declared.setdefault(id(holder), (holder, set()))[1].add(storage)
    for holder, names in declared.values():
        slots = getattr(type(holder), "__slots__", ())
        attributes = {name: getattr(holder, name) for name in slots}
        attributes.update(getattr(holder, "__dict__", {}))
        wide = {
            name
            for name, value in attributes.items()
            if isinstance(value, np.ndarray) and value.ndim and n in (value.shape[0], value.shape[-1])
        }
        assert wide <= names, f"{type(holder).__name__} keeps undeclared {wide - names}"


CLASSES = [BatchedIncrementalLDLT, FleetKernel, _FleetGroup]


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
class TestDeclaredColumns:
    def test_the_declaration_is_the_section_list(self, cls):
        obj = distinct(cls)
        assert_declared(obj, N)
        assert [section for section, _, _ in columnar.walk(obj)] == list(
            columnar.layout(cls, N, SIZES)
        )

    def test_a_gathered_permutation_scattered_onto_a_twin_is_the_original(self, cls):
        obj = distinct(cls)
        permutation = np.random.default_rng(5).permutation(N)
        gathered = columnar.select(obj, permutation)
        assert_declared(gathered, N)
        assert state(gathered) == columns_of(obj, permutation)
        twin = distinct(cls, offset=0.5)
        assert state(twin) != state(obj)
        columnar.assign(twin, permutation, gathered)
        assert state(twin) == state(obj)

    def test_append_is_the_concatenation(self, cls):
        obj = distinct(cls)
        head = columnar.select(obj, np.arange(3))
        for column in range(3, N):  # a trickle: capacity is reused
            tail = columnar.select(obj, np.array([column]))
            (head.extend if cls is _FleetGroup else head.append)(tail)
        assert_declared(head, N)
        assert state(head) == state(obj)

    def test_the_named_arrays_rebuild_the_original(self, cls):
        obj = distinct(cls)
        rebuilt = build(cls, {k: v.copy() for k, v in columnar.to_arrays(obj).items()}, N)
        assert_declared(rebuilt, N)
        assert state(rebuilt) == state(obj)

    def test_a_section_short_of_a_column_is_refused(self, cls):
        arrays = columnar.to_arrays(distinct(cls))
        name, array = next(iter(arrays.items()))
        entry = next(entry for section, _, entry in columnar.walk(distinct(cls)) if section == name)
        arrays[name] = np.delete(array, 0, axis=entry.axis)
        with pytest.raises(ValueError):
            build(cls, arrays, N)


def test_removing_group_columns_keeps_the_survivors():
    group = distinct(_FleetGroup)
    removed = [1, 4, 5]
    keep = np.setdiff1d(np.arange(N), removed)
    expected = columns_of(group, keep)
    keys = [group.keys[column] for column in keep]
    group.remove(removed)
    assert_declared(group, keep.size)
    assert state(group) == expected and group.keys == keys
