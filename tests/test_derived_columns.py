"""A kernel column stores each fact once.

A column's next record index is its kernel's ``global_index``, each of its
solvers holds ``2 * points_processed`` variables and its last trend is the
last iteration's previous trend: the scalar objects keep all three
(``StreamingPipeline._index``, ``IncrementalBandedLDLT.size``,
``OneShotSTL._last_trend``), a column derives them.  Pinned here, under
both kernel bodies: at every boundary where a column turns into scalar
state or back -- checkpoint -> reopen, extract -> adopt, snapshot ->
restore, a snapshot's mapping view, and the round the kernel hands back
as non-finite -- the derived values equal what the ``fleet_kernel_enabled
= False`` twin's scalar objects hold, bit for bit, and a segment this
build writes carries no copy of them.
"""

import numpy as np
import pytest

from repro.durability import DirectoryCheckpointStore
from repro.durability.segment import split_segment
from repro.streaming import IngestResult, MultiSeriesEngine
from repro.streaming.engine import _FleetGroup

from tests.conftest import make_seasonal_series

pytestmark = pytest.mark.usefixtures("kernel_body")

PERIOD = 8
INIT = 2 * PERIOD
KEYS = [f"m-{i:02d}" for i in range(6)]
SPEC = MultiSeriesEngine.for_oneshotstl(
    PERIOD, initialization_length=INIT, shift_window=2
).spec


def stream(k: int, length: int = 120) -> np.ndarray:
    values = make_seasonal_series(length, PERIOD, seed=40 + k)["values"]
    values[INIT + 5 + 3 * k :: 29] += 4.0  # spikes: flags and shift searches
    return values


DATA = np.column_stack([stream(k) for k in range(len(KEYS))])
DATA[INIT + 30, 2] = np.nan  # a gap: imputed from the derived last trend


def twin() -> MultiSeriesEngine:
    engine = MultiSeriesEngine.from_spec(SPEC)
    engine.fleet_kernel_enabled = False
    return engine


def outputs(result: IngestResult) -> list:
    return [getattr(result, name).tobytes() for name in IngestResult.FIELDS]


def scalar_facts(state) -> tuple:
    """``(record index, last trend's bits, solver sizes)`` of a scalar state."""
    model = state.pipeline.decomposer
    return (
        state.pipeline._index,
        model._last_trend.hex(),
        [iteration.solver.size for iteration in model._iterations_state],
    )


def column_facts(engine: MultiSeriesEngine, key) -> tuple:
    """The same three, derived from the key's column."""
    group, column = engine._absorbed[key]
    kernel = group.kernel
    return (
        int(kernel.global_index[column]),
        float(kernel.last_trend[column]).hex(),
        [2 * int(kernel.points_processed[column])] * kernel.iterations,
    )


def assert_same_facts(engine: MultiSeriesEngine, reference: MultiSeriesEngine, keys):
    """Every key is a column whose derived facts, and those of the scalar
    state built from it, are the twin's."""
    assert set(keys) <= set(engine._absorbed)
    built = engine._materialized(keys)
    for key in keys:
        expected = scalar_facts(reference._series[key])
        assert column_facts(engine, key) == expected, key
        assert scalar_facts(built[key]) == expected, key


def test_checkpoint_then_reopen(tmp_path):
    engine = MultiSeriesEngine.open(tmp_path / "store", spec=SPEC)
    reference = twin()
    for source in (engine, reference):
        source.ingest_grid(KEYS, DATA[:60])
    engine.checkpoint()
    store = DirectoryCheckpointStore(tmp_path / "store")
    for name in store.list_segments():
        groups, _fallback = split_segment(store.read_segment(name), name)
        assert groups
        for group in groups:
            assert not {"indices", "last_trend", "solver_sizes"} & set(group.arrays)
    for source in (engine, reference):
        source.ingest_grid(KEYS, DATA[60:64])  # the WAL tail
    engine.close(checkpoint=False)
    reopened = MultiSeriesEngine.open(tmp_path / "store")
    assert_same_facts(reopened, reference, KEYS)
    assert outputs(reopened.ingest_grid(KEYS, DATA[64:80])) == outputs(
        reference.ingest_grid(KEYS, DATA[64:80])
    )
    assert_same_facts(reopened, reference, KEYS)
    reopened.close(checkpoint=False)


def test_extract_then_adopt():
    source, target, reference = (
        MultiSeriesEngine.from_spec(SPEC), MultiSeriesEngine.from_spec(SPEC), twin()
    )
    for engine in (source, reference):
        engine.ingest_grid(KEYS, DATA[:60])
    moved = KEYS[1::2]
    target.adopt_series(source.extract_series(moved))
    assert_same_facts(target, reference, moved)
    columns = [KEYS.index(key) for key in moved]
    block = DATA[60:80, columns]
    assert outputs(target.ingest_grid(moved, block)) == outputs(
        reference.ingest_grid(moved, block)
    )
    assert_same_facts(target, reference, moved)


def test_snapshot_then_restore_and_its_mapping_view():
    engine, reference = MultiSeriesEngine.from_spec(SPEC), twin()
    for source in (engine, reference):
        source.ingest_grid(KEYS, DATA[:60])
    snapshot = engine.snapshot()
    for key in KEYS:
        assert scalar_facts(snapshot[key]) == scalar_facts(reference._series[key])
    engine.ingest_grid(KEYS, DATA[60:70])
    engine.restore(snapshot)
    assert_same_facts(engine, reference, KEYS)
    assert outputs(engine.ingest_grid(KEYS, DATA[60:80])) == outputs(
        reference.ingest_grid(KEYS, DATA[60:80])
    )
    assert_same_facts(engine, reference, KEYS)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_a_non_finite_hand_back(monkeypatch):
    """Two cells near the float64 ceiling overflow the kernel's screen:
    the round goes back to the scalar path and its state comes back."""
    loads = []
    load = _FleetGroup.load

    def spy(group, column, state):
        loads.append(column)
        return load(group, column, state)

    monkeypatch.setattr(_FleetGroup, "load", spy)
    engine, reference = MultiSeriesEngine.from_spec(SPEC), twin()
    for source in (engine, reference):
        source.ingest_grid(KEYS, DATA[:40])
    block = DATA[40:48].copy()
    block[3, [1, 4]] = 1e308
    assert outputs(engine.ingest_grid(KEYS, block)) == outputs(
        reference.ingest_grid(KEYS, block)
    )
    assert sorted(loads) == list(range(len(KEYS)))  # the round came back
    assert_same_facts(engine, reference, KEYS)
    assert outputs(engine.ingest_grid(KEYS, DATA[48:60])) == outputs(
        reference.ingest_grid(KEYS, DATA[48:60])
    )
    assert_same_facts(engine, reference, KEYS)
