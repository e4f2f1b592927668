"""A rewind is an install: ``snapshot()`` keeps segment bytes, ``restore()``
puts the columns back as columns.

A snapshot is one store segment of the whole fleet -- the bytes a
checkpoint and ``extract_series`` write -- so taking one builds no scalar
object for a column, and restoring one installs the columns as recovery
does: no ``FleetKernel.pack``, no ``_FleetGroup.materialize``, and no
re-pack on the next batch.  Pinned here, under both bodies of the
kernel's run, on a 64-series fleet with a warming key and an override
cohort (a second kernel group):

* snapshot, N batches, restore, the same N batches equals the first pass
  float for float, also through ``pickle``;
* the snapshot reads as ``{key: _SeriesState}`` equal to what the engine
  materializes;
* bytes that do not decode raise before anything of the engine changes;
* a ``fleet_kernel_enabled = False`` engine keeps whatever it restores or
  adopts on its scalar pipelines.
"""

import pickle
from collections import Counter

import numpy as np
import pytest

from repro.core.fleet import FleetKernel
from repro.durability import CorruptCheckpointError
from repro.specs import DecomposerSpec, DetectorSpec, EngineSpec, PipelineSpec
from repro.streaming import EngineSnapshot, IngestResult, MultiSeriesEngine
from repro.streaming.engine import _FleetGroup, _SeriesState

from tests.conftest import canonical_bytes, make_seasonal_series

pytestmark = pytest.mark.usefixtures("kernel_body")

PERIOD = 24
INIT = 4 * PERIOD
WIDE = [f"w-{index:02d}" for index in range(56)]
NARROW = [f"n-{index}" for index in range(7)]
WARMING = "warming"
KEYS = [*WIDE, *NARROW, WARMING]
#: rounds fed before the snapshot: the warming key is 3 points short of
#: live, so it goes live -- and is absorbed -- during the batches after
WARM = INIT + 6
WARMING_POINTS = INIT - 3
BATCHES, ROUNDS = 8, 2


def oneshotstl(**params) -> PipelineSpec:
    params = {"period": PERIOD, "shift_window": 3, **params}
    detector = DetectorSpec("nsigma", {"threshold": 4.0})
    return PipelineSpec(DecomposerSpec("oneshotstl", params), detector)


SPEC = EngineSpec(
    pipeline=oneshotstl(),
    overrides={key: oneshotstl(lambda1=3.0) for key in NARROW},
    initialization_length=INIT,
)


def stream(index: int) -> np.ndarray:
    """One key's values: seasonal, with spikes that trip shift searches."""
    length = WARM + BATCHES * ROUNDS
    values = make_seasonal_series(length, PERIOD, seed=1200 + index)["values"]
    values[INIT + 3 + index % 17 :: 41] += 3.0
    return values


STREAMS = np.column_stack([stream(index) for index in range(len(KEYS))])
#: each key's first row after the snapshot
STARTS = np.array([WARM] * (len(KEYS) - 1) + [WARMING_POINTS])
#: ``ROUNDS`` rows a batch, each key its own next values
BLOCKS = [
    STREAMS[STARTS + np.arange(b * ROUNDS, (b + 1) * ROUNDS)[:, None], range(len(KEYS))]
    for b in range(BATCHES)
]


def warmed(kernel: bool = True) -> MultiSeriesEngine:
    engine = MultiSeriesEngine.from_spec(SPEC)
    engine.fleet_kernel_enabled = kernel
    engine.ingest_grid(KEYS[:-1], STREAMS[:WARM, :-1])
    engine.ingest_grid([WARMING], STREAMS[:WARMING_POINTS, -1:])
    return engine


def feed(engine: MultiSeriesEngine, blocks=BLOCKS) -> list:
    """Every output of every batch, as bytes."""
    results = [engine.ingest_grid(KEYS, block) for block in blocks]
    return [
        [getattr(result, name).tobytes() for name in IngestResult.FIELDS]
        for result in results
    ]


@pytest.fixture
def engine():
    engine = warmed()
    assert set(engine._absorbed) == set(KEYS[:-1])
    assert len(engine._groups) == 2
    return engine


@pytest.fixture
def calls(monkeypatch):
    """How often ``FleetKernel.pack`` and ``_FleetGroup.materialize`` run."""
    counts: Counter = Counter()
    pack, materialize = FleetKernel.pack, _FleetGroup.materialize

    def counting_pack(models):
        counts["pack"] += 1
        return pack(models)

    def counting_materialize(group, columns):
        counts["materialize"] += 1
        return materialize(group, columns)

    monkeypatch.setattr(FleetKernel, "pack", staticmethod(counting_pack))
    monkeypatch.setattr(_FleetGroup, "materialize", counting_materialize)
    return counts


class TestARewindBuildsNothing:
    def test_restore_replays_the_first_pass_float_for_float(self, engine):
        snapshot = engine.snapshot()
        first = feed(engine)
        assert WARMING in engine._absorbed  # it went live in the batches
        engine.restore(snapshot)
        assert set(engine._absorbed) == set(KEYS[:-1])
        assert engine._series[WARMING] is not None
        assert feed(engine) == first
        # ... and again: restoring leaves the snapshot as it was
        engine.restore(snapshot)
        assert feed(engine) == first

    def test_no_pack_and_no_materialize_across_the_rewind(self, engine, calls):
        snapshot = engine.snapshot()
        engine.restore(snapshot)
        engine.ingest_grid(KEYS, BLOCKS[0])
        assert calls == Counter()
        # The warming key's absorption is the first pack after it.
        engine.ingest_grid(KEYS, BLOCKS[1])
        assert calls == Counter(pack=1)

    def test_a_pickled_snapshot_restores_the_same_stream(self, engine):
        snapshot = engine.snapshot()
        dict(snapshot)  # the decoded view is not part of the pickle
        blob = pickle.dumps(snapshot)
        assert len(blob) < len(snapshot.payload) + 256
        first = feed(engine)
        clone = pickle.loads(blob)
        assert type(clone) is EngineSnapshot
        assert clone.payload == snapshot.payload
        assert clone.latency_window == snapshot.latency_window
        fresh = MultiSeriesEngine.from_spec(SPEC)
        fresh.restore(clone)
        assert feed(fresh) == first

    def test_the_snapshot_reads_as_the_materialized_states(self, engine, calls):
        snapshot = engine.snapshot()
        assert calls == Counter()
        expected = engine._materialized(engine.keys())
        states = dict(snapshot)
        assert list(states) == KEYS
        assert all(isinstance(state, _SeriesState) for state in states.values())
        # Key by key, each through one pickle round trip: pickle memoizes
        # by identity, a live engine's spec shares its interned strings
        # (and the spec object itself) across states, and the view's
        # spec came off the segment's JSON header.
        for key in KEYS:
            got, want = (pickle.loads(pickle.dumps(s[key])) for s in (states, expected))
            assert canonical_bytes(got) == canonical_bytes(want), key
        # read once, then the same objects; nothing of the engine aliased
        assert snapshot[WIDE[0]] is states[WIDE[0]]
        assert states[WARMING] is not engine._series[WARMING]
        assert len(snapshot) == len(KEYS) and WARMING in snapshot

    def test_undecodable_bytes_change_nothing(self, engine):
        snapshot = engine.snapshot()
        first = feed(engine, BLOCKS[:2])
        engine.restore(snapshot)
        before = (engine._series, engine._groups, engine._absorbed)
        contents = tuple(dict(table) for table in before)
        damaged = bytearray(snapshot.payload)
        damaged[8] ^= 0xFF  # the first byte of the JSON header
        with pytest.raises(CorruptCheckpointError):
            engine.restore(EngineSnapshot(bytes(damaged), snapshot.latency_window))
        after = (engine._series, engine._groups, engine._absorbed)
        assert all(old is new for old, new in zip(before, after))
        assert tuple(dict(table) for table in after) == contents
        assert feed(engine, BLOCKS[:2]) == first

    def test_restore_takes_only_a_snapshot(self, engine):
        with pytest.raises(TypeError):
            engine.restore(dict(engine.snapshot()))

    def test_a_disabled_kernel_restores_scalar_homes(self, engine):
        snapshot = engine.snapshot()
        first = feed(engine)
        twin = MultiSeriesEngine.from_spec(SPEC)
        twin.fleet_kernel_enabled = False
        twin.restore(snapshot)
        assert not twin._absorbed and not twin._groups
        assert all(isinstance(twin._series[key], _SeriesState) for key in KEYS)
        assert feed(twin) == first
        assert not twin._absorbed


class TestADisabledKernelAdoptsScalarHomes:
    def test_adopted_columns_stay_on_the_scalar_pipeline(self, engine):
        moved = [WIDE[0], NARROW[0]]
        reference = warmed()
        twin = MultiSeriesEngine.from_spec(SPEC)
        twin.fleet_kernel_enabled = False
        twin.adopt_series(engine.extract_series(moved))
        assert not twin._absorbed and not twin._groups
        block = BLOCKS[0][:, [KEYS.index(key) for key in moved]]
        got = twin.ingest_grid(moved, block)
        want = reference.ingest_grid(moved, block)
        assert not twin._absorbed
        for name in IngestResult.FIELDS:
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
