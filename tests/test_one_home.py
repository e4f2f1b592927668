"""A series has one home: scalar objects while off the kernel, columns after.

Absorption consumes a series' ``_SeriesState`` -> ``StreamingPipeline`` ->
``OneShotSTL`` -> solvers; from then on reads come off the columns, and
``_FleetGroup.materialize`` -- the one way out -- builds fresh scalar
state where a boundary needs it.  Pinned here:

* no scalar object survives an absorption, whatever is called afterwards;
* reads are pure: interleaving them changes no later output and no byte
  of the next checkpoint, and everything equals the scalar reference
  (``fleet_kernel_enabled = False``) float for float;
* ``snapshot`` still speaks ``{key: _SeriesState}``; a store segment
  (format 4) -- and an ``extract_series`` payload, which is one -- is the
  columns themselves, and holds the same state whichever home wrote it.
"""

import gc
import io
import pickle
import tempfile
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import OneShotSTL
from repro.durability.recovery import read_cohort
from repro.durability.scrub import decode_manifest_keys
from repro.durability.segment import split_segment
from repro.solvers import IncrementalBandedLDLT
from repro.streaming import (
    IngestResult,
    MultiSeriesEngine,
    RingBuffer,
    StreamingPipeline,
)
from repro.streaming.engine import _FleetGroup, _SeriesState
from repro.streaming.latency import summarize_latencies

from tests.conftest import canonical_bytes, make_seasonal_series, without_latency

PERIOD = 24
INIT = 4 * PERIOD
KEYS = [f"m-{i}" for i in range(10)]
SCALAR_TYPES = (OneShotSTL, StreamingPipeline, IncrementalBandedLDLT)

#: every test here runs under both bodies of the kernel's run
pytestmark = pytest.mark.usefixtures("kernel_body")


def stream(index, length=PERIOD * 40):
    values = make_seasonal_series(length, PERIOD, seed=700 + index)["values"]
    values[INIT + 7 * (index + 3) :: 53] += 4.0  # spikes: flags and searches
    return values


STREAMS = np.column_stack([stream(index) for index in range(len(KEYS))])


def scalar_census():
    """``(per-series scalar objects, latency rings)`` alive right now."""
    gc.collect()
    objects = gc.get_objects()
    return (
        sum(isinstance(obj, SCALAR_TYPES) for obj in objects),
        sum(isinstance(obj, RingBuffer) for obj in objects),
    )


class TestAbsorbedSeriesHaveNoScalarObjects:
    def test_object_census(self, tmp_path):
        baseline = scalar_census()
        engine = MultiSeriesEngine.open(
            tmp_path / "store",
            spec=MultiSeriesEngine.for_oneshotstl(PERIOD).spec,
        )
        # The round that completes the windows, then the first online
        # points: the cohort is absorbed inside this one batch.
        engine.ingest_grid(KEYS, STREAMS[: INIT + 4])
        assert set(engine._absorbed) == set(KEYS)
        # ... but one latency ring: the group's
        baseline = (baseline[0], baseline[1] + 1)
        assert scalar_census() == baseline

        calls = {
            "process": lambda: engine.process(KEYS[3], 0.5),
            "forecast": lambda: engine.forecast(KEYS[0], 30),
            "series_stats": lambda: engine.series_stats(KEYS[1]),
            "fleet_stats": lambda: engine.fleet_stats(),
            "subset grid": lambda: engine.ingest_grid(KEYS[:2], STREAMS[200:201, :2]),
            "snapshot": lambda: engine.snapshot(),
            "checkpoint": lambda: engine.checkpoint(),
        }
        for name, call in calls.items():
            returned = call()
            assert returned is not None
            del returned  # a snapshot *is* scalar objects: the caller's
            assert scalar_census() == baseline, f"{name} left scalar objects"
        assert set(engine._absorbed) == set(KEYS)
        assert all(state is None for state in engine._series.values())
        engine.close()


class TestAGroupHasNoDeadColumns:
    """Extraction compacts: whatever leaves, the rest advance full-width."""

    CUT, END = INIT + 20, INIT + 44
    MOVED = [1, 2, 4, 5, 7, 9]  # 60% of the cohort, not contiguous
    STAYED = [0, 3, 6, 8]

    @staticmethod
    def outputs(result, width):
        return {
            name: getattr(result, name).reshape(-1, width)
            for name in IngestResult.FIELDS
        }

    def test_both_halves_of_a_split_cohort_equal_the_unmoved_reference(self):
        baseline = scalar_census()
        reference = MultiSeriesEngine.for_oneshotstl(PERIOD)
        reference.ingest_grid(KEYS, STREAMS[: self.CUT])
        expected = self.outputs(
            reference.ingest_grid(KEYS, STREAMS[self.CUT : self.END]), len(KEYS)
        )

        donor = MultiSeriesEngine.for_oneshotstl(PERIOD)
        donor.ingest_grid(KEYS, STREAMS[: self.CUT])
        # The target already runs a cohort of its own: the newcomers
        # join its group, they do not found one.
        locals_ = [f"t-{i}" for i in range(8)]
        target = MultiSeriesEngine.for_oneshotstl(PERIOD)
        target.ingest_grid(locals_, STREAMS[: self.CUT, :8] + 1.0)
        moved = [KEYS[i] for i in self.MOVED]
        stayed = [KEYS[i] for i in self.STAYED]
        target.adopt_series(donor.extract_series(moved))

        (group,) = donor._groups.values()
        assert group.keys == stayed and group.kernel.n_series == len(stayed)
        assert group.points.shape == group.anomalies.shape == (len(stayed),)
        assert donor._absorbed == {
            key: (group, column) for column, key in enumerate(stayed)
        }
        widths = []
        advance = group.kernel._advance_planes

        def spy(planes, columns=None, clean=None):
            widths.append(columns)
            return advance(planes, columns, clean)

        group.kernel._advance_planes = spy
        window = STREAMS[self.CUT : self.END]
        halves = (
            (donor, stayed, window[:, self.STAYED], self.STAYED),
            (
                target,
                locals_ + moved,
                np.hstack([window[:, :8] + 1.0, window[:, self.MOVED]]),
                self.MOVED,
            ),
        )
        for engine, keys, block, members in halves:
            got = self.outputs(engine.ingest_grid(keys, block), len(keys))
            for name, array in got.items():
                assert (
                    array[:, -len(members) :].tolist()
                    == expected[name][:, members].tolist()
                ), name
            assert set(engine._absorbed) == set(keys)
            for key, index in zip(keys[-len(members) :], members):
                assert without_latency(engine.series_stats(key)) == without_latency(
                    reference.series_stats(KEYS[index])
                )
        assert widths == [None], "the survivors left the full-width path"
        assert len(target._groups) == 1
        # no scalar object, and one latency ring per engine's group
        assert scalar_census() == (baseline[0], baseline[1] + 3)

        # A group nobody is left in is dropped, not kept empty.
        donor.extract_series(stayed)
        assert donor._groups == {} and donor._absorbed == {} and len(donor) == 0


def warm_state():
    """A fleet past warm-up, as a scalar-path snapshot (restored per run)."""
    engine = MultiSeriesEngine.for_oneshotstl(PERIOD)
    engine.fleet_kernel_enabled = False
    engine.ingest_grid(KEYS, STREAMS[: INIT + 12])
    return engine.snapshot()


WARM = warm_state()

READS = st.one_of(
    st.tuples(st.just("forecast"), st.integers(0, 9), st.integers(1, 3 * PERIOD)),
    st.tuples(st.just("series_stats"), st.integers(0, 9)),
    st.tuples(st.sampled_from(["fleet_stats", "live_keys", "snapshot", "checkpoint"])),
)
WRITES = st.one_of(
    st.tuples(st.just("grid"), st.integers(1, 3)),
    st.tuples(st.just("process"), st.integers(0, 9)),
    st.tuples(
        st.just("subset"),
        st.lists(st.integers(0, 9), min_size=1, max_size=9, unique=True),
        st.integers(1, 2),
    ),
)


class Run:
    """One engine fed the shared write schedule."""

    def __init__(self, directory, kernel):
        self.engine = MultiSeriesEngine.for_oneshotstl(PERIOD)
        self.engine.fleet_kernel_enabled = kernel
        self.engine.checkpoint_cohort_size = 4
        self.engine.restore(WARM)
        self.engine.attach_store(directory, checkpoint=False)
        self.cursors = [INIT + 12] * len(KEYS)

    def take(self, columns, rounds):
        block = np.column_stack(
            [STREAMS[self.cursors[c] : self.cursors[c] + rounds, c] for c in columns]
        )
        for column in columns:
            self.cursors[column] += rounds
        return block

    def write(self, step):
        """Apply one write; returns its outputs as plain comparable data."""
        engine = self.engine
        if step[0] == "process":
            (value,) = self.take([step[1]], 1).reshape(-1)
            return engine.process(KEYS[step[1]], value).record
        columns = list(range(len(KEYS))) if step[0] == "grid" else step[1]
        result = engine.ingest_grid(
            [KEYS[c] for c in columns], self.take(columns, step[-1])
        )
        return [getattr(result, field).tolist() for field in IngestResult.FIELDS]

    def read(self, step):
        engine = self.engine
        if step[0] == "forecast":
            return engine.forecast(KEYS[step[1]], step[2]).tolist()
        if step[0] == "series_stats":
            return without_latency(engine.series_stats(KEYS[step[1]]))
        if step[0] == "fleet_stats":
            stats = engine.fleet_stats()
            return stats.series_live, stats.points_total, stats.anomalies_total
        if step[0] == "snapshot":
            return canonical_bytes(dict(engine.snapshot()))
        if step[0] == "checkpoint":
            return engine.checkpoint().cohorts_total
        return engine.live_keys()

    def segments(self):
        """``{cohort id: decoded sections}`` of a fresh checkpoint."""
        engine = self.engine
        engine.checkpoint()
        store = engine._store
        return {
            cohort["id"]: decoded_sections(store, cohort)
            for cohort in store.read_manifest()["cohorts"]
        }


def decoded_sections(store, cohort):
    """One all-live, one-spec segment as ``(keys, hyper-parameters,
    {section: bytes})``: the column group a kernel engine wrote, or --
    for the scalar reference, whose segment is all fallback -- the
    columns absorption makes of the states it holds."""
    groups, states = read_cohort(store, cohort)
    if states:
        assert not groups
        keys = list(states)
        spec = next(iter(states.values())).pipeline.spec
        group = _FleetGroup(spec, latency_window=1)
        group.absorb(states)
        saved = group.save_columns(np.arange(len(keys)))
    else:
        (saved,) = groups
        keys = list(decode_manifest_keys(saved.meta["keys"]))
        assert saved.meta["positions"] == list(range(len(keys)))
    described = {name: saved.meta[name] for name in ("spec", "kernel")}
    sections = {
        name: (array.dtype.str, array.shape, array.tobytes())
        for name, array in saved.arrays.items()
    }
    return keys, described, sections


class TestReadsArePure:
    @settings(max_examples=20, deadline=None)
    @given(
        schedule=st.lists(
            st.tuples(WRITES, st.lists(READS, max_size=3)), min_size=1, max_size=6
        )
    )
    def test_interleaved_reads_change_nothing(self, schedule):
        with tempfile.TemporaryDirectory() as root:
            read, unread, reference = (
                Run(f"{root}/read", kernel=True),
                Run(f"{root}/unread", kernel=True),
                Run(f"{root}/reference", kernel=False),
            )
            # Full-width first, so the kernel runs absorb the fleet; the
            # closing full-width batch dirties every cohort.
            steps = [(("grid", 1), [])] + schedule + [(("grid", 2), [])]
            for write, reads in steps:
                expected = reference.write(write)
                assert unread.write(write) == expected
                assert read.write(write) == expected
                for step in reads:
                    # ... and every read answers what the scalar
                    # reference answers at the same point of the stream.
                    assert read.read(step) == reference.read(step)
            assert set(read.engine._absorbed) == set(KEYS)
            segments = read.segments()
            assert segments == unread.segments()
            assert segments == reference.segments()
            for run in (read, unread, reference):
                run.engine.close(checkpoint=False)


class TestForecastOffTheColumns:
    def test_engine_forecast_equals_scalar_reference(self):
        engines = []
        for kernel in (True, False):
            engine = MultiSeriesEngine.for_oneshotstl(PERIOD, shift_window=10)
            engine.fleet_kernel_enabled = kernel
            engine.ingest_grid(KEYS, STREAMS[: INIT + 3 * PERIOD + 5])
            engines.append(engine)
        fast, reference = engines
        assert set(fast._absorbed) == set(KEYS) and not reference._absorbed
        shifted = 0
        for key, (group, column) in fast._absorbed.items():
            shifted += int(group.kernel.last_applied_shift[column] != 0)
            for horizon in (1, PERIOD - 1, PERIOD, 3 * PERIOD + 5):
                forecast = fast.forecast(key, horizon)
                assert forecast.shape == (horizon,)
                assert forecast.tolist() == reference.forecast(key, horizon).tolist()
        assert shifted, "no search applied a shift: the case is not covered"
        assert set(fast._absorbed) == set(KEYS)  # nothing was un-absorbed


class TestLatencyRingHasOneHome:
    """A column's latency is its group's: one ring per kernel group, fed
    once per round a block advances, summarized once per group, and
    carried by no checkpoint, handoff or snapshot."""

    def test_every_member_of_a_full_width_fleet_reports_the_group(self):
        engine = MultiSeriesEngine.for_oneshotstl(PERIOD)
        engine.ingest_grid(KEYS, STREAMS[: INIT + 40])
        (group,) = engine._groups.values()
        # ... one ring, not a column's: forty rounds, forty durations
        assert len(group.latencies) == 40
        expected = summarize_latencies(group.latencies.to_array(), "group")
        stats = engine.fleet_stats().per_series
        for key in KEYS:
            label = f"series[{key!r}]"
            assert stats[key].latency == replace(expected, method=label)
            assert engine.series_stats(key).latency == stats[key].latency

    def test_adopted_and_restored_columns_report_none_until_their_group_advances(
        self, tmp_path
    ):
        donor = MultiSeriesEngine.for_oneshotstl(PERIOD, latency_window=64)
        donor.ingest_grid(KEYS, STREAMS[: INIT + 40])
        assert donor.series_stats(KEYS[0]).latency.points == 40
        payload = donor.extract_series(KEYS)
        # Narrower and wider than the donor's 64: the group's ring is the
        # target's, and nothing of the donor's travelled.
        for window in (16, 256):
            engine = MultiSeriesEngine.for_oneshotstl(PERIOD, latency_window=window)
            engine.adopt_series(payload)
            assert set(engine._absorbed) == set(KEYS)  # columns at once
            (group,) = engine._groups.values()
            assert group.latencies.capacity == window
            assert all(engine.series_stats(key).latency is None for key in KEYS)
            engine.ingest_grid(KEYS, STREAMS[INIT + 40 : INIT + 42])
            for key in KEYS:
                assert engine.series_stats(key).latency.points == 2
                # ... and the way out carries no ring either
                ring = engine.snapshot()[key].latencies
                assert ring.capacity == window and len(ring) == 0

        store = tmp_path / "store"
        engine = MultiSeriesEngine.open(store, spec=donor.spec)
        engine.ingest_grid(KEYS, STREAMS[: INIT + 40])
        engine.checkpoint()
        engine.ingest_grid(KEYS, STREAMS[INIT + 40 : INIT + 43])  # the WAL tail
        engine.close(checkpoint=False)
        reopened = MultiSeriesEngine.open(store)
        assert set(reopened._absorbed) == set(KEYS)
        assert all(reopened.series_stats(key).latency is None for key in KEYS)
        reopened.ingest_grid(KEYS[:3], STREAMS[INIT + 43 : INIT + 44, :3])
        # a subset round advances the group: every member reports it
        assert all(reopened.series_stats(key).latency.points == 1 for key in KEYS)
        reopened.close(checkpoint=False)

    def test_a_segment_carries_no_ring(self, tmp_path):
        engine = MultiSeriesEngine.open(
            tmp_path / "store", spec=MultiSeriesEngine.for_oneshotstl(PERIOD).spec
        )
        engine.ingest_grid(KEYS, STREAMS[: INIT + 40])
        engine.checkpoint()
        (group,) = engine._groups.values()
        expected = {*group.kernel.to_arrays(), "points", "anomalies"}
        store = engine._store
        stored = 0
        for name in store.list_segments():
            payload = store.read_segment(name)
            stored += len(payload)
            (columns,), _fallback = split_segment(payload, name)
            assert set(columns.arrays) == expected
        assert stored / len(KEYS) < 2500
        engine.close()

    def test_single_key_process_appends_to_the_group_ring(self):
        engine = MultiSeriesEngine.for_oneshotstl(PERIOD, latency_window=8)
        engine.ingest_grid(KEYS, STREAMS[: INIT + 5])
        group, _column = engine._absorbed[KEYS[2]]
        before = group.latencies.to_array()
        assert before.size == 5
        engine.process(KEYS[2], 0.5)
        after = group.latencies.to_array()
        assert after[:-1].tolist() == before.tolist() and after.size == 6
        for _ in range(4):
            engine.process(KEYS[2], 0.5)
        assert len(group.latencies) == 8
        assert group.latencies.to_array()[:4].tolist() == after[2:].tolist()
        # a key that sat the calls out reports them: the ring is the group's
        assert engine.series_stats(KEYS[5]).latency.points == 8


class _RecordingUnpickler(pickle.Unpickler):
    def __init__(self, *args):
        super().__init__(*args)
        self.names = set()

    def find_class(self, module, name):
        self.names.add(f"{module}.{name}")
        return super().find_class(module, name)


class TestStoreFormatV3:
    """What the fallback section of a segment or an ``extract_series``
    payload names when unpickled -- the classes a store written by an
    earlier build (all fallback) needs to find, where it needs to find
    them.  A series that is a column names none."""

    GLOBALS = {
        "repro.streaming.engine._SeriesState",
        "repro.streaming.pipeline.StreamingPipeline",
        "repro.streaming.buffer.RingBuffer",
        "repro.core.oneshotstl.OneShotSTL",
        "repro.core.oneshotstl._IterationState",
        "repro.core.nsigma.NSigma",
        "repro.core.online_system.ContributionWorkspace",
        "repro.solvers.incremental_ldlt.IncrementalBandedLDLT",
        "repro.specs.PipelineSpec",
        "repro.specs.DecomposerSpec",
        "repro.specs.DetectorSpec",
    }

    @staticmethod
    def names(payload):
        unpickler = _RecordingUnpickler(io.BytesIO(payload))
        unpickler.load()
        return {name for name in unpickler.names if name.startswith("repro.")}

    def test_series_state_slots_are_pinned(self):
        assert _SeriesState.__module__ == "repro.streaming.engine"
        assert _SeriesState.__slots__ == (
            "pipeline",
            "warmup",
            "live",
            "points",
            "anomalies",
            "latencies",
        )

    def test_segment_names_the_same_classes_from_either_home(self, tmp_path):
        fallbacks = {}
        for kernel in (True, False):
            engine = MultiSeriesEngine.open(
                tmp_path / f"store-{kernel}",
                spec=MultiSeriesEngine.for_oneshotstl(PERIOD).spec,
            )
            engine.fleet_kernel_enabled = kernel
            engine.checkpoint_cohort_size = len(KEYS) + 1
            engine.ingest_grid(KEYS, STREAMS[: INIT + 4])
            engine.process("warming", 1.0)  # a scalar home beside the columns
            assert set(engine._absorbed) == (set(KEYS) if kernel else set())
            engine.checkpoint()
            (name,) = engine._store.list_segments()
            groups, fallbacks[kernel] = split_segment(
                engine._store.read_segment(name), name
            )
            assert len(groups) == kernel
            # A handoff payload is a segment too, with the same split.
            handoff, extracted = split_segment(
                engine.extract_series([*KEYS[:3], "warming"]), "payload"
            )
            assert len(handoff) == kernel
            assert self.names(extracted) == self.names(fallbacks[kernel])
            engine.close()
        # Columns name no class: only the warming key is pickled beside
        # them.  With every series in a scalar home the fallback *is* the
        # segment an earlier build wrote, live states and all.
        assert pickle.loads(fallbacks[True]).keys() == {"warming"}
        assert self.names(fallbacks[True]) < self.GLOBALS
        assert self.names(fallbacks[False]) == self.GLOBALS
