"""``process`` on a OneShotSTL key is a one-column kernel run.

A single observation is a 1 x 1 grid: a live kernel-eligible key is a
column from its first online point, in a group of any width, and
``process`` advances that column alone.  The scalar pipeline is left to
warming keys, keys the kernel can never take, the cell the kernel hands
back and the ``fleet_kernel_enabled = False`` twin -- which is the oracle
every test here compares against, float for float.
"""

import math
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core import OneShotSTL
from repro.core.fleet import FleetKernel
from repro.core.nsigma import NSigma
from repro.durability import DirectoryCheckpointStore
from repro.solvers import IncrementalBandedLDLT
from repro.specs import DecomposerSpec, DetectorSpec, EngineSpec, PipelineSpec
from repro.streaming import MultiSeriesEngine, StreamingPipeline
from repro.streaming.pipeline import StreamRecord

from tests.conftest import (
    SimulatedCrash,
    canonical_bytes,
    make_seasonal_series,
    without_latency,
)

pytestmark = pytest.mark.usefixtures("kernel_body")

PERIOD = 24
INIT = 4 * PERIOD
GROUP = [f"g-{index:02d}" for index in range(24)]
ONLINE, LAMBDA, YOUNG, FRESH, SOLO = "online", "lambda", "young", "fresh", "solo"
FLEET = [*GROUP, ONLINE, LAMBDA, YOUNG]
DETECTOR = DetectorSpec("nsigma", {"threshold": 4.0})


def oneshotstl(**params) -> PipelineSpec:
    params = {"period": PERIOD, "shift_window": 3, **params}
    return PipelineSpec(DecomposerSpec("oneshotstl", params), DETECTOR)


#: a 24-wide group, a key the kernel can never take, a key whose lambda
#: puts it in a group of its own, and keys still warming
SPEC = EngineSpec(
    pipeline=oneshotstl(),
    overrides={
        ONLINE: PipelineSpec(DecomposerSpec("online_stl", {"period": PERIOD})),
        LAMBDA: oneshotstl(lambda1=3.0),
    },
    initialization_length=INIT,
)


def stream(index: int, length: int = PERIOD * 40) -> np.ndarray:
    """One key's values: seasonal, with spikes that trip shift searches."""
    values = make_seasonal_series(length, PERIOD, seed=900 + index)["values"]
    values[INIT + 5 + index :: 37] += 3.0
    return values


STREAMS = {key: stream(index) for index, key in enumerate([*FLEET, FRESH, SOLO])}


def warm_snapshot(feeds: dict) -> dict:
    """The scalar state after ``{key: points}`` values of each key."""
    engine = MultiSeriesEngine.from_spec(SPEC)
    engine.fleet_kernel_enabled = False
    for key, points in feeds.items():
        for value in STREAMS[key][:points]:
            engine.process(key, float(value))
    return engine.snapshot()


_WARM: dict = {}


def warm(name: str) -> dict:
    """The fleet (every key live but ``young``) or the one-key engine (its
    key one point short of going live), built once."""
    if name not in _WARM:
        if name == "fleet":
            feeds = {key: INIT + 6 for key in [*GROUP, ONLINE, LAMBDA]}
            feeds[YOUNG] = INIT - 2
        else:
            feeds = {SOLO: INIT - 1}
        _WARM[name] = warm_snapshot(feeds)
    return _WARM[name]


def plain(records) -> list:
    """Records as data that compares floats by their bits (NaN == NaN)."""
    names = StreamRecord._fields
    out = []
    for record in records:
        point = record.record
        if point is not None:
            point = tuple(
                float(getattr(point, name)).hex()
                if isinstance(getattr(point, name), float)
                else getattr(point, name)
                for name in names
            )
        out.append((record.key, str(record.status), point))
    return out


class Pair:
    """A kernel engine and its ``fleet_kernel_enabled = False`` twin, fed
    the same calls."""

    def __init__(self, snapshot: dict):
        self.fast = MultiSeriesEngine.from_spec(SPEC)
        self.twin = MultiSeriesEngine.from_spec(SPEC)
        self.twin.fleet_kernel_enabled = False
        for engine in (self.fast, self.twin):
            engine.restore(snapshot)
        self.cursors = {key: state.points for key, state in snapshot.items()}

    def value(self, key, kind, rng):
        """The next value of ``key``, or a value of another ``kind``."""
        position = self.cursors.get(key, 0)
        self.cursors[key] = position + 1
        if kind == "finite":
            return float(STREAMS[key][position % STREAMS[key].size])
        if kind == "nan":
            return math.nan
        if kind == "inf":
            return (math.inf, -math.inf)[rng.integers(2)]
        if kind == "huge":
            return (1e308, -1e308)[rng.integers(2)]
        return ("not a number", None)[rng.integers(2)]

    def call(self, method: str, *arguments):
        """Both engines' ``(outputs, error)``: the error is ``(type,
        message)`` and the outputs are None when the call raised.

        They must agree, except when a solver gives out (an error that is
        not one of :data:`REJECTIONS`) in a batch over several kernel
        groups: which group's series gives out first is not pinned there.
        Returns the twin's error, or None.
        """
        answers = []
        for engine in (self.fast, self.twin):
            try:
                output = getattr(engine, method)(*arguments)
            except (ValueError, TypeError) as error:
                answers.append((None, (type(error), str(error))))
                continue
            if method == "process":
                output = [output]
            elif method == "ingest_grid":
                output = output.records()
            answers.append((plain(output), None))
        error = answers[1][1]
        if broke_down(error) and method != "process":
            assert broke_down(answers[0][1]), method
        else:
            assert answers[0] == answers[1], method
        return error

    def assert_same_state(self, snapshot: bool = True) -> None:
        fast, twin = self.fast, self.twin
        assert fast.keys() == twin.keys()
        for key in twin.keys():
            stats = without_latency(twin.series_stats(key))
            assert without_latency(fast.series_stats(key)) == stats, key
            if stats.status == "live":
                expected = twin.forecast(key, PERIOD + 3).tobytes()
                assert fast.forecast(key, PERIOD + 3).tobytes() == expected, key
        if snapshot:
            # key by key: the two snapshots share spec objects differently
            states = fast.snapshot()
            for key, state in twin.snapshot().items():
                assert canonical_bytes(states[key]) == canonical_bytes(state), key


#: an error a value itself earns (the pipeline's rejection or ``float``'s);
#: anything else is a solver giving out, after which the scalar twin's
#: half-advanced model is its own business
REJECTIONS = (
    "non-finite",
    "warming up",
    "must not contain",  # a warm-up window a huge value poisoned
    "could not convert",
    "real number",
)


def broke_down(error) -> bool:
    """Whether ``error`` (``(type, message)`` or None) is a solver giving out."""
    return error is not None and not any(text in error[1] for text in REJECTIONS)


KINDS = st.sampled_from(["finite"] * 8 + ["nan", "inf", "huge", "junk"])
STEPS = st.one_of(
    st.tuples(st.just("process"), st.sampled_from([*FLEET, FRESH]), KINDS),
    st.tuples(st.just("process"), st.sampled_from(GROUP), st.just("finite")),
    st.tuples(st.just("solo"), KINDS),
    st.tuples(st.just("subset"), st.integers(0, 3), st.integers(1, 3), st.booleans()),
    st.tuples(
        st.just("rows"),
        st.lists(
            st.tuples(st.sampled_from([*FLEET, FRESH]), KINDS), min_size=1, max_size=8
        ),
    ),
)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
class TestProcessIsAOneColumnRun:
    """Interleaved ``process`` calls, subsets, rows and an overflowing
    round against the scalar twin, compared after every step."""

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        steps=st.lists(STEPS, min_size=1, max_size=14),
        overflow=st.booleans(),
        seed=st.integers(0, 2**31 - 1),
    )
    # a warm-up window that will not initialize, left of a kernel cell
    @example(
        steps=[("rows", [(YOUNG, "huge"), ("g-00", "finite")])], overflow=False, seed=0
    )
    def test_every_step_equals_the_scalar_twin(self, steps, overflow, seed):
        rng = np.random.default_rng(seed)
        fleet, solo = Pair(warm("fleet")), Pair(warm("one key"))
        # One clean round over everything absorbable: the group (and the
        # lambda key, a group of its own) are columns from here on.
        first = [fleet.value(key, "finite", rng) for key in FLEET]
        assert fleet.call("ingest_grid", FLEET, np.array([first])) is None
        assert fleet.fast._absorbed[LAMBDA][0].keys == [LAMBDA]
        if overflow:
            steps = [*steps, ("overflow",)]
        for step in steps:
            pair = solo if step[0] == "solo" else fleet
            if step[0] == "process":
                key, kind = step[1], step[2]
                error = pair.call("process", key, pair.value(key, kind, rng))
            elif step[0] == "solo":
                error = pair.call("process", SOLO, pair.value(SOLO, step[1], rng))
            elif step[0] == "subset":
                _, quarter, rounds, gap = step
                keys = GROUP[6 * quarter : 6 * quarter + 6]
                grid = np.array(
                    [
                        [pair.value(key, "finite", rng) for key in keys]
                        for _ in range(rounds)
                    ]
                )
                if gap:
                    grid[rng.integers(rounds), rng.integers(len(keys))] = np.nan
                error = pair.call("ingest_grid", keys, grid)
            elif step[0] == "rows":
                rows = [(key, pair.value(key, kind, rng)) for key, kind in step[1]]
                error = pair.call("ingest", rows)
            else:
                # As TestNonFiniteSolveReplay: two cells near the float64
                # ceiling overflow the kernel's screen.
                row = [pair.value(key, "finite", rng) for key in GROUP]
                row[1] = row[2] = (1e308, -1e308)[rng.integers(2)]
                error = pair.call("ingest_grid", GROUP, np.array([row]))
            if broke_down(error):
                # the scalar twin's model is half advanced: nothing after
                # this step is comparable (a process call's counts are)
                if step[0] in ("process", "solo"):
                    pair.assert_same_state(snapshot=False)
                return
            pair.assert_same_state()
        # Nothing the kernel holds left it; nothing it cannot hold joined.
        assert {*GROUP, LAMBDA} <= set(fleet.fast._absorbed)
        assert ONLINE not in fleet.fast._absorbed and FRESH not in fleet.fast._absorbed


# --------------------------------------------------------------------------
# census: constructions, not survivors
# --------------------------------------------------------------------------


@pytest.fixture
def constructions(monkeypatch):
    """``{name: count}`` of scalar objects built and ``FleetKernel.pack``
    calls made from now on."""
    counts = {}
    for cls in (OneShotSTL, IncrementalBandedLDLT, StreamingPipeline, NSigma):
        counts[cls.__name__] = 0

        def counting(self, *args, _original=cls.__init__, _name=cls.__name__, **kwargs):
            counts[_name] += 1
            _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    counts["pack"] = 0
    pack = FleetKernel.pack.__func__

    def counting_pack(cls, models):
        counts["pack"] += 1
        return pack(cls, models)

    monkeypatch.setattr(FleetKernel, "pack", classmethod(counting_pack))
    return counts


class TestProcessBuildsNothing:
    def test_a_thousand_process_calls_on_absorbed_keys(self, request):
        keys = GROUP[:8]
        spec = MultiSeriesEngine.for_oneshotstl(PERIOD, initialization_length=INIT).spec
        fast = MultiSeriesEngine.from_spec(spec)
        twin = MultiSeriesEngine.from_spec(spec)
        twin.fleet_kernel_enabled = False
        block = np.column_stack([STREAMS[key] for key in keys])
        for engine in (fast, twin):
            engine.ingest_grid(keys, block[: INIT + 4])
        assert set(fast._absorbed) == set(keys)
        calls = [
            (key, float(value))
            for row in block[INIT + 4 : INIT + 4 + 125]
            for key, value in zip(keys, row)
        ]
        assert len(calls) == 1000
        expected = plain([twin.process(key, value) for key, value in calls])
        samples = fast.series_stats(keys[0]).latency.points
        counts = request.getfixturevalue("constructions")
        got = plain([fast.process(key, value) for key, value in calls])
        assert counts == dict.fromkeys(counts, 0)
        assert got == expected
        # the latency samples are the group's: one per point of any member
        assert fast.series_stats(keys[0]).latency.points == samples + 1000

    def test_a_key_fed_only_by_process_is_a_column_after_its_warm_up(
        self, constructions
    ):
        fast = MultiSeriesEngine.from_spec(SPEC)
        twin = MultiSeriesEngine.from_spec(SPEC)
        twin.fleet_kernel_enabled = False
        values = STREAMS[SOLO][: INIT + 3 * PERIOD]
        for position, value in enumerate(values.tolist()):
            expected = plain([twin.process(SOLO, value)])
            assert plain([fast.process(SOLO, value)]) == expected
            if position < INIT:
                # warming, then live on the scalar state that initialized
                assert fast._series[SOLO] is not None
            else:
                assert fast._series[SOLO] is None and SOLO in fast._absorbed
        (group,) = fast._groups.values()
        assert group.keys == [SOLO]
        # built once, on the way in: then packed once, and never again
        assert constructions["OneShotSTL"] == 2 and constructions["pack"] == 1
        assert without_latency(fast.series_stats(SOLO)) == without_latency(
            twin.series_stats(SOLO)
        )
        expected = canonical_bytes(twin.snapshot()[SOLO])
        assert canonical_bytes(fast.snapshot()[SOLO]) == expected


# --------------------------------------------------------------------------
# a durable session fed only by process
# --------------------------------------------------------------------------


def _arm(store, point):
    """Make the next occurrence of kill-point ``point`` crash the store."""

    def hook(name):
        if name == point:
            store.fault_hook = None
            raise SimulatedCrash(point)

    store.fault_hook = hook


class TestADurableProcessSession:
    def test_a_kill_after_the_append_reopens_and_continues(self):
        keys = GROUP[:3]
        calls = [
            (key, float(STREAMS[key][position]))
            for position in range(INIT + 2 * PERIOD + 9)
            for key in keys
        ]
        checkpoint_at = (INIT + PERIOD) * len(keys)
        kill_at = len(calls) - 4 * len(keys)
        with tempfile.TemporaryDirectory() as root:
            store = DirectoryCheckpointStore(f"{root}/store")
            engine = MultiSeriesEngine.open(store, spec=SPEC)
            twin = MultiSeriesEngine.from_spec(SPEC)
            for index, (key, value) in enumerate(calls[:kill_at]):
                if index == checkpoint_at:
                    engine.checkpoint()
                expected = plain([twin.process(key, value)])
                assert plain([engine.process(key, value)]) == expected
            assert set(engine._absorbed) == set(keys)
            _arm(store, "wal.append.after")
            with pytest.raises(SimulatedCrash):
                engine.process(*calls[kill_at])
            # The record was durable before the kill: it is replayed.
            twin.process(*calls[kill_at])
            reopened = MultiSeriesEngine.open(DirectoryCheckpointStore(f"{root}/store"))
            assert reopened.last_recovery.clean
            assert set(reopened._absorbed) == set(keys)
            for key, value in calls[kill_at + 1 :]:
                assert plain([reopened.process(key, value)]) == plain(
                    [twin.process(key, value)]
                )
            for key in keys:
                assert without_latency(reopened.series_stats(key)) == without_latency(
                    twin.series_stats(key)
                )
                assert (
                    reopened.forecast(key, PERIOD).tobytes()
                    == twin.forecast(key, PERIOD).tobytes()
                )
            reopened.close(checkpoint=False)


class TestCallCount:
    """What a warmed clean ``process`` costs the interpreter, counted.

    The pattern of a mixed-forms cycle: a wide fleet, and a few absorbed
    keys fed one value each in rotation.  ``sys.setprofile`` counts the
    Python and the C calls of one such call on the native body; the bounds
    are what the one-key path takes now, so a change that adds interpreter
    work to it has to say so here.
    """

    #: Python calls / C calls of one warmed clean ``process`` (the
    #: build before the native handle took 36 / 52, the one before the
    #: batch's single screen 25 / 49)
    PYTHON_CALLS = 24
    C_CALLS = 47

    def test_a_warmed_clean_process_stays_within_its_call_counts(self, kernel_body):
        if kernel_body != "native":
            pytest.skip("the counts are the native body's")
        import sys
        from collections import Counter

        keys = [f"m-{index:02d}" for index in range(60)]
        data = np.stack(
            [
                make_seasonal_series(INIT + 60, PERIOD, seed=500 + index)["values"]
                for index in range(len(keys))
            ],
            axis=1,
        )
        engine = MultiSeriesEngine.for_oneshotstl(PERIOD)
        engine.ingest_grid(keys, data[: INIT + 8])
        rotating = keys[:20]
        events = Counter()

        def count(frame, event, argument):
            events[event] += 1

        for round_index in range(INIT + 8, INIT + 12):
            for column, key in enumerate(rotating):
                value = float(data[round_index, column])
                if round_index == INIT + 11 and column == 7:
                    sys.setprofile(count)
                    record = engine.process(key, value)
                    sys.setprofile(None)
                else:
                    record = engine.process(key, value)
                assert record.record is not None and not record.is_anomaly
            engine.ingest_grid(keys[20:], data[round_index : round_index + 1, 20:])
        assert engine._absorbed.keys() == set(keys)
        python_calls = events["call"]
        c_calls = events["c_call"] - 1  # sys.setprofile(None)
        assert python_calls <= self.PYTHON_CALLS, python_calls
        assert c_calls <= self.C_CALLS, c_calls
