"""Store format 4: a cohort segment is the kernel columns themselves.

``checkpoint()`` writes, per kernel group with members in a dirty cohort,
one gathered copy of the columns (``_FleetGroup.save_columns``) as a JSON
header plus raw array sections, and the series that are not columns as a
fallback section holding the scalar-state pickle; ``open()`` turns the
sections back into columns (``_FleetGroup.from_columns``) and appends them
to the spec's group.  Pinned here:

* a header that lies is ``CorruptCheckpointError(problem="undecodable")``
  -- never an ``IndexError`` / ``ValueError`` out of NumPy, never an
  allocation sized by the header -- and under ``recovery="quarantine"``
  costs exactly its cohort, nothing half-registered;
* a cohort mixing absorbed keys of two specs with warming,
  never-absorbable and below-minimum keys survives checkpoint -> kill ->
  open float for float, under both kernel bodies; latency, a
  measurement, is not in the segment and does not come back;
* a column group carrying the per-column latency ring the first
  format-4 builds wrote still opens, its ring sections dropped;
* no scalar object is *constructed* for an absorbed series, neither by
  ``checkpoint()`` nor by ``open()``;
* a shard handoff is the same codec: ``extract_series`` returns a
  segment's bytes, ``adopt_series`` reads them the way ``open()`` does
  and appends the columns to the target's group -- float for float,
  nothing constructed, nothing packed, and nothing installed from bytes
  that do not decode whole;
* a store the parent commit (format 3) wrote keeps opening, and its
  clean cohorts keep their pickled segments byte for byte;
* a moment section shorter than the key count is undecodable to
  ``verify()`` and ``open()`` alike;
* a format-4 store whose groups carry the detector's moments
  (``scorer_*``) opens, continues and is rewritten without them, and is
  refused when those moments are not the monitor's -- its count the
  kernel's ``global_index``;
* so does one whose columns still store ``indices``, ``last_trend`` and
  ``solver_sizes`` (copies of derived facts), and one that still stores
  the monitor's count (``monitor_count``, a copy of ``global_index``),
  and each re-encodes to the pinned store's bytes.
"""

import json
import pickle
import shutil
import struct
import zlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.core import OneShotSTL
from repro.core.fleet import FleetKernel
from repro.core.nsigma import NSigma
from repro.durability import (
    CHECKPOINT_FORMAT_VERSION,
    CheckpointVersionError,
    CorruptCheckpointError,
    DirectoryCheckpointStore,
)
from repro.durability.format import decode_wal_record
from repro.durability.segment import (
    SEGMENT_MAGIC,
    ColumnGroup,
    encode_columnar_segment,
    split_segment,
)
from repro.solvers import IncrementalBandedLDLT
from repro.specs import DecomposerSpec, DetectorSpec, EngineSpec, PipelineSpec
from repro.streaming import (
    IngestResult,
    MultiSeriesEngine,
    RingBuffer,
    StreamingPipeline,
)

from tests.conftest import make_seasonal_series, without_latency

PERIOD = 8
INIT = 2 * PERIOD
DATA = Path(__file__).parent / "data"


def outputs(result):
    """Every output field, bit for bit (warming rows are NaN)."""
    return [getattr(result, name).tobytes() for name in IngestResult.FIELDS]


# --------------------------------------------------------------------------
# the byte layout
# --------------------------------------------------------------------------


class TestSegmentLayout:
    def test_round_trip_and_views(self):
        groups = [
            ColumnGroup(
                {"who": "a"},
                {"x": np.arange(6.0).reshape(2, 3), "n": np.arange(3)},
            ),
            ColumnGroup({"who": "b"}, {"empty": np.zeros((0, 4))}),
        ]
        payload = encode_columnar_segment(groups, b"opaque")
        assert payload.startswith(SEGMENT_MAGIC)
        decoded, fallback = split_segment(payload, "test")
        assert fallback == b"opaque"
        assert [group.meta for group in decoded] == [{"who": "a"}, {"who": "b"}]
        assert decoded[0].arrays["x"].tolist() == [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]]
        assert decoded[0].arrays["n"].dtype == np.int64
        assert decoded[1].arrays["empty"].shape == (0, 4)
        # np.frombuffer on the way in: views of the payload, not copies
        assert not decoded[0].arrays["x"].flags.writeable

    def test_anything_else_is_all_fallback(self):
        pickled = pickle.dumps({"k": 1}, protocol=pickle.HIGHEST_PROTOCOL)
        assert split_segment(pickled, "test") == ([], pickled)
        assert split_segment(b"", "test") == ([], b"")

    def test_only_float_and_integer_arrays_are_sections(self):
        with pytest.raises(TypeError, match="float64 and int64"):
            encode_columnar_segment([ColumnGroup({}, {"flags": np.zeros(3, dtype=bool)})])


def reframe(header: dict, body: bytes) -> bytes:
    encoded = json.dumps(header).encode()
    return SEGMENT_MAGIC + struct.pack("<I", len(encoded)) + encoded + body


def unframe(payload: bytes) -> tuple[dict, bytes]:
    (length,) = struct.unpack_from("<I", payload, 4)
    return json.loads(payload[8 : 8 + length]), payload[8 + length :]


#: ``(name, mutate(header, body) -> (header, body))``: every one leaves a
#: segment whose CRC the manifest is then made to vouch for
def _first(header):
    return header["groups"][0]


def _huge_shape(header, body):
    _first(header)["sections"][0]["shape"] = [10**12, 10**6]
    return header, body


def _unknown_dtype(header, body):
    _first(header)["sections"][0]["dtype"] = "<f4"
    return header, body


def _big_endian_dtype(header, body):
    _first(header)["sections"][1]["dtype"] = ">i8"
    return header, body


def _duplicate_name(header, body):
    sections = _first(header)["sections"]
    sections[1]["name"] = sections[2]["name"]
    return header, body


def _missing_section(header, body):
    # drop ``last_detection_residual`` and its bytes: every length still adds up
    sections = _first(header)["sections"]
    offset = 0
    for index, section in enumerate(sections):
        size = int(np.prod(section["shape"])) * 8
        if section["name"] == "last_detection_residual":
            del sections[index]
            return header, body[:offset] + body[offset + size :]
        offset += size
    raise AssertionError("no last_detection_residual section")


def _renamed_section(header, body):
    _first(header)["sections"][0]["name"] = "seasonal"
    return header, body


def _fewer_keys(header, body):
    meta = _first(header)["meta"]
    meta["keys"].pop()
    meta["positions"].pop()
    return header, body


def _more_iterations(header, body):
    _first(header)["meta"]["kernel"]["iterations"] += 1
    return header, body


def _another_period(header, body):
    # the arrays agree with the header's period ... which is not the spec's
    _first(header)["meta"]["kernel"]["period"] = 4
    _first(header)["meta"]["spec"]["decomposer"]["params"]["period"] = 8
    sections = _first(header)["sections"]
    assert sections[0]["name"] == "seasonal_buffer"
    n, period = sections[0]["shape"]
    sections[0]["shape"] = [2 * n, period // 2]
    return header, body


def _wrong_half_bandwidth(header, body):
    for section in _first(header)["sections"]:
        if section["name"] == "solver_blocks":
            w, _w, iterations, n = section["shape"]
            section["shape"] = [w // 2, 2 * w, iterations, n]
    return header, body


def _float_totals(header, body):
    for section in _first(header)["sections"]:
        if section["name"] == "points":
            section["dtype"] = "<f8"
    return header, body


def _repeated_position(header, body):
    positions = _first(header)["meta"]["positions"]
    positions[-1] = positions[0]
    return header, body


def _position_out_of_range(header, body):
    _first(header)["meta"]["positions"][-1] = 99
    return header, body


def _not_a_spec(header, body):
    _first(header)["meta"]["spec"] = {"decomposer": {"name": "no-such-model"}}
    return header, body


def _fallback_overstated(header, body):
    header["fallback"] += 1
    return header, body


def _trailing_bytes(header, body):
    return header, body + b"\x00"


def _header_of_another_format(header, body):
    header["format"] = 5
    return header, body


LIES = [
    _huge_shape,
    _unknown_dtype,
    _big_endian_dtype,
    _duplicate_name,
    _missing_section,
    _renamed_section,
    _fewer_keys,
    _more_iterations,
    _another_period,
    _wrong_half_bandwidth,
    _float_totals,
    _repeated_position,
    _position_out_of_range,
    _not_a_spec,
    _fallback_overstated,
    _trailing_bytes,
    _header_of_another_format,
]


def fleet(n, length=PERIOD * 8, first_seed=900):
    return np.column_stack(
        [
            make_seasonal_series(length, PERIOD, seed=first_seed + index)["values"]
            for index in range(n)
        ]
    )


@pytest.fixture(scope="module")
def lied_to(tmp_path_factory):
    """A store of 12 absorbed keys + one warming key in cohorts of 5, with
    a WAL tail; ``(path, keys, reference outputs of the next batch)``."""
    path = tmp_path_factory.mktemp("lies") / "store"
    keys = [f"k-{index:02d}" for index in range(12)]
    data = fleet(len(keys))
    spec = MultiSeriesEngine.for_oneshotstl(PERIOD, initialization_length=INIT).spec
    engine = MultiSeriesEngine.open(path, spec=spec)
    engine.checkpoint_cohort_size = 5
    engine.process("warming", 1.0)
    engine.ingest_grid(keys, data[: INIT + 10])
    assert set(engine._absorbed) == set(keys)
    engine.checkpoint()
    engine.ingest_grid(keys, data[INIT + 10 : INIT + 14])
    engine.close(checkpoint=False)
    return path, keys, data


def lie_in_segment(store_path: Path, lie, index: int = 0) -> list:
    """Apply ``lie`` to cohort ``index``'s segment, fix the manifest's CRC
    so only the decoder can notice; returns the cohort's keys."""
    manifest_path = store_path / "MANIFEST.json"
    manifest = json.loads(manifest_path.read_text())
    cohort = manifest["cohorts"][index]
    segment = store_path / "segments" / cohort["segment"]
    payload = reframe(*lie(*unframe(segment.read_bytes())))
    segment.write_bytes(payload)
    cohort["crc"] = zlib.crc32(payload)
    manifest_path.write_text(json.dumps(manifest))
    return cohort["keys"]


class TestAHeaderThatLies:
    @pytest.mark.parametrize("lie", LIES, ids=lambda lie: lie.__name__.strip("_"))
    def test_is_undecodable_and_costs_exactly_its_cohort(self, lied_to, tmp_path, lie):
        source, keys, data = lied_to
        strict, tolerant = tmp_path / "strict", tmp_path / "quarantine"
        for copy in (strict, tolerant):
            shutil.copytree(source, copy)
            cohort_keys = lie_in_segment(copy, lie)
        assert cohort_keys == ["warming", *keys[:4]]

        before = {p: p.read_bytes() for p in strict.rglob("*") if p.is_file()}
        with pytest.raises(CorruptCheckpointError) as error:
            MultiSeriesEngine.open(strict)
        assert error.value.problem == "undecodable"
        assert str(strict) in str(error.value)
        assert {p: p.read_bytes() for p in strict.rglob("*") if p.is_file()} == before

        engine = MultiSeriesEngine.open(tolerant, recovery="quarantine")
        report = engine.last_recovery
        assert set(report.affected_keys) == set(cohort_keys)
        (quarantined,) = report.quarantined_cohorts
        assert "malformed" in quarantined.reason
        # no half-registered cohort: the roster, the column map and the
        # groups know the other two cohorts' keys and nothing else
        survivors = keys[4:]
        assert engine.keys() == survivors
        assert set(engine._absorbed) == set(survivors)
        (group,) = engine._groups.values()
        assert group.keys == survivors and group.kernel.n_series == len(survivors)
        assert DirectoryCheckpointStore(tolerant).verify().ok
        # ... and they continue as if nothing had happened
        reference = MultiSeriesEngine.from_spec(engine.spec)
        reference.fleet_kernel_enabled = False
        reference.ingest_grid(survivors, data[: INIT + 14, 4:])
        block = data[INIT + 14 : INIT + 20, 4:]
        assert outputs(engine.ingest_grid(survivors, block)) == outputs(
            reference.ingest_grid(survivors, block)
        )
        engine.close(checkpoint=False)

    def test_columns_their_group_cannot_take_cost_their_own_cohort(self, lied_to, tmp_path):
        # epsilon is a default the pipeline spec does not state, so the
        # lie is consistent in itself; it is found when the columns meet
        # the group cohort 0 founded -- before anything is appended.
        source, keys, _data = lied_to
        shutil.copytree(source, tmp_path / "store")

        def another_epsilon(header, body):
            _first(header)["meta"]["kernel"]["epsilon"] *= 2
            return header, body

        cohort_keys = lie_in_segment(tmp_path / "store", another_epsilon, index=1)
        with pytest.raises(CorruptCheckpointError, match="cannot join") as error:
            MultiSeriesEngine.open(tmp_path / "store")
        assert error.value.problem == "undecodable"
        engine = MultiSeriesEngine.open(tmp_path / "store", recovery="quarantine")
        assert set(engine.last_recovery.affected_keys) == set(cohort_keys)
        survivors = [key for key in keys if key not in cohort_keys]
        assert engine.keys() == ["warming", *survivors]
        (group,) = engine._groups.values()
        assert group.keys == survivors == list(engine._absorbed)
        engine.close(checkpoint=False)

    @pytest.mark.parametrize("section", ["monitor_mean", "monitor_m2"])
    def test_a_short_moment_section_is_undecodable_alike(self, lied_to, tmp_path, section):
        # consistent framing, manifest CRC and all: only the column count
        # the keys imply tells that three moments are not four columns'
        source, keys, _data = lied_to
        store = tmp_path / "store"
        shutil.copytree(source, store)

        def cut(group):
            arrays = dict(group.arrays)
            arrays[section] = arrays[section][:3]
            return ColumnGroup(group.meta, arrays)

        name = rewrite_groups(store, cut, index=0)
        report = DirectoryCheckpointStore(store).verify()
        assert [(f.artifact, f.problem) for f in report.findings if f.fatal] == [
            (name, "undecodable")
        ]
        with pytest.raises(CorruptCheckpointError) as error:
            MultiSeriesEngine.open(store, recovery="strict")
        assert error.value.problem == "undecodable"
        engine = MultiSeriesEngine.open(store, recovery="quarantine")
        assert set(engine.last_recovery.affected_keys) == {"warming", *keys[:4]}
        assert engine.keys() == keys[4:] == list(engine._absorbed)
        engine.close(checkpoint=False)

    def test_a_lying_header_never_sizes_an_allocation(self, lied_to):
        source, _keys, _data = lied_to
        store = DirectoryCheckpointStore(source)
        payload = store.read_segment(store.read_manifest()["cohorts"][0]["segment"])
        header, body = unframe(payload)
        for shape in ([2**62], [2**40, 2**40], [10**30]):
            _first(header)["sections"][0]["shape"] = shape
            with pytest.raises(CorruptCheckpointError, match="bytes of sections"):
                split_segment(reframe(header, body), "test")

    def test_a_parameter_nothing_backs_sizes_neither_a_loop_nor_an_array(self, lied_to):
        # period and iterations are tied to section shapes, hence to bytes
        # on disk; the search window is tied to nothing.
        source, _keys, _data = lied_to
        store = DirectoryCheckpointStore(source)
        name = store.read_manifest()["cohorts"][0]["segment"]
        (group,), _fallback = split_segment(store.read_segment(name), name)
        params = dict(group.meta["kernel"], shift_window=10**15)
        others = ("points", "anomalies")
        arrays = {
            name: array for name, array in group.arrays.items() if name not in others
        }
        kernel = FleetKernel.from_arrays(params, arrays)
        assert sorted(kernel._shifts % PERIOD) == list(range(PERIOD))

    @pytest.mark.parametrize(
        "payload",
        [
            SEGMENT_MAGIC,
            SEGMENT_MAGIC + struct.pack("<I", 10**9) + b"{}",
            SEGMENT_MAGIC + struct.pack("<I", 5) + b"{not}",
            SEGMENT_MAGIC + struct.pack("<I", 2) + b"[]",
            reframe({"format": 4, "groups": {}, "fallback": 0}, b""),
            reframe({"format": 4, "groups": [{"meta": {}}], "fallback": 0}, b""),
            reframe({"format": 4, "groups": [], "fallback": True}, b"x"),
            reframe(
                {
                    "format": 4,
                    "groups": [
                        {"meta": {}, "sections": [{"name": "x", "dtype": "<f8", "shape": [-1]}]}
                    ],
                    "fallback": 0,
                },
                b"",
            ),
            reframe(
                {
                    "format": 4,
                    "groups": [
                        {"meta": {}, "sections": [{"name": 3, "dtype": "<f8", "shape": [0]}]}
                    ],
                    "fallback": 0,
                },
                b"",
            ),
        ],
    )
    def test_a_malformed_frame_is_undecodable(self, payload):
        with pytest.raises(CorruptCheckpointError) as error:
            split_segment(payload, "test")
        assert error.value.problem == "undecodable"

    def test_neither_the_magic_nor_a_pickle_is_undecodable(self, lied_to, tmp_path):
        source, _keys, _data = lied_to
        shutil.copytree(source, tmp_path / "store")

        manifest_path = tmp_path / "store" / "MANIFEST.json"
        manifest = json.loads(manifest_path.read_text())
        cohort = manifest["cohorts"][0]
        payload = b"RCS5 is not a format, and this is not a pickle either"
        (tmp_path / "store" / "segments" / cohort["segment"]).write_bytes(payload)
        cohort["crc"] = zlib.crc32(payload)
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(CorruptCheckpointError) as error:
            MultiSeriesEngine.open(tmp_path / "store")
        assert error.value.problem == "undecodable"
        report = DirectoryCheckpointStore(tmp_path / "store").verify()
        assert [f.problem for f in report.findings if f.fatal] == ["undecodable"]

    def test_a_manifest_from_a_later_format_is_refused_by_name(self, lied_to, tmp_path):
        source, _keys, _data = lied_to
        shutil.copytree(source, tmp_path / "store")
        manifest_path = tmp_path / "store" / "MANIFEST.json"
        manifest = json.loads(manifest_path.read_text())
        assert manifest["format_version"] == CHECKPOINT_FORMAT_VERSION == 4
        manifest["format_version"] = 5
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointVersionError) as error:
            MultiSeriesEngine.open(tmp_path / "store")
        assert error.value.found == 5 and error.value.expected == 4
        assert "5" in str(error.value) and "4" in str(error.value)
        assert not DirectoryCheckpointStore(tmp_path / "store").verify().ok


# --------------------------------------------------------------------------
# a mixed cohort, killed and reopened
# --------------------------------------------------------------------------

SPEC_A = PipelineSpec(
    DecomposerSpec("oneshotstl", {"period": PERIOD, "shift_window": 4}),
    DetectorSpec("nsigma", {"threshold": 4.0}),
)
SPEC_B = PipelineSpec(
    DecomposerSpec("oneshotstl", {"period": 6, "iterations": 3, "shift_window": 0})
)
#: a live series the kernel can never take (not a OneShotSTL)
SPEC_NEVER = PipelineSpec(DecomposerSpec("online_stl", {"period": PERIOD}))
#: a kernel-eligible spec of only two members: a group of two
SPEC_FEW = PipelineSpec(
    DecomposerSpec("oneshotstl", {"period": PERIOD, "lambda1": 3.0, "shift_window": 0})
)

A_KEYS = [f"a-{i}" for i in range(9)]
B_KEYS = [f"b-{i}" for i in range(8)]
FEW_KEYS = ["few-0", "few-1"]
NEVER_KEYS = ["never-0"]
LIVE_KEYS = A_KEYS + B_KEYS + FEW_KEYS + NEVER_KEYS
#: interleaved, so every group's members are scattered over the cohort
ROSTER = [
    key
    for bundle in zip(A_KEYS, B_KEYS + [None], FEW_KEYS + [None] * 7, NEVER_KEYS + [None] * 8)
    for key in bundle
    if key is not None
]


def mixed_spec(latency_window: int) -> EngineSpec:
    overrides = {key: SPEC_B for key in B_KEYS}
    overrides.update({key: SPEC_FEW for key in FEW_KEYS})
    overrides.update({key: SPEC_NEVER for key in NEVER_KEYS})
    return EngineSpec(
        pipeline=SPEC_A,
        overrides=overrides,
        initialization_length=INIT,
        latency_window=latency_window,
    )


def mixed_streams(length=PERIOD * 14):
    rng = np.random.default_rng(77)
    columns = {}
    for index, key in enumerate(ROSTER + ["warming"]):
        period = 6 if key in B_KEYS else PERIOD
        values = make_seasonal_series(length, period, seed=300 + index)["values"]
        values[INIT + 5 + index :: 29] += 3.0  # spikes: flags, shift searches
        columns[key] = values + 0.01 * rng.normal(size=length)
    return columns


STREAMS = mixed_streams()
CUT, KILL, END = INIT + 21, INIT + 40, INIT + 70
#: a key the manifest's JSON codec cannot carry (fleet default spec)
ODD = frozenset({"odd"})
#: a handoff target's own cohort of the fleet default spec
LOCALS = [f"t-{i}" for i in range(8)]
for _index, _key in enumerate([ODD, *LOCALS]):
    STREAMS[_key] = make_seasonal_series(PERIOD * 14, PERIOD, seed=500 + _index)["values"]


def feed(engine, start, stop, keys=ROSTER):
    """Rounds ``[start, stop)`` of ``keys`` in ragged blocks; the outputs."""
    results = []
    row = start
    for size in (3, 7, 1, 12, 5, 64):
        if row >= stop:
            break
        block = np.column_stack([STREAMS[key][row : min(row + size, stop)] for key in keys])
        results.append(outputs(engine.ingest_grid(keys, block)))
        row += block.shape[0]
    return results


@pytest.mark.usefixtures("kernel_body")
class TestMixedCohortRoundTrip:
    def test_checkpoint_kill_open_continue_equals_the_uninterrupted_run(
        self, tmp_path, monkeypatch
    ):
        spec = mixed_spec(latency_window=32)
        uninterrupted = MultiSeriesEngine.from_spec(spec)
        scalar = MultiSeriesEngine.from_spec(spec)
        scalar.fleet_kernel_enabled = False
        durable = MultiSeriesEngine.open(tmp_path / "store", spec=spec)
        engines = (uninterrupted, scalar, durable)
        for engine in engines:
            engine.process("warming", float(STREAMS["warming"][0]))
        # One 64-series cohort holds everything.
        assert len(ROSTER) + 1 <= durable.checkpoint_cohort_size == 64
        head = [feed(engine, 0, CUT) for engine in engines]
        assert head[0] == head[1] == head[2]
        assert set(durable._absorbed) == set(A_KEYS + B_KEYS + FEW_KEYS)
        assert len(durable._groups) == 3
        summary = durable.checkpoint()
        assert (summary.cohorts_written, summary.series_written) == (1, len(ROSTER) + 1)

        # What the segment is: three column groups scattered over the
        # cohort's order, and a fallback of exactly the scalar homes.
        (name,) = durable._store.list_segments()
        groups, fallback = split_segment(durable._store.read_segment(name), name)
        assert sorted(len(group.meta["keys"]) for group in groups) == [2, 8, 9]
        assert list(pickle.loads(fallback)) == [
            key for key in ["warming", *ROSTER] if key in NEVER_KEYS + ["warming"]
        ]
        assert not any(name.startswith("latency") for name in groups[0].arrays)

        middle = [feed(engine, CUT, KILL) for engine in engines]  # the WAL tail
        assert middle[0] == middle[1] == middle[2]
        stats = {key: durable.series_stats(key) for key in durable.keys()}
        durable.close(checkpoint=False)  # the kill: no final checkpoint

        # Reopen under a narrower latency window (the manifest's spec is
        # the session's configuration; an operator edit is the only way).
        manifest_path = tmp_path / "store" / "MANIFEST.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["engine_spec"]["latency_window"] = 8
        manifest_path.write_text(json.dumps(manifest))
        packs = []
        monkeypatch.setattr(
            FleetKernel, "pack", classmethod(lambda cls, models: packs.append(len(models)))
        )
        reopened = MultiSeriesEngine.open(tmp_path / "store")
        assert reopened.last_recovery.clean
        assert reopened.keys() == durable.keys() == ["warming", *ROSTER]
        # What was a column when saved is a column when opened -- the
        # group of two too -- and the scalar homes are scalar homes.
        columns = A_KEYS + B_KEYS + FEW_KEYS
        assert set(reopened._absorbed) == set(columns)
        assert all(reopened._series[key] is None for key in columns)
        assert all(reopened._series[key] is not None for key in NEVER_KEYS)
        assert sorted(len(group.keys) for group in reopened._groups.values()) == [2, 8, 9]
        for key in reopened.keys():
            after = reopened.series_stats(key)
            assert (after.status, after.points, after.anomalies) == (
                stats[key].status,
                stats[key].points,
                stats[key].anomalies,
            )
        # No latency came back (the segment holds none, and replay records
        # none); the groups' rings are the reopened spec's.
        for group in reopened._groups.values():
            assert len(group.latencies) == 0 and group.latencies.capacity == 8
        assert all(reopened.series_stats(key).latency is None for key in columns)

        tail = [feed(engine, KILL, END) for engine in (uninterrupted, scalar, reopened)]
        assert tail[0] == tail[1]
        assert tail[2] == tail[0]
        assert packs == [], "the first batches after recovery packed something"
        for key in ROSTER:
            assert (
                reopened.forecast(key, 2 * PERIOD).tolist()
                == uninterrupted.forecast(key, 2 * PERIOD).tolist()
            )
        reopened.close(checkpoint=False)

    def test_a_key_json_cannot_carry_rides_in_the_fallback(self, tmp_path):
        # frozenset keys hash and pickle but have no manifest encoding:
        # their columns are materialized instead of being lost or mangled.
        keys = [frozenset({index}) for index in range(8)]
        data = fleet(8)
        spec = MultiSeriesEngine.for_oneshotstl(PERIOD, initialization_length=INIT).spec
        engine = MultiSeriesEngine.open(tmp_path / "store", spec=spec)
        twin = MultiSeriesEngine.from_spec(spec)
        for each in (engine, twin):
            each.ingest_grid(keys, data[: INIT + 9])
        assert set(engine._absorbed) == set(keys)
        engine.checkpoint()
        (name,) = engine._store.list_segments()
        groups, fallback = split_segment(engine._store.read_segment(name), name)
        assert groups == [] and set(pickle.loads(fallback)) == set(keys)
        engine.close(checkpoint=False)
        reopened = MultiSeriesEngine.open(tmp_path / "store")
        block = data[INIT + 9 : INIT + 20]
        assert outputs(reopened.ingest_grid(keys, block)) == outputs(
            twin.ingest_grid(keys, block)
        )
        reopened.close(checkpoint=False)


def rewrite_groups(store_path: Path, edit, index: int | None = None) -> str:
    """Re-encode the column groups of cohort ``index`` (of every cohort
    when None) as ``edit(group)`` returns them, and make the manifest
    vouch for the new bytes; returns the last cohort's segment name."""
    manifest_path = store_path / "MANIFEST.json"
    manifest = json.loads(manifest_path.read_text())
    cohorts = manifest["cohorts"] if index is None else [manifest["cohorts"][index]]
    for cohort in cohorts:
        segment = store_path / "segments" / cohort["segment"]
        groups, fallback = split_segment(segment.read_bytes(), segment)
        payload = encode_columnar_segment([edit(group) for group in groups], fallback)
        segment.write_bytes(payload)
        cohort["crc"] = zlib.crc32(payload)
    manifest_path.write_text(json.dumps(manifest))
    return cohort["segment"]


def with_ring_sections(store_path: Path) -> None:
    """Give every column group of the store the two ring sections the
    first format-4 builds wrote after the totals -- ``latency_counts``
    ``(n,)`` and ``latency_values`` ``(n, width)``, ring slots addressed
    ``count % width``."""
    rng = np.random.default_rng(5)

    def ringed(group):
        n = len(group.meta["keys"])
        counts = rng.integers(0, 40, size=n)
        arrays = dict(group.arrays)
        arrays["latency_counts"] = counts
        arrays["latency_values"] = rng.random((n, int(counts.max(initial=0))))
        return ColumnGroup(group.meta, arrays)

    rewrite_groups(store_path, ringed)


@pytest.mark.usefixtures("kernel_body")
class TestASegmentWithRingSections:
    def test_opens_verifies_continues_and_is_rewritten_without_them(self, tmp_path):
        spec = mixed_spec(latency_window=32)
        store = tmp_path / "store"
        durable = MultiSeriesEngine.open(store, spec=spec)
        uninterrupted = MultiSeriesEngine.from_spec(spec)
        for engine in (durable, uninterrupted):
            engine.process("warming", float(STREAMS["warming"][0]))
            feed(engine, 0, CUT)
        durable.checkpoint_cohort_size = 7
        durable.checkpoint()
        feed(durable, CUT, KILL)  # the WAL tail
        feed(uninterrupted, CUT, KILL)
        durable.close(checkpoint=False)
        with_ring_sections(store)
        names = [
            section["name"]
            for cohort in json.loads((store / "MANIFEST.json").read_text())["cohorts"]
            for section in unframe((store / "segments" / cohort["segment"]).read_bytes())[
                0
            ]["groups"][0]["sections"]
        ]
        assert {"latency_counts", "latency_values"} <= set(names)

        assert DirectoryCheckpointStore(store).verify(deep=True).ok
        reopened = MultiSeriesEngine.open(store, recovery="strict")
        assert reopened.last_recovery.clean
        assert set(reopened._absorbed) == set(uninterrupted._absorbed)
        assert all(
            reopened.series_stats(key).latency is None for key in reopened._absorbed
        )
        assert feed(reopened, KILL, END) == feed(uninterrupted, KILL, END)
        reopened.checkpoint()
        store_view = reopened._store
        for name in store_view.list_segments():
            groups, _fallback = split_segment(store_view.read_segment(name), name)
            for group in groups:
                assert not any(section.startswith("latency") for section in group.arrays)
        reopened.close(checkpoint=False)


# --------------------------------------------------------------------------
# census: constructions, not survivors
# --------------------------------------------------------------------------

#: a latency ring is counted too: every scalar home builds one, and so
#: does every kernel group -- and nothing else
SCALAR_CLASSES = (OneShotSTL, StreamingPipeline, IncrementalBandedLDLT, NSigma, RingBuffer)


@pytest.fixture
def constructions(monkeypatch):
    """``{class name: instances constructed}`` while the test runs."""
    counts = dict.fromkeys((cls.__name__ for cls in SCALAR_CLASSES), 0)
    for cls in SCALAR_CLASSES:
        original = cls.__init__

        def counting(self, *args, _original=original, _name=cls.__name__, **kwargs):
            counts[_name] += 1
            _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    return counts


@pytest.mark.usefixtures("kernel_body")
class TestNoScalarObjectIsBuilt:
    def test_checkpoint_and_open_of_an_absorbed_fleet_construct_nothing(
        self, tmp_path, constructions
    ):
        keys = [f"k-{index:02d}" for index in range(20)]
        data = fleet(len(keys))
        spec = MultiSeriesEngine.for_oneshotstl(PERIOD, initialization_length=INIT).spec
        engine = MultiSeriesEngine.open(tmp_path / "store", spec=spec)
        engine.checkpoint_cohort_size = 8
        engine.ingest_grid(keys, data[: INIT + 6])
        assert set(engine._absorbed) == set(keys)
        # the way in builds them (once per series, at initialization) ...
        assert constructions["OneShotSTL"] == len(keys)
        nothing = dict.fromkeys(constructions, 0)
        constructions.update(nothing)

        summary = engine.checkpoint()
        assert summary.series_written == len(keys) and summary.cohorts_written == 3
        assert constructions == nothing, "checkpoint() built scalar objects"

        # ... a WAL tail of grids over the columns, then the kill
        engine.ingest_grid(keys, data[INIT + 6 : INIT + 12])
        engine.ingest_grid(keys[:10], data[INIT + 12 : INIT + 13, :10])
        engine.close(checkpoint=False)
        constructions.update(nothing)

        reopened = MultiSeriesEngine.open(tmp_path / "store")
        # one latency ring per restored column group, and nothing else
        restored_groups = summary.cohorts_written
        assert constructions == {**nothing, "RingBuffer": restored_groups}, (
            "open() built scalar objects"
        )
        assert set(reopened._absorbed) == set(keys)
        constructions.update(nothing)
        reopened.ingest_grid(keys[10:], data[INIT + 12 : INIT + 13, 10:])
        reopened.checkpoint()
        assert constructions == nothing
        reference = MultiSeriesEngine.from_spec(spec)
        reference.ingest_grid(keys, data[: INIT + 13])
        block = data[INIT + 13 : INIT + 30]
        assert outputs(reopened.ingest_grid(keys, block)) == outputs(
            reference.ingest_grid(keys, block)
        )
        reopened.close(checkpoint=False)


# --------------------------------------------------------------------------
# a shard handoff: the checkpoint's codec between two engines
# --------------------------------------------------------------------------

#: absorbed keys of two specs, a warming key and a key JSON cannot carry
HANDED = [*A_KEYS[::2], *B_KEYS[1::2], "warming", ODD]
STAYED = [key for key in [*ROSTER, ODD] if key not in HANDED]


def handoff_engines():
    """``(source, twin, target)``: the source and its never-split twin
    hold the mixed roster plus ``ODD`` up to ``CUT``; the target, whose
    ``latency_window`` is 8 against their 32, runs a cohort of its own."""
    engines = []
    for window, keys in ((32, [*ROSTER, ODD]), (32, [*ROSTER, ODD]), (8, LOCALS)):
        engine = MultiSeriesEngine.from_spec(mixed_spec(window))
        if keys is not LOCALS:
            engine.process("warming", float(STREAMS["warming"][0]))
        feed(engine, 0, CUT, keys)
        engines.append(engine)
    source, _twin, target = engines
    assert set(source._absorbed) == {*A_KEYS, *B_KEYS, *FEW_KEYS, ODD}
    assert set(target._absorbed) == set(LOCALS)
    return engines


def per_key(engine, keys, start, stop):
    """``{key: [field bytes per block]}`` of rounds ``[start, stop)``."""
    got: dict = {key: [] for key in keys}
    row = start
    for size in (3, 7, 1, 12, 64):
        if row >= stop:
            break
        block = np.column_stack([STREAMS[key][row : min(row + size, stop)] for key in keys])
        result = engine.ingest_grid(keys, block)
        for name in IngestResult.FIELDS:
            array = getattr(result, name).reshape(block.shape)
            for column, key in enumerate(keys):
                got[key].append(array[:, column].tobytes())
        row += block.shape[0]
    return got


def fleet_shape(engine):
    """Everything an adoption installs into: roster, columns, groups."""
    groups = [
        (group.spec.to_json(), list(map(repr, group.keys)))
        for group in engine._groups.values()
    ]
    return engine.keys(), sorted(map(repr, engine._absorbed)), sorted(groups)


@pytest.mark.usefixtures("kernel_body")
class TestHandoff:
    def test_extract_adopt_continue_equals_the_uninterrupted_run(self):
        source, twin, target = handoff_engines()
        payload = source.extract_series(HANDED)
        groups, fallback = split_segment(payload, "payload")
        assert sorted(len(group.meta["keys"]) for group in groups) == [4, 5]
        assert list(pickle.loads(fallback)) == ["warming", ODD]
        assert source.keys() == [key for key in ["warming", *ROSTER, ODD] if key in STAYED]

        target.adopt_series(payload)
        # Columns at once: A's join the target's group, B's found one.
        assert set(target._absorbed) == {*LOCALS, *A_KEYS[::2], *B_KEYS[1::2]}
        assert sorted(len(group.keys) for group in target._groups.values()) == [4, 13]
        assert target._series[ODD] is not None and target._series["warming"] is not None

        expected = per_key(twin, [*ROSTER, ODD, "warming"], CUT, END)
        moved = per_key(target, [*LOCALS, *HANDED], CUT, END)
        stayed = per_key(source, STAYED, CUT, END)
        for key in HANDED:
            assert moved[key] == expected[key], key
        for key in STAYED:
            assert stayed[key] == expected[key], key
        # ... and the target's own cohort did not notice.
        alone = MultiSeriesEngine.from_spec(mixed_spec(8))
        feed(alone, 0, CUT, LOCALS)
        reference = per_key(alone, LOCALS, CUT, END)
        assert all(moved[key] == reference[key] for key in LOCALS)
        for key in HANDED:
            assert target.series_stats(key).points == twin.series_stats(key).points
            assert target.series_stats(key).anomalies == twin.series_stats(key).anomalies

    def test_extract_and_adopt_construct_nothing_and_the_next_batch_packs_nothing(
        self, constructions, monkeypatch
    ):
        source, _twin, target = handoff_engines()
        absorbed = [key for key in HANDED if key in source._absorbed and key != ODD]
        nothing = dict.fromkeys(constructions, 0)
        constructions.update(nothing)
        payload = source.extract_series([*absorbed, "warming"])
        assert constructions == nothing, "extract_series() built scalar objects"
        target.adopt_series(payload)
        # one latency ring per adopted column group, and nothing else
        adopted_groups = len(split_segment(payload, "payload")[0])
        assert adopted_groups == 2
        assert constructions == {**nothing, "RingBuffer": adopted_groups}, (
            "adopt_series() built scalar objects"
        )
        constructions.update(nothing)
        packs = []
        monkeypatch.setattr(
            FleetKernel, "pack", classmethod(lambda cls, models: packs.append(len(models)))
        )
        per_key(target, [*LOCALS, *absorbed], CUT, CUT + 12)
        assert packs == [] and constructions == nothing

    @pytest.mark.parametrize("damage", ["flip", "truncate", "cannot-join", "present"])
    def test_bytes_that_do_not_decode_whole_install_nothing(self, damage):
        source, _twin, target = handoff_engines()
        payload = source.extract_series(HANDED)
        header, body = unframe(payload)
        if damage == "flip":
            # every byte of the framing, and the header's first and last
            (length,) = struct.unpack_from("<I", payload, 4)
            cases = [*range(8), 8, 8 + length - 1]
            broken = []
            for offset in cases:
                flipped = bytearray(payload)
                flipped[offset] ^= 0x01
                broken.append(bytes(flipped))
        elif damage == "truncate":
            size = len(payload)
            broken = [payload[:cut] for cut in (0, 3, 8, 40, size // 2, size - 1)]
        elif damage == "cannot-join":
            # consistent in itself; it is the target's group that refuses
            for group in header["groups"]:
                if group["meta"]["spec"] == SPEC_A.to_dict():
                    group["meta"]["kernel"]["epsilon"] *= 2
            broken = [reframe(header, body)]
        else:
            target.process("b-1", 1.0)  # a key the payload also carries
            broken = [payload]
        before = fleet_shape(target)
        for bad in broken:
            if damage == "present":
                with pytest.raises(ValueError, match="already present"):
                    target.adopt_series(bad)
            else:
                with pytest.raises(CorruptCheckpointError):
                    target.adopt_series(bad)
            assert fleet_shape(target) == before
        with pytest.raises(TypeError, match="bytes"):
            target.adopt_series({"a-0": None})


# --------------------------------------------------------------------------
# a store the parent commit wrote
# --------------------------------------------------------------------------


def v3_stream(k, length=120):
    steps = np.arange(length)
    values = (
        1 + 0.5 * k + 0.01 * steps + np.sin(2 * np.pi * steps / PERIOD)
        + 0.05 * (((steps * 7 + k * 3) % 11) - 5) / 5
    )  # fmt: skip
    values[INIT + 9 + 3 * k :: 37] += 3.0
    return values


V3_KEYS = [f"m-{i:02d}" for i in range(10)]
V3_DATA = np.column_stack([v3_stream(k) for k in range(len(V3_KEYS))])
V3_LATE = v3_stream(10)


def v3_reference(with_tail: bool) -> MultiSeriesEngine:
    """What ``tests/data/make_v3_fixture.py`` fed its writer, cell by cell."""
    reference = MultiSeriesEngine.for_oneshotstl(PERIOD, initialization_length=INIT)
    reference.fleet_kernel_enabled = False
    for row in V3_DATA[:40]:
        for key, value in zip(V3_KEYS, row):
            reference.process(key, float(value))
    for value in V3_LATE[:5]:
        reference.process("late", float(value))
    if with_tail:
        touched = [0, 1, 2, 3, 8, 9]
        for row in V3_DATA[40:44]:
            for column in touched:
                reference.process(V3_KEYS[column], float(row[column]))
        cells = [(0, 44), (9, 44), (0, 45)]
        for column, step in cells:
            reference.process(V3_KEYS[column], float(V3_DATA[step, column]))
        reference.process("late", float(V3_LATE[5]))
    return reference


def v3_continue(engine, reference, cursor=None):
    """Both take the same further rounds from ``cursor``, each key's next
    stream position (by default where the v3 fixture's WAL tail left it);
    outputs must be equal."""
    keys = V3_KEYS + ["late"]
    if cursor is None:
        cursor = {key: 40 for key in V3_KEYS}
        cursor.update({V3_KEYS[c]: 44 for c in (1, 2, 3, 8)}, **{"m-00": 46, "m-09": 45})
        cursor["late"] = 6
    cursor = dict(cursor)
    streams = dict(zip(V3_KEYS, V3_DATA.T), late=V3_LATE)
    for size in (1, 5, 20):
        block = np.column_stack(
            [streams[key][cursor[key] : cursor[key] + size] for key in keys]
        )
        for key in keys:
            cursor[key] += size
        assert outputs(engine.ingest_grid(keys, block)) == outputs(
            reference.ingest_grid(keys, block)
        )


@pytest.mark.usefixtures("kernel_body")
class TestAStoreWrittenByFormat3:
    """``tests/data/store_v3_absorbed_fleet``: written by a clone of the
    parent commit (``tests/data/make_v3_fixture.py`` is the script) -- a
    manifest stamped 3, three pickled segments of a ten-key absorbed fleet
    plus one warming key in cohorts of four, and a WAL tail of a ``grid``,
    a ``rows`` and a ``point`` record that leaves cohort 1 untouched."""

    STORE = DATA / "store_v3_absorbed_fleet"

    def test_it_opens_checkpoints_as_a_mixture_and_opens_again(self, tmp_path):
        shutil.copytree(self.STORE, tmp_path / "store")
        store = DirectoryCheckpointStore(tmp_path / "store")
        manifest = store.read_manifest()
        assert manifest["format_version"] == 3
        (part,) = manifest["wal"]
        kinds = [
            decode_wal_record(payload, part)[0] for payload, _end in store.wal_frames(part)
        ]
        assert kinds == ["grid", "rows", "point"]
        old_segments = {name: store.read_segment(name) for name in store.list_segments()}
        assert all(not payload.startswith(SEGMENT_MAGIC) for payload in old_segments.values())
        assert store.verify().ok

        engine = MultiSeriesEngine.open(store)
        assert engine.last_recovery.clean and engine.last_recovery.wal_records_replayed == 3
        engine.checkpoint_cohort_size = 4
        reference = v3_reference(with_tail=True)
        assert engine.keys() == reference.keys()
        for key in engine.keys():
            assert without_latency(engine.series_stats(key)) == without_latency(
                reference.series_stats(key)
            )
        # A v3 store is all fallback; the keys its WAL tail touched went
        # back into columns as the replay advanced them, "late" is warming.
        touched = {V3_KEYS[column] for column in (0, 1, 2, 3, 8, 9)}
        assert set(engine._absorbed) == touched

        # The first checkpoint of this build: dirty cohorts 0 and 2 become
        # format-4 segments (columns, and the warming key in a fallback),
        # clean cohort 1 keeps its file.
        summary = engine.checkpoint()
        assert (summary.cohorts_written, summary.cohorts_total) == (2, 3)
        manifest = store.read_manifest()
        assert manifest["format_version"] == 4
        names = [cohort["segment"] for cohort in manifest["cohorts"]]
        assert names[1] == "seg-00000001-000001.pkl"
        assert store.read_segment(names[1]) == old_segments[names[1]]
        assert names[0].endswith(".seg") and names[2].endswith(".seg")
        groups, fallback = split_segment(store.read_segment(names[0]), names[0])
        assert [group.meta["keys"] for group in groups] == [V3_KEYS[:4]] and not fallback
        groups, fallback = split_segment(store.read_segment(names[2]), names[2])
        assert [group.meta["keys"] for group in groups] == [V3_KEYS[8:]]
        assert list(pickle.loads(fallback)) == ["late"]

        # Full-width batches absorb the fleet ("late" goes live on the
        # way); the next checkpoint writes every cohort as columns.
        v3_continue(engine, reference)
        assert set(engine._absorbed) == {*V3_KEYS, "late"}
        assert engine.checkpoint().cohorts_written == 3
        for cohort in store.read_manifest()["cohorts"]:
            groups, fallback = split_segment(store.read_segment(cohort["segment"]), "test")
            assert len(groups) == 1 and not fallback
            assert groups[0].meta["keys"] == cohort["keys"]
        assert store.verify(deep=True).ok
        engine.close(checkpoint=False)

    def test_a_second_open_reads_the_mixture(self, tmp_path):
        shutil.copytree(self.STORE, tmp_path / "store")
        engine = MultiSeriesEngine.open(tmp_path / "store")
        engine.checkpoint_cohort_size = 4
        engine.close(checkpoint=True)  # cohorts 0 and 2 rewritten, 1 kept
        store = DirectoryCheckpointStore(tmp_path / "store")
        magics = [
            store.read_segment(cohort["segment"]).startswith(SEGMENT_MAGIC)
            for cohort in store.read_manifest()["cohorts"]
        ]
        assert magics == [True, False, True]
        assert store.verify(deep=True).ok
        reopened = MultiSeriesEngine.open(store)
        assert reopened.last_recovery.wal_records_replayed == 0
        reference = v3_reference(with_tail=True)
        assert reopened.keys() == reference.keys()
        v3_continue(reopened, reference)
        reopened.close(checkpoint=False)


# --------------------------------------------------------------------------
# a format-4 store that still carries the detector's moments
# --------------------------------------------------------------------------

#: where ``tests/data/make_v4_fixture.py`` left every stream, WAL tail included
V4_CURSOR = {**dict.fromkeys(V3_KEYS, 43), "late": 6}


def v4_reference(overrides=None) -> MultiSeriesEngine:
    """A scalar twin fed what ``tests/data/make_v4_fixture.py`` fed its
    writer, checkpoint and tail alike."""
    spec = MultiSeriesEngine.for_oneshotstl(PERIOD, initialization_length=INIT).spec
    reference = MultiSeriesEngine.from_spec(replace(spec, overrides=overrides or {}))
    reference.fleet_kernel_enabled = False
    reference.ingest_grid(V3_KEYS, V3_DATA[:43])
    for value in V3_LATE[:6]:
        reference.process("late", float(value))
    return reference


def sections_and_meta(store: DirectoryCheckpointStore) -> list:
    """``(section names, meta names)`` of every column group of the store."""
    found = []
    for name in store.list_segments():
        groups, _fallback = split_segment(store.read_segment(name), name)
        found += [(set(group.arrays), set(group.meta)) for group in groups]
    return found


@pytest.mark.usefixtures("kernel_body")
class TestAStoreWithScorerSections:
    """``tests/data/store_v4_scorer_sections``: written by a format-4 build
    whose column groups carried the detector's moments beside the
    monitor's (``tests/data/make_v4_fixture.py`` is the script) -- ten
    absorbed keys in cohorts of four plus the warming key ``late``, and a
    WAL tail of a three-round grid and a point."""

    STORE = DATA / "store_v4_scorer_sections"

    @pytest.fixture
    def store(self, tmp_path):
        shutil.copytree(self.STORE, tmp_path / "store")
        return tmp_path / "store"

    def test_it_verifies_opens_strictly_and_continues_like_the_twin(self, store):
        found = sections_and_meta(DirectoryCheckpointStore(store))
        assert len(found) == 3
        assert all(
            {"scorer_count", "scorer_mean", "scorer_m2"} <= sections and "scorer" in meta
            for sections, meta in found
        )
        assert DirectoryCheckpointStore(store).verify(deep=True).ok
        engine = MultiSeriesEngine.open(store, recovery="strict")
        assert engine.last_recovery.clean and engine.last_recovery.wal_records_replayed == 2
        assert set(engine._absorbed) == set(V3_KEYS)
        v3_continue(engine, v4_reference(), V4_CURSOR)
        engine.close(checkpoint=False)

    def test_its_next_checkpoint_writes_no_detector_moments(self, store):
        engine = MultiSeriesEngine.open(store)
        engine.checkpoint_cohort_size = 4
        assert engine.checkpoint().cohorts_written == 3
        found = sections_and_meta(engine._store)
        assert len(found) == 3
        for sections, meta in found:
            assert not any(name.startswith("scorer") for name in sections)
            assert "monitor_mean" in sections and "scorer" not in meta
        engine.close(checkpoint=False)
        reopened = MultiSeriesEngine.open(store, recovery="strict")
        v3_continue(reopened, v4_reference(), V4_CURSOR)
        reopened.close(checkpoint=False)

    def test_detector_moments_that_are_not_the_monitors_are_refused_alike(self, store):
        def nudged(group):
            arrays = dict(group.arrays)
            arrays["scorer_mean"] = arrays["scorer_mean"] + np.array([0.0, 2.0**-40, 0.0, 0.0])
            return ColumnGroup(group.meta, arrays)

        name = rewrite_groups(store, nudged, index=1)
        report = DirectoryCheckpointStore(store).verify()
        assert [(f.artifact, f.problem) for f in report.findings if f.fatal] == [
            (name, "undecodable")
        ]
        with pytest.raises(CorruptCheckpointError, match="not the monitor") as error:
            MultiSeriesEngine.open(store)
        assert error.value.problem == "undecodable"

    def test_a_detector_count_that_is_not_the_global_index_is_refused(self, store):
        # The detector's count and the monitor's agree with each other,
        # not with the column's global_index, which is the count.
        def recounted(group):
            arrays = dict(group.arrays)
            for name in ("scorer_count", "monitor_count"):
                arrays[name] = arrays[name] + np.array([0, 0, 1, 0])
            return ColumnGroup(group.meta, arrays)

        name = rewrite_groups(store, recounted, index=1)
        report = DirectoryCheckpointStore(store).verify(deep=True)
        assert [(f.artifact, f.problem) for f in report.findings if f.fatal] == [
            (name, "undecodable")
        ]
        with pytest.raises(CorruptCheckpointError, match="not the monitor") as error:
            MultiSeriesEngine.open(store)
        assert error.value.problem == "undecodable"

    def test_columns_saved_under_another_minimum_std_open_on_the_scalar_path(self, store):
        def floored(group):
            meta = json.loads(json.dumps(group.meta))
            meta["spec"]["detector"]["params"]["minimum_std"] = 0.1
            meta["scorer"]["minimum_std"] = 0.1
            return ColumnGroup(meta, group.arrays)

        rewrite_groups(store, floored, index=0)
        assert DirectoryCheckpointStore(store).verify(deep=True).ok
        engine = MultiSeriesEngine.open(store, recovery="strict")
        floored_keys = V3_KEYS[:4]
        assert set(engine._absorbed) == set(V3_KEYS[4:])
        assert all(engine._series[key].live for key in floored_keys)
        base = engine.spec.pipeline
        override = replace(
            base,
            detector=DetectorSpec("nsigma", dict(base.detector.params, minimum_std=0.1)),
        )
        reference = v4_reference(dict.fromkeys(floored_keys, override))
        v3_continue(engine, reference, V4_CURSOR)
        assert set(engine._absorbed) == {*V3_KEYS[4:], "late"}
        assert set(floored_keys) <= engine._never_absorb
        engine.close(checkpoint=False)


# --------------------------------------------------------------------------
# the pinned store, and the same store as a build wrote it that kept copies
# --------------------------------------------------------------------------

#: what ``tests/data/make_v4_kernel_columns_fixture.py`` feeds its writer
PINNED_KEYS = [f"m-{i:02d}" for i in range(10)]


def pinned_stream(k, length=120):
    steps = np.arange(length)
    values = (
        1 + 0.5 * k + 0.01 * steps + np.sin(2 * np.pi * steps / PERIOD)
        + 0.05 * (((steps * 7 + k * 3) % 11) - 5) / 5
    )
    values[INIT + 9 + 3 * k :: 37] += 3.0
    return values


PINNED_DATA = np.column_stack([pinned_stream(k) for k in range(len(PINNED_KEYS))])
#: the rounds the writer ingested before its checkpoint
PINNED_ROUNDS = 70


def pinned_reference() -> MultiSeriesEngine:
    """A scalar twin of the pinned store's writer: its spec, a 3-iteration
    override on every third key, the same rounds."""
    spec = MultiSeriesEngine.for_oneshotstl(
        PERIOD, initialization_length=INIT, shift_window=2
    ).spec
    override = replace(
        spec.pipeline,
        decomposer=DecomposerSpec(
            "oneshotstl", {**spec.pipeline.decomposer.params, "iterations": 3}
        ),
    )
    spec = replace(spec, overrides=dict.fromkeys(PINNED_KEYS[3::3], override))
    reference = MultiSeriesEngine.from_spec(spec)
    reference.fleet_kernel_enabled = False
    reference.ingest_grid(PINNED_KEYS, PINNED_DATA[:PINNED_ROUNDS])
    return reference


#: the sections a column stored until its record index, solver sizes and
#: last trend were derived from ``global_index``, ``points_processed`` and
#: the trend pairs
COPIED_SECTIONS = ("indices", "last_trend", "solver_sizes")
#: the pinned store: what this build writes
PINNED = DATA / "store_v4_monitor_moments"


class TestSegmentBytesArePinned:
    """A current-format store (``store_v4_monitor_moments``, kernel columns
    only, written by ``tests/data/make_v4_kernel_columns_fixture.py``) recovers
    to columns that re-encode to its committed segment bytes: a build that
    reorders, renames or retypes a section fails here, not in a user's store."""

    def test_every_cohort_re_encodes_to_its_committed_bytes(self, tmp_path):
        store = tmp_path / "store"
        shutil.copytree(PINNED, store)
        engine = MultiSeriesEngine.open(store, recovery="strict")
        assert engine.last_recovery.clean
        assert len(engine._groups) == 2 and set(engine._absorbed) == set(engine.keys())
        assert len(engine._cohorts) == 3
        copied = {*COPIED_SECTIONS, "monitor_count"}
        for cohort in engine._cohorts.values():
            committed = engine._store.read_segment(cohort.segment)
            groups, fallback = split_segment(committed, cohort.segment)
            assert fallback == b"" and len(groups) == 2
            assert not any(copied & set(g.arrays) for g in groups)
            assert engine._encode_cohort(cohort.members) == committed
        engine.close(checkpoint=False)


def assert_continues_as_the_pinned_store(store: Path) -> None:
    """An old layout of the pinned store's script: it opens strictly, each
    cohort re-encodes to the pinned store's bytes, and the engine holds and
    then computes what the script's scalar twin does, float for float."""
    engine = MultiSeriesEngine.open(store, recovery="strict")
    assert engine.last_recovery.clean
    assert set(engine._absorbed) == set(PINNED_KEYS)
    # What the old columns decode to is what this build writes.
    pinned = DirectoryCheckpointStore(PINNED)
    for cohort in engine._cohorts.values():
        assert engine._encode_cohort(cohort.members) == pinned.read_segment(
            cohort.segment
        )
    reference = pinned_reference()
    for key in PINNED_KEYS:
        assert without_latency(engine.series_stats(key)) == without_latency(
            reference.series_stats(key)
        )
    cursor = PINNED_ROUNDS
    for size in (1, 5, 20, 24):
        block = PINNED_DATA[cursor : cursor + size]
        cursor += size
        assert outputs(engine.ingest_grid(PINNED_KEYS, block)) == outputs(
            reference.ingest_grid(PINNED_KEYS, block)
        )
    engine.close(checkpoint=False)


@pytest.mark.usefixtures("kernel_body")
class TestAStoreWithCopiedSections:
    """``tests/data/store_v4_kernel_columns``: the pinned store's script run
    by a build whose columns also stored ``indices`` (the next record
    index), ``last_trend`` and ``solver_sizes``, and the monitor's count.
    Each is checked byte for byte against what it copies and dropped; one
    that disagrees makes its cohort undecodable."""

    STORE = DATA / "store_v4_kernel_columns"

    @pytest.fixture
    def store(self, tmp_path):
        shutil.copytree(self.STORE, tmp_path / "store")
        return tmp_path / "store"

    def test_it_opens_re_encodes_as_the_pinned_store_and_continues_like_the_twin(
        self, store
    ):
        found = sections_and_meta(DirectoryCheckpointStore(store))
        assert len(found) == 6
        assert all(
            {*COPIED_SECTIONS, "monitor_count"} <= sections for sections, _meta in found
        )
        assert DirectoryCheckpointStore(store).verify(deep=True).ok
        assert_continues_as_the_pinned_store(store)

    @pytest.mark.parametrize("name", COPIED_SECTIONS)
    def test_a_copy_that_disagrees_is_undecodable(self, store, name):
        def nudged(group):
            arrays = dict(group.arrays)
            copy = arrays[name].copy()
            copy.reshape(-1)[-1] += 1 if copy.dtype.kind == "i" else 2.0**-40
            arrays[name] = copy
            return ColumnGroup(group.meta, arrays)

        segment = rewrite_groups(store, nudged, index=1)
        report = DirectoryCheckpointStore(store).verify(deep=True)
        assert [(f.artifact, f.problem) for f in report.findings if f.fatal] == [
            (segment, "undecodable")
        ]
        with pytest.raises(CorruptCheckpointError, match="not what it copies") as error:
            MultiSeriesEngine.open(store)
        assert error.value.problem == "undecodable"


@pytest.mark.usefixtures("kernel_body")
class TestAStoreWithAStoredCount:
    """``tests/data/store_v4_derived_columns``: the pinned store's script
    run by a build whose columns stored the residual monitor's count
    (``monitor_count``) beside its mean and m2.  The count is the column's
    ``global_index``: the section is checked byte for byte against it and
    dropped, and one that disagrees makes its cohort undecodable."""

    STORE = DATA / "store_v4_derived_columns"

    @pytest.fixture
    def store(self, tmp_path):
        shutil.copytree(self.STORE, tmp_path / "store")
        return tmp_path / "store"

    def test_it_opens_re_encodes_as_the_pinned_store_and_continues_like_the_twin(
        self, store
    ):
        found = sections_and_meta(DirectoryCheckpointStore(store))
        assert len(found) == 6
        for sections, _meta in found:
            assert "monitor_count" in sections
            assert not set(COPIED_SECTIONS) & sections
        assert DirectoryCheckpointStore(store).verify(deep=True).ok
        assert_continues_as_the_pinned_store(store)

    @pytest.mark.parametrize("damage", ["nudged", "short"])
    def test_a_count_that_is_not_the_global_index_is_undecodable(self, store, damage):
        # consistent framing, manifest CRC and all: a count one off the
        # global index, or three counts for four columns
        def recounted(group):
            arrays = dict(group.arrays)
            count = arrays["monitor_count"]
            if damage == "short":
                arrays["monitor_count"] = count[:-1]
            else:
                arrays["monitor_count"] = count + np.eye(1, count.size, 1, np.int64)[0]
            return ColumnGroup(group.meta, arrays)

        segment = rewrite_groups(store, recounted, index=1)
        report = DirectoryCheckpointStore(store).verify(deep=True)
        assert [(f.artifact, f.problem) for f in report.findings if f.fatal] == [
            (segment, "undecodable")
        ]
        with pytest.raises(CorruptCheckpointError, match="not what it copies") as error:
            MultiSeriesEngine.open(store)
        assert error.value.problem == "undecodable"
