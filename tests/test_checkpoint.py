"""Durability tests for the engine's checkpoints and durable sessions.

Two contracts under test:

* a store is portable: its directory alone -- manifest (format version,
  declarative engine spec), segments, WAL -- rebuilds the engine in a
  *fresh* context (nothing shared with the original engine) that
  continues the stream bit-identically to the uninterrupted run, and a
  manifest that is not one this build reads is refused, by name, before
  anything on disk changes;
* the durable session: ``MultiSeriesEngine.open(store, spec=...)`` +
  write-ahead log + incremental ``checkpoint()``.  The recovery oracle
  (``TestDurabilityOracle``) kills the engine at injected crash points
  around WAL appends, segment writes and the manifest swap, and asserts
  that reopening the store recovers a state bit-identical to a fresh
  engine fed exactly the surviving WAL prefix.

This is the interface the sharding router and the periodicity-drift
rebuild are specified against.
"""

import json
import pickle
import shutil
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

from repro import registry
from repro.durability import (
    RECOVERY_POLICIES,
    CheckpointVersionError,
    CorruptCheckpointError,
    DirectoryCheckpointStore,
)
from repro.durability.format import decode_wal_record, encode_wal_record, wal_name
from repro.specs import DecomposerSpec, EngineSpec, PipelineSpec
from repro.streaming import (
    CHECKPOINT_FORMAT_VERSION,
    MultiSeriesEngine,
    SeriesStatus,
)

from tests.conftest import (
    PathLikeWrapper,
    SimulatedCrash,
    canonical_bytes,
    make_seasonal_series,
    without_latency,
)
from tests.test_fleet_kernel import RESULT_FIELDS

PERIOD = 24
INIT = 4 * PERIOD


def make_fleet_data(n_series, length=PERIOD * 8):
    return {
        f"host-{index}": make_seasonal_series(length, PERIOD, seed=300 + index)[
            "values"
        ]
        for index in range(n_series)
    }


def interleaved_batches(data):
    length = len(next(iter(data.values())))
    for position in range(length):
        yield [(key, values[position]) for key, values in data.items()]


def heterogeneous_spec():
    return EngineSpec(
        pipeline=PipelineSpec(
            DecomposerSpec("oneshotstl", {"period": PERIOD, "shift_window": 0})
        ),
        initialization_length=INIT,
        overrides={
            "host-1": PipelineSpec(DecomposerSpec("online_stl", {"period": PERIOD}))
        },
    )


def reopened(engine, path):
    """Checkpoint ``engine`` into a fresh store at ``path``, end the
    session, and rebuild an engine from the directory alone."""
    engine.attach_store(path)
    engine.close()
    return MultiSeriesEngine.open(path)


class TestReopenFromTheStoreAlone:
    def test_fresh_engine_continues_bit_identically(self, tmp_path):
        """Checkpoint mid-stream, reopen in a fresh engine, diff the tails."""
        data = make_fleet_data(3)
        engine = MultiSeriesEngine.from_spec(heterogeneous_spec())
        batches = list(interleaved_batches(data))
        cut = PERIOD * 6
        for batch in batches[:cut]:
            engine.ingest(batch)

        restored_engine = reopened(engine, tmp_path / "store")

        uninterrupted = [engine.ingest(batch) for batch in batches[cut:]]
        restored = [restored_engine.ingest(batch) for batch in batches[cut:]]

        for expected_batch, actual_batch in zip(uninterrupted, restored):
            assert [r.record for r in expected_batch] == [
                r.record for r in actual_batch
            ]
            assert [r.status for r in expected_batch] == [
                r.status for r in actual_batch
            ]

    def test_restored_engine_carries_spec_and_stats(self, tmp_path):
        data = make_fleet_data(2)
        spec = heterogeneous_spec()
        engine = MultiSeriesEngine.from_spec(spec)
        for batch in interleaved_batches(data):
            engine.ingest(batch)

        restored = reopened(engine, tmp_path / "store")
        assert restored.spec == spec
        original_stats = engine.fleet_stats()
        restored_stats = restored.fleet_stats()
        assert restored_stats.points_total == original_stats.points_total
        assert restored_stats.anomalies_total == original_stats.anomalies_total
        assert restored.keys() == engine.keys()
        # The override survived the round trip through plain data.
        assert (
            type(restored._series["host-1"].pipeline.decomposer).__name__
            == "OnlineSTL"
        )

    def test_restored_engine_accepts_new_keys(self, tmp_path):
        """The manifest's spec must keep lazily creating series."""
        data = make_fleet_data(1, length=PERIOD * 6)
        engine = MultiSeriesEngine.from_spec(heterogeneous_spec())
        for batch in interleaved_batches(data):
            engine.ingest(batch)

        restored = reopened(engine, tmp_path / "store")
        values = make_seasonal_series(PERIOD * 6, PERIOD, seed=41)["values"]
        statuses = [
            restored.process("brand-new", float(value)).status for value in values
        ]
        assert statuses[:INIT] == [SeriesStatus.WARMING] * INIT
        assert statuses[-1] == SeriesStatus.LIVE

    def test_warming_series_survive_the_round_trip(self, tmp_path):
        engine = MultiSeriesEngine.for_oneshotstl(PERIOD, shift_window=0)
        values = make_seasonal_series(PERIOD * 6, PERIOD, seed=42)["values"]
        half_window = INIT // 2
        for value in values[:half_window]:
            engine.process("m", float(value))

        restored = reopened(engine, tmp_path / "store")
        assert restored.series_stats("m").status == SeriesStatus.WARMING
        statuses = [
            restored.process("m", float(value)).status
            for value in values[half_window:]
        ]
        assert statuses[INIT - half_window - 1] == SeriesStatus.WARMING
        assert statuses[-1] == SeriesStatus.LIVE

    def test_a_closed_store_is_isolated_from_later_ingest(self, tmp_path):
        engine = MultiSeriesEngine.for_oneshotstl(PERIOD, shift_window=0)
        values = make_seasonal_series(PERIOD * 6, PERIOD, seed=43)["values"]
        for value in values:
            engine.process("m", float(value))
        engine.attach_store(tmp_path / "store")
        engine.close()
        points_at_close = engine.series_stats("m").points
        engine.process("m", 1.0)  # detached: not journaled

        restored = MultiSeriesEngine.open(tmp_path / "store")
        assert restored.series_stats("m").points == points_at_close

    def test_attach_store_and_open_accept_pathlike(self, tmp_path):
        engine = MultiSeriesEngine.for_oneshotstl(PERIOD, shift_window=0)
        values = make_seasonal_series(PERIOD * 5, PERIOD, seed=51)["values"]
        for value in values:
            engine.process("m", float(value))
        restored = reopened(engine, PathLikeWrapper(tmp_path / "store"))
        assert restored.series_stats("m").points == len(values)


def closed_store(path) -> Path:
    """A store holding one checkpointed series (the manifest at ``path``)."""
    engine = MultiSeriesEngine.for_oneshotstl(PERIOD, shift_window=0)
    values = make_seasonal_series(PERIOD * 5, PERIOD, seed=44)["values"]
    for value in values:
        engine.process("m", float(value))
    reopened(engine, path).close(checkpoint=False)
    return Path(path)


def edit_manifest(path, edit) -> None:
    manifest_path = Path(path) / "MANIFEST.json"
    manifest = json.loads(manifest_path.read_text())
    edit(manifest)
    manifest_path.write_text(json.dumps(manifest))


def tree_bytes(root) -> dict:
    return {
        str(file.relative_to(root)): file.read_bytes()
        for file in sorted(Path(root).rglob("*"))
        if file.is_file()
    }


class TestCheckpointValidation:
    def test_format_version_mismatch_rejected(self, tmp_path):
        path = closed_store(tmp_path / "store")
        newer = CHECKPOINT_FORMAT_VERSION + 1
        edit_manifest(path, lambda manifest: manifest.update(format_version=newer))
        with pytest.raises(ValueError, match="format_version"):
            MultiSeriesEngine.open(path)

    def test_manifest_without_version_rejected(self, tmp_path):
        path = closed_store(tmp_path / "store")
        edit_manifest(path, lambda manifest: manifest.pop("format_version"))
        with pytest.raises(CorruptCheckpointError, match="format_version"):
            MultiSeriesEngine.open(path)

    def test_malformed_series_section_rejected(self, tmp_path):
        path = closed_store(tmp_path / "store")
        manifest = json.loads((path / "MANIFEST.json").read_text())
        (cohort,) = manifest["cohorts"]
        payload = pickle.dumps({"m": "not-a-series-state"})
        (path / "segments" / cohort["segment"]).write_bytes(payload)
        crc = zlib.crc32(payload)
        edit_manifest(path, lambda manifest: manifest["cohorts"][0].update(crc=crc))
        with pytest.raises(CorruptCheckpointError, match="malformed") as error:
            MultiSeriesEngine.open(path)
        assert error.value.problem == "undecodable"


class TestFormatsThisBuildDoesNotRead:
    @pytest.mark.parametrize("version", [1, 2, CHECKPOINT_FORMAT_VERSION + 7])
    def test_a_store_stamped_another_version_is_refused_by_name(
        self, tmp_path, version
    ):
        path = closed_store(tmp_path / "store")
        edit_manifest(path, lambda manifest: manifest.update(format_version=version))
        before = tree_bytes(path)
        report = DirectoryCheckpointStore(path).verify()
        assert [(f.artifact, f.problem) for f in report.findings] == [
            ("manifest", "invalid")
        ]
        with pytest.raises(CheckpointVersionError) as error:
            MultiSeriesEngine.open(path)
        assert (error.value.found, error.value.expected) == (
            version,
            CHECKPOINT_FORMAT_VERSION,
        )
        message = str(error.value)
        assert str(path) in message and str(version) in message
        assert str(CHECKPOINT_FORMAT_VERSION) in message
        assert tree_bytes(path) == before

    def test_an_unreadable_manifest_names_the_file(self, tmp_path):
        path = closed_store(tmp_path / "store")
        (path / "MANIFEST.json").write_bytes(b"certainly not JSON")
        with pytest.raises(CorruptCheckpointError) as error:
            MultiSeriesEngine.open(path)
        assert str(path / "MANIFEST.json") in str(error.value)


def uniform_spec():
    """One spec for every series, so the fleet kernel engages."""
    return EngineSpec(
        pipeline=PipelineSpec(DecomposerSpec("oneshotstl", {"period": PERIOD})),
        initialization_length=INIT,
    )


def _arm(store, point):
    """Make the next occurrence of kill-point ``point`` crash the store."""

    def hook(name):
        if name == point:
            store.fault_hook = None
            raise SimulatedCrash(point)

    store.fault_hook = hook


def _assert_continues_identically(recovered, oracle, batches):
    """Feed both engines the same tail and require bit-identical outputs."""
    assert recovered.fleet_stats().points_total == oracle.fleet_stats().points_total
    for batch in batches:
        expected = oracle.ingest(batch)
        actual = recovered.ingest(batch)
        assert [r.record for r in actual] == [r.record for r in expected]
        assert [r.status for r in actual] == [r.status for r in expected]


class TestDurableSession:
    def test_open_empty_store_requires_spec(self, tmp_path):
        with pytest.raises(ValueError, match="spec"):
            MultiSeriesEngine.open(tmp_path / "store")

    def test_crash_before_first_checkpoint_recovers_from_wal_alone(
        self, tmp_path
    ):
        """The WAL covers everything since open(): no checkpoint() needed."""
        data = make_fleet_data(10)
        batches = list(interleaved_batches(data))
        engine = MultiSeriesEngine.open(tmp_path / "store", spec=uniform_spec())
        cut = PERIOD * 6
        for batch in batches[:cut]:
            engine.ingest(batch)
        # Simulated crash: the engine is abandoned without close().
        recovered = MultiSeriesEngine.open(tmp_path / "store")
        oracle = MultiSeriesEngine.from_spec(uniform_spec())
        for batch in batches[:cut]:
            oracle.ingest(batch)
        _assert_continues_identically(recovered, oracle, batches[cut:])

    def test_checkpoint_plus_wal_tail_recovers_bit_identically(self, tmp_path):
        data = make_fleet_data(10)
        batches = list(interleaved_batches(data))
        engine = MultiSeriesEngine.open(tmp_path / "store", spec=uniform_spec())
        checkpoint_at, crash_at = PERIOD * 5, PERIOD * 6
        for batch in batches[:checkpoint_at]:
            engine.ingest(batch)
        engine.checkpoint()
        for batch in batches[checkpoint_at:crash_at]:
            engine.ingest(batch)

        recovered = MultiSeriesEngine.open(tmp_path / "store")
        oracle = MultiSeriesEngine.from_spec(uniform_spec())
        for batch in batches[:crash_at]:
            oracle.ingest(batch)
        _assert_continues_identically(recovered, oracle, batches[crash_at:])

    def test_columnar_grid_ingest_recovers_bit_identically(self, tmp_path):
        """Dict-grid batches are WAL-logged in columnar form and replayed."""
        data = make_fleet_data(10)
        engine = MultiSeriesEngine.open(tmp_path / "store", spec=uniform_spec())
        cut = PERIOD * 6
        engine.ingest({key: values[:cut] for key, values in data.items()})
        engine.checkpoint()
        engine.ingest(
            {key: values[cut : cut + 12] for key, values in data.items()}
        )
        recovered = MultiSeriesEngine.open(tmp_path / "store")
        oracle = MultiSeriesEngine.from_spec(uniform_spec())
        oracle.ingest({key: values[: cut + 12] for key, values in data.items()})
        tail = list(interleaved_batches(data))[cut + 12 :]
        _assert_continues_identically(recovered, oracle, tail)

    def test_single_key_process_is_journaled(self, tmp_path):
        values = make_seasonal_series(PERIOD * 6, PERIOD, seed=7)["values"]
        engine = MultiSeriesEngine.open(tmp_path / "store", spec=uniform_spec())
        for value in values[: PERIOD * 5]:
            engine.process("m", float(value))
        recovered = MultiSeriesEngine.open(tmp_path / "store")
        oracle = MultiSeriesEngine.from_spec(uniform_spec())
        for value in values[: PERIOD * 5]:
            oracle.process("m", float(value))
        tail = [[("m", float(value))] for value in values[PERIOD * 5 :]]
        _assert_continues_identically(recovered, oracle, tail)

    def test_incremental_checkpoint_writes_only_dirty_cohorts(self, tmp_path):
        data = make_fleet_data(12, length=PERIOD * 6)
        batches = list(interleaved_batches(data))
        engine = MultiSeriesEngine.open(tmp_path / "store", spec=uniform_spec())
        engine.checkpoint_cohort_size = 4  # 12 series -> 3 cohorts
        for batch in batches:
            engine.ingest(batch)
        full = engine.checkpoint()
        assert full.cohorts_total == 3
        assert full.cohorts_written == 3
        assert full.series_written == 12

        idle = engine.checkpoint()
        assert idle.cohorts_written == 0
        assert idle.series_written == 0

        # Touch only the first cohort's series (first four keys seen).
        dirty_keys = list(data)[:4]
        for _ in range(3):
            engine.ingest([(key, 0.5) for key in dirty_keys])
        incremental = engine.checkpoint()
        assert incremental.cohorts_written == 1
        assert incremental.series_written == 4

        # The clean cohorts' segment files survive untouched (their names
        # still carry the full checkpoint's generation).
        store = DirectoryCheckpointStore(tmp_path / "store")
        manifest = store.read_manifest()
        generations = sorted(
            int(cohort["segment"].split("-")[1]) for cohort in manifest["cohorts"]
        )
        assert generations == [full.generation, full.generation,
                               incremental.generation]

        # And recovery from the mixed-generation manifest still continues
        # the stream bit-identically.
        recovered = MultiSeriesEngine.open(store)
        oracle = MultiSeriesEngine.from_spec(uniform_spec())
        for batch in batches:
            oracle.ingest(batch)
        for _ in range(3):
            oracle.ingest([(key, 0.5) for key in dirty_keys])
        _assert_continues_identically(
            recovered, oracle, [[(key, 1.0) for key in data] for _ in range(6)]
        )

    def test_cohort_bookkeeping_across_extract_adopt_reopen_and_reattach(
        self, tmp_path
    ):
        """Cohorts emptied, opened, refilled and re-attached keep the store
        exact: segments match their manifest CRCs, a reopened session is
        clean, and a fresh store gets every cohort at its first checkpoint."""
        data = make_fleet_data(12, length=PERIOD * 7)
        keys = list(data)
        first, new = keys[:10], keys[10:]
        cut = INIT + PERIOD

        def feed(engine, members, start, stop):
            engine.ingest_grid(
                members, np.array([data[key][start:stop] for key in members]).T
            )

        reference = MultiSeriesEngine.from_spec(uniform_spec())
        feed(reference, first, 0, cut)
        feed(reference, new, 0, cut)
        feed(reference, keys, cut, cut + 5)

        path = tmp_path / "store"
        engine = MultiSeriesEngine.open(path, spec=uniform_spec())
        engine.checkpoint_cohort_size = 4  # 10 series -> cohorts of 4, 4, 2
        feed(engine, first, 0, cut)
        assert engine.checkpoint().cohorts_total == 3
        payload = engine.extract_series(keys[8:10])  # empties the newest
        feed(engine, new, 0, cut)
        summary = engine.checkpoint()
        assert (summary.cohorts_total, summary.cohorts_written) == (3, 1)
        engine.adopt_series(payload)
        feed(engine, keys, cut, cut + 5)
        engine.close()

        engine = MultiSeriesEngine.open(path)
        engine.checkpoint_cohort_size = 4  # process-local, not in the store
        assert engine.last_recovery.clean
        store = DirectoryCheckpointStore(path)
        assert store.verify(deep=True).ok
        cohorts = store.read_manifest()["cohorts"]
        assert [cohort["series"] for cohort in cohorts] == [4, 4, 4]
        for cohort in cohorts:
            assert cohort["crc"] == zlib.crc32(store.read_segment(cohort["segment"]))
        assert engine.checkpoint().cohorts_written == 0
        assert set(engine.keys()) == set(keys)
        for key in keys:
            assert without_latency(engine.series_stats(key)) == without_latency(
                reference.series_stats(key)
            )
        want = reference.snapshot()
        tail = np.array([data[key][cut + 5 :] for key in keys]).T
        got, expected = engine.ingest_grid(keys, tail), reference.ingest_grid(keys, tail)
        for field in RESULT_FIELDS:
            assert getattr(got, field).tobytes() == getattr(expected, field).tobytes()
        engine.close()

        engine.attach_store(tmp_path / "again", checkpoint=False)
        summary = engine.checkpoint()
        assert summary.cohorts_written == summary.cohorts_total == 3
        engine.close()
        engine.restore(want)
        engine.attach_store(tmp_path / "restored", checkpoint=False)
        summary = engine.checkpoint()
        assert summary.cohorts_written == summary.cohorts_total == 3
        engine.close()
        for name in ("again", "restored"):
            assert DirectoryCheckpointStore(tmp_path / name).verify(deep=True).ok

    def test_marker_survives_failed_initialization_window(self, tmp_path):
        """A discarded first window must not let a marker alias later.

        When ``initialize()`` fails, the warmup window is discarded but
        the series' ``points`` counter keeps the discarded values, so the
        old index-based marker for kernel-absorbed series could collide
        with a stale points-based marker taken on the scalar path --
        making a dirty cohort look clean and silently truncating its WAL
        coverage.  The uniform points-basis marker cannot alias.
        """
        data = make_fleet_data(10, length=PERIOD * 16)
        batches = list(interleaved_batches(data))
        engine = MultiSeriesEngine.open(tmp_path / "store", spec=uniform_spec())
        engine.checkpoint_cohort_size = 1  # isolate the aliasing series
        engine.fleet_kernel_enabled = False  # scalar path first

        for batch in batches[: INIT - 1]:
            engine.ingest(batch)
        # Make the first key's batch initialization fail once: its window
        # is discarded, points keeps counting, _index restarts later.
        state = engine._series[list(data)[0]]
        original_initialize = state.pipeline.initialize
        state.pipeline.initialize = lambda window: (_ for _ in ()).throw(
            ValueError("injected bad window")
        )
        with pytest.raises(ValueError, match="bad window"):
            engine.ingest(batches[INIT - 1])
        state.pipeline.initialize = original_initialize

        cut = 2 * INIT + PERIOD  # everything live (first key re-warmed)
        for batch in batches[INIT:cut]:
            engine.ingest(batch)
        assert all(s.live for s in engine._series.values())
        engine.checkpoint()  # markers taken on the scalar path

        # Kernel path on: absorption switches the per-series representation,
        # then exactly INIT more rounds land on the old aliasing offset.
        engine.fleet_kernel_enabled = True
        for batch in batches[cut : cut + INIT]:
            engine.ingest(batch)
        summary = engine.checkpoint()
        assert summary.cohorts_written == summary.cohorts_total == 10

    def test_context_manager_checkpoints_on_clean_exit(self, tmp_path):
        data = make_fleet_data(3)
        batches = list(interleaved_batches(data))
        with MultiSeriesEngine.open(tmp_path / "store", spec=uniform_spec()) as engine:
            for batch in batches[: PERIOD * 5]:
                engine.ingest(batch)
        store = DirectoryCheckpointStore(tmp_path / "store")
        manifest = store.read_manifest()
        assert manifest["generation"] == 1
        # Clean close leaves the generation's one WAL file empty:
        # everything lives in segments.
        assert manifest["wal"] == [wal_name(1)]
        assert list(store.wal_frames(wal_name(1))) == []
        recovered = MultiSeriesEngine.open(store)
        assert recovered.fleet_stats().points_total == PERIOD * 5 * 3

    def test_spec_mismatch_on_recovery_is_rejected(self, tmp_path):
        engine = MultiSeriesEngine.open(tmp_path / "store", spec=uniform_spec())
        engine.close()
        other = EngineSpec(
            pipeline=PipelineSpec(
                DecomposerSpec("oneshotstl", {"period": PERIOD + 1})
            ),
            initialization_length=INIT,
        )
        with pytest.raises(ValueError, match="different EngineSpec"):
            MultiSeriesEngine.open(tmp_path / "store", spec=other)
        # The matching spec (or none at all) is fine.
        MultiSeriesEngine.open(tmp_path / "store", spec=uniform_spec()).close()

    def test_attach_store_rejects_populated_store(self, tmp_path):
        MultiSeriesEngine.open(tmp_path / "store", spec=uniform_spec()).close()
        engine = MultiSeriesEngine.from_spec(uniform_spec())
        with pytest.raises(ValueError, match="already holds a session"):
            engine.attach_store(tmp_path / "store")

    def test_attach_store_persists_existing_series(self, tmp_path):
        """attach_store checkpoints pre-existing state by default."""
        data = make_fleet_data(3)
        engine = MultiSeriesEngine.from_spec(uniform_spec())
        for batch in interleaved_batches(data):
            engine.ingest(batch)
        engine.attach_store(tmp_path / "store")
        recovered = MultiSeriesEngine.open(tmp_path / "store")
        assert recovered.keys() == engine.keys()
        assert (
            recovered.fleet_stats().points_total
            == engine.fleet_stats().points_total
        )

    def test_a_store_that_lost_its_manifest_reopens_as_a_new_session(
        self, tmp_path
    ):
        """What a lost manifest named is unreachable, and stays so: its WAL
        parts must not be taken for the new session's own."""
        data = make_fleet_data(3)
        engine = MultiSeriesEngine.open(tmp_path / "store", spec=uniform_spec())
        for batch in list(interleaved_batches(data))[: PERIOD * 5]:
            engine.ingest(batch)
        engine.checkpoint()
        engine.ingest([("host-0", 1.0)])  # a record in the generation-1 WAL
        engine.close(checkpoint=False)
        (tmp_path / "store" / "MANIFEST.json").unlink()

        fresh = MultiSeriesEngine.open(tmp_path / "store", spec=uniform_spec())
        assert fresh.keys() == []
        fresh.checkpoint()  # generation 1 again
        fresh.close(checkpoint=False)
        assert MultiSeriesEngine.open(tmp_path / "store").keys() == []

    def test_reattach_to_fresh_store_writes_full_segments(self, tmp_path):
        """A second store must not inherit segment references from the first.

        Cohorts untouched since the first store's checkpoint are still
        "clean" by marker, but their segments live in the *old* store --
        re-attaching must rewrite everything into the new one.
        """
        data = make_fleet_data(3)
        engine = MultiSeriesEngine.open(tmp_path / "store-a", spec=uniform_spec())
        for batch in interleaved_batches(data):
            engine.ingest(batch)
        engine.close()  # checkpoints into store-a

        engine.attach_store(tmp_path / "store-b")  # nothing ingested since
        engine.close()
        recovered = MultiSeriesEngine.open(tmp_path / "store-b")
        assert (
            recovered.fleet_stats().points_total
            == engine.fleet_stats().points_total
        )

    def test_second_crash_after_torn_append_loses_nothing_replayed(
        self, tmp_path
    ):
        """Recovery must truncate a torn WAL tail before appending.

        Otherwise records appended after the torn bytes sit beyond the
        readable prefix and a *second* crash silently drops them.
        """
        data = make_fleet_data(10)
        batches = list(interleaved_batches(data))
        store = DirectoryCheckpointStore(tmp_path / "store")
        engine = MultiSeriesEngine.open(store, spec=uniform_spec())
        kill_at = PERIOD * 5
        for batch in batches[:kill_at]:
            engine.ingest(batch)
        _arm(store, "wal.append.torn")
        with pytest.raises(SimulatedCrash):
            engine.ingest(batches[kill_at])

        survivor = MultiSeriesEngine.open(
            DirectoryCheckpointStore(tmp_path / "store")
        )
        extra = PERIOD
        for batch in batches[kill_at + 1 : kill_at + 1 + extra]:
            survivor.ingest(batch)
        del survivor  # second crash, again without checkpoint or close

        recovered = MultiSeriesEngine.open(
            DirectoryCheckpointStore(tmp_path / "store")
        )
        assert (
            recovered.fleet_stats().points_total == (kill_at + extra) * 10
        )

    def test_restore_raises_inside_a_durable_session(self, tmp_path):
        engine = MultiSeriesEngine.open(tmp_path / "store", spec=uniform_spec())
        checkpoint = engine.snapshot()
        with pytest.raises(RuntimeError, match="write-ahead log"):
            engine.restore(checkpoint)
        engine.close()
        engine.restore(checkpoint)  # fine once the session is closed

    def test_auto_checkpoint_interval(self, tmp_path):
        data = make_fleet_data(3)
        batches = list(interleaved_batches(data))
        engine = MultiSeriesEngine.open(tmp_path / "store", spec=uniform_spec())
        engine.checkpoint_interval = 5
        for batch in batches[:12]:
            engine.ingest(batch)
        # 12 WAL records with a 5-record interval: checkpointed at least twice,
        # without any explicit checkpoint() call.
        store = DirectoryCheckpointStore(tmp_path / "store")
        assert store.read_manifest()["generation"] >= 2

    def test_replay_does_not_fabricate_latency_stats(self, tmp_path):
        """WAL replay must not feed replay timings into the latency rings."""
        values = make_seasonal_series(PERIOD * 6, PERIOD, seed=9)["values"]
        engine = MultiSeriesEngine.open(tmp_path / "store", spec=uniform_spec())
        for value in values:
            engine.process("m", float(value))
        recovered = MultiSeriesEngine.open(tmp_path / "store")
        assert recovered.series_stats("m").latency is None
        # Real post-recovery ingest records latencies again.
        recovered.process("m", float(values[0]))
        assert recovered.series_stats("m").latency is not None

    def test_open_accepts_pathlike(self, tmp_path):
        engine = MultiSeriesEngine.open(
            PathLikeWrapper(tmp_path / "store"), spec=uniform_spec()
        )
        engine.process("m", 1.0)
        engine.close()
        recovered = MultiSeriesEngine.open(PathLikeWrapper(tmp_path / "store"))
        assert recovered.keys() == ["m"]


class TestDurabilityOracle:
    """Kill-point injection: recovery equals replaying the surviving prefix.

    Each scenario kills the engine at one injected crash window (via the
    store's fault hook), reopens the store in a fresh context, and
    compares against an oracle engine fed exactly the batches that were
    durably recorded before the kill -- then streams both forward and
    requires bit-identical records throughout.
    """

    WAL_POINTS = ["wal.append.before", "wal.append.torn", "wal.append.after"]
    CHECKPOINT_POINTS = [
        "segment.write.before",
        "segment.write.tmp",
        "manifest.swap.before",
        "manifest.swap.tmp",
        "manifest.swap.after",
    ]

    def _scenario(self, tmp_path):
        data = make_fleet_data(10)
        batches = list(interleaved_batches(data))
        store = DirectoryCheckpointStore(tmp_path / "store")
        engine = MultiSeriesEngine.open(store, spec=uniform_spec())
        return store, engine, batches

    @pytest.mark.parametrize("point", WAL_POINTS)
    def test_kill_during_wal_append(self, tmp_path, point):
        store, engine, batches = self._scenario(tmp_path)
        checkpoint_at, kill_at = PERIOD * 5, PERIOD * 6
        for batch in batches[:checkpoint_at]:
            engine.ingest(batch)
        engine.checkpoint()
        for batch in batches[checkpoint_at:kill_at]:
            engine.ingest(batch)
        _arm(store, point)
        with pytest.raises(SimulatedCrash):
            engine.ingest(batches[kill_at])

        # A record is durable once fully appended: the batch survives the
        # crash only if the kill hit *after* the append completed.
        survived = kill_at + (1 if point == "wal.append.after" else 0)
        recovered = MultiSeriesEngine.open(
            DirectoryCheckpointStore(tmp_path / "store")
        )
        oracle = MultiSeriesEngine.from_spec(uniform_spec())
        for batch in batches[:survived]:
            oracle.ingest(batch)
        _assert_continues_identically(recovered, oracle, batches[kill_at + 1 :])

    @pytest.mark.parametrize("point", CHECKPOINT_POINTS)
    def test_kill_during_checkpoint(self, tmp_path, point):
        store, engine, batches = self._scenario(tmp_path)
        first_checkpoint_at, kill_at = PERIOD * 5, PERIOD * 6
        for batch in batches[:first_checkpoint_at]:
            engine.ingest(batch)
        engine.checkpoint()
        for batch in batches[first_checkpoint_at:kill_at]:
            engine.ingest(batch)
        _arm(store, point)
        with pytest.raises(SimulatedCrash):
            engine.checkpoint()

        # Whether the interrupted checkpoint committed (manifest swapped)
        # or not (previous manifest + full WAL), the recovered state must
        # equal everything ingested before the kill.
        recovered = MultiSeriesEngine.open(
            DirectoryCheckpointStore(tmp_path / "store")
        )
        oracle = MultiSeriesEngine.from_spec(uniform_spec())
        for batch in batches[:kill_at]:
            oracle.ingest(batch)
        _assert_continues_identically(recovered, oracle, batches[kill_at:])


class TestEveryWalKindStillReplays:
    """``tests/data/store_v3_four_wal_kinds``: a v3 store written by the
    last build that journaled unconverted rows -- a manifest with no
    cohorts and one WAL part holding a ``grid``, a ``rows``, a ``point``
    and a ``raw_rows`` record (the last one cut short by ``("b", "x")``)."""

    STORE = Path(__file__).parent / "data" / "store_v3_four_wal_kinds"

    def test_a_log_with_all_four_kinds_replays_to_the_scalar_reference(
        self, tmp_path
    ):
        shutil.copytree(self.STORE, tmp_path / "store")
        store = DirectoryCheckpointStore(tmp_path / "store")
        (part,) = store.read_manifest()["wal"]
        kinds = [
            decode_wal_record(payload, part)[0]
            for payload, _end in store.wal_frames(part)
        ]
        assert kinds == ["grid", "rows", "point", "raw_rows"]
        recovered = MultiSeriesEngine.open(store)
        assert recovered.last_recovery.wal_records_replayed == 4

        # What the writer was fed, one ``process`` call per cell.
        steps = np.arange(40)
        data = np.column_stack(
            [
                1 + k + np.sin(2 * np.pi * steps / 4) + 0.01 * ((steps * 7 + k * 3) % 5)
                for k in range(3)
            ]
        )
        keys = ["a", "b", "c"]
        cells = [(key, data[t, j]) for t in range(12) for j, key in enumerate(keys)]
        cells += [(key, data[12, j]) for j, key in enumerate(keys)]
        cells += [("a", data[13, 0]), ("b", data[13, 1])]
        cells += [("c", data[13, 2]), ("a", data[14, 0])]  # then ("b", "x")
        reference = MultiSeriesEngine.from_spec(recovered.spec)
        reference.fleet_kernel_enabled = False
        for key, value in cells:
            reference.process(key, float(value))
        assert recovered.keys() == reference.keys()
        for key in keys:
            assert without_latency(recovered.series_stats(key)) == without_latency(
                reference.series_stats(key)
            )
        tail = [[(key, data[t, j]) for j, key in enumerate(keys)] for t in range(15, 40)]
        _assert_continues_identically(recovered, reference, tail)
        recovered.close(checkpoint=False)

    def test_a_kind_no_build_wrote_fails_recovery_loudly(self, tmp_path):
        shutil.copytree(self.STORE, tmp_path / "store")
        store = DirectoryCheckpointStore(tmp_path / "store")
        store.wal_start(store.read_manifest()["wal"][-1])
        store.wal_append_many([encode_wal_record("columns", ["a"], [1.0])])
        store.close()
        with pytest.raises(CorruptCheckpointError, match="unknown WAL record kind"):
            MultiSeriesEngine.open(tmp_path / "store")


class TestACrashedCheckpointKeepsThePreviousOne:
    """Each file is written tmp-first and renamed: a kill inside the
    segment write or the manifest swap leaves the previous checkpoint --
    and the WAL that covers what came after it -- exactly as it was."""

    @pytest.mark.parametrize("point", ["segment.write.tmp", "manifest.swap.tmp"])
    def test_the_previous_manifest_and_its_wal_survive(self, tmp_path, point):
        values = make_seasonal_series(PERIOD * 6, PERIOD, seed=50)["values"]
        store = DirectoryCheckpointStore(tmp_path / "store")
        engine = MultiSeriesEngine.open(store, spec=uniform_spec())
        for value in values[:-5]:
            engine.process("m", float(value))
        engine.checkpoint()
        committed = store.read_manifest()
        for value in values[-5:]:
            engine.process("m", float(value))
        _arm(store, point)
        with pytest.raises(SimulatedCrash):
            engine.checkpoint()

        fresh = DirectoryCheckpointStore(tmp_path / "store")
        assert fresh.read_manifest() == committed
        assert fresh.verify().ok
        recovered = MultiSeriesEngine.open(fresh)
        assert recovered.series_stats("m").points == len(values)
        assert recovered.last_recovery.wal_records_replayed == 5


class TestManifestIsTypeChecked:
    """What recovery reads as a number is one: ``verify()`` and a strict
    ``open()`` refuse the same manifests, and a manifest both accept
    keeps every series through ``checkpoint()`` and a reopen."""

    @staticmethod
    def _store(path):
        data = make_fleet_data(12, length=PERIOD * 6)
        engine = MultiSeriesEngine.open(path, spec=uniform_spec())
        engine.checkpoint_cohort_size = 4  # 12 series -> 3 cohorts
        for batch in interleaved_batches(data):
            engine.ingest(batch)
        engine.close()
        return data

    @pytest.mark.parametrize(
        "edit",
        [
            lambda m: m["cohorts"][0].update(id="x"),
            lambda m: m["cohorts"][0].update(id=None),
            lambda m: m["cohorts"][0].update(id=True),
            lambda m: m["cohorts"][0].update(id=1.5),
            lambda m: m["cohorts"][0].update(id=m["cohorts"][1]["id"]),
            lambda m: m["cohorts"][1].update(series="4"),
            lambda m: m["cohorts"][1].update(crc=str(m["cohorts"][1]["crc"])),
            lambda m: m.update(generation="x"),
            lambda m: m.update(generation=-1),
            lambda m: m.update(generation=m["generation"] - 1),
            lambda m: m["engine_spec"].update(latency_window=0),
            lambda m: m["engine_spec"].update(initialization_length="x"),
            lambda m: m["engine_spec"].update(initialization_length=1),
            lambda m: m["engine_spec"]["pipeline"]["decomposer"].update(name="nope"),
            lambda m: m["engine_spec"].update(
                overrides={"k": {"decomposer": {"name": "oneshotstl"},
                                 "detector": {"name": "nope"}}}  # fmt: skip
            ),
            lambda m: m.update(engine_spec=[]),
        ],
        ids=[
            "id-str",
            "id-null",
            "id-bool",
            "id-float",
            "id-duplicate",
            "series-str",
            "crc-str",
            "generation-str",
            "generation-negative",
            "generation-behind-its-wal",
            "spec-latency-window-zero",
            "spec-initialization-length-str",
            "spec-initialization-length-one",
            "spec-unknown-decomposer",
            "spec-override-unknown-scorer",
            "spec-not-an-object",
        ],
    )
    def test_verify_and_open_refuse_alike(self, tmp_path, edit):
        self._store(tmp_path / "store")
        edit_manifest(tmp_path / "store", edit)
        before = tree_bytes(tmp_path / "store")
        report = DirectoryCheckpointStore(tmp_path / "store").verify()
        assert [(f.artifact, f.problem) for f in report.findings] == [
            ("manifest", "invalid")
        ]
        for policy in RECOVERY_POLICIES:
            with pytest.raises(CorruptCheckpointError) as error:
                MultiSeriesEngine.open(tmp_path / "store", recovery=policy)
            assert error.value.problem == "invalid"
            assert tree_bytes(tmp_path / "store") == before

    def test_a_plugin_that_only_the_fallback_pickle_imports_opens(
        self, tmp_path, monkeypatch, request
    ):
        # A decomposer registered by a module nothing has imported yet
        # when the store is read: unpickling its series' states does.
        module = "checkpoint_plugin_decomposer"
        (tmp_path / f"{module}.py").write_text(
            "from repro.core import OneShotSTL\n"
            "from repro.registry import register_decomposer\n\n\n"
            f'@register_decomposer("{module}")\n'
            "class PluginSTL(OneShotSTL):\n"
            "    pass\n"
        )
        monkeypatch.syspath_prepend(tmp_path)
        __import__(module)

        def forget():
            """Leave the process as if the plugin were never imported."""
            sys.modules.pop(module, None)
            registry._registry[registry.DECOMPOSER].pop(module, None)

        request.addfinalizer(forget)

        spec = EngineSpec(
            pipeline=PipelineSpec(DecomposerSpec(module, {"period": PERIOD})),
            initialization_length=INIT,
        )
        data = make_fleet_data(6, length=PERIOD * 6)
        store = tmp_path / "store"
        writer = MultiSeriesEngine.open(store, spec=spec)
        reference = MultiSeriesEngine.from_spec(spec)
        batches = list(interleaved_batches(data))
        cut = len(batches) - 5
        for batch in batches[:cut]:
            writer.ingest(batch)
            reference.ingest(batch)
        writer.checkpoint()
        writer.ingest(batches[cut])  # a WAL tail
        reference.ingest(batches[cut])
        writer.close(checkpoint=False)
        assert not writer._absorbed  # every series is in the fallback pickle

        forget()
        assert DirectoryCheckpointStore(store).verify().ok
        forget()
        engine = MultiSeriesEngine.open(store, recovery="strict")
        assert engine.last_recovery.clean
        _assert_continues_identically(engine, reference, batches[cut + 1 :])
        engine.close(checkpoint=False)

    def test_a_stored_track_latency_key_is_ignored(self, tmp_path):
        self._store(tmp_path / "store")
        edit_manifest(
            tmp_path / "store", lambda m: m["engine_spec"].update(track_latency="false")
        )
        assert DirectoryCheckpointStore(tmp_path / "store").verify().ok
        engine = MultiSeriesEngine.open(tmp_path / "store", spec=uniform_spec())
        assert engine.spec == uniform_spec()
        engine.close(checkpoint=False)

    def test_a_valid_store_keeps_every_series_through_a_checkpoint(self, tmp_path):
        data = self._store(tmp_path / "store")
        engine = MultiSeriesEngine.open(tmp_path / "store")
        summary = engine.checkpoint()
        engine.close(checkpoint=False)
        again = MultiSeriesEngine.open(tmp_path / "store")
        assert summary.series_total == len(again.keys()) == len(data)
        assert again.fleet_stats().points_total == len(data) * PERIOD * 6


class TestBatchedStateExport:
    """The cohort-granular kernel export equals the per-member one."""

    def test_extract_many_matches_extract(self):
        data = make_fleet_data(10, length=PERIOD * 6)
        engine = MultiSeriesEngine.from_spec(uniform_spec())
        for batch in interleaved_batches(data):
            engine.ingest(batch)
        assert engine._absorbed, "fleet kernel should have engaged"
        (group,) = engine._groups.values()
        columns = [7, 2, 9, 0]
        for columnar in (group.kernel, group.kernel.solver):
            batched = columnar.extract_many(np.array(columns))
            assert len(batched) == len(columns)
            for column, member in zip(columns, batched):
                assert canonical_bytes(member) == canonical_bytes(
                    columnar.extract(column)
                )
        # ... and the members are the columns: advancing one by hand
        # continues exactly like the engine does.
        key = group.keys[7]
        model = group.kernel.extract_many([7])[0]
        expected = model.update(1.25)
        record = engine.process(key, 1.25).record
        assert (record.trend, record.seasonal) == (expected.trend, expected.seasonal)


class TestSeriesStatusEnum:
    def test_string_valued_for_backward_compat(self):
        assert SeriesStatus.WARMING == "warming"
        assert SeriesStatus.LIVE == "live"
        assert SeriesStatus("warming") is SeriesStatus.WARMING

    def test_engine_reports_enum_statuses(self):
        engine = MultiSeriesEngine.for_oneshotstl(PERIOD, shift_window=0)
        record = engine.process("m", 1.0)
        assert record.status is SeriesStatus.WARMING
        assert isinstance(engine.series_stats("m").status, SeriesStatus)


class TestGroupCommitDurability:
    """ingest_many(): one group commit, crash windows lose only a suffix."""

    def _grid_batches(self, data, chunk):
        length = len(next(iter(data.values())))
        return [
            {key: values[start : start + chunk] for key, values in data.items()}
            for start in range(0, length, chunk)
        ]

    def test_ingest_many_matches_sequential_ingests(self, tmp_path):
        data = make_fleet_data(10)
        grids = self._grid_batches(data, 12)
        many = MultiSeriesEngine.open(tmp_path / "many", spec=uniform_spec())
        results = many.ingest_many(grids)
        assert len(results) == len(grids)
        loop = MultiSeriesEngine.open(tmp_path / "loop", spec=uniform_spec())
        for grid in grids:
            loop.ingest(grid)
        assert (
            many.fleet_stats().points_total == loop.fleet_stats().points_total
        )
        tail = list(interleaved_batches(make_fleet_data(10, length=PERIOD)))
        _assert_continues_identically(many, loop, tail)

    def test_ingest_many_recovers_bit_identically(self, tmp_path):
        data = make_fleet_data(10)
        grids = self._grid_batches(data, 12)
        engine = MultiSeriesEngine.open(tmp_path / "store", spec=uniform_spec())
        engine.ingest_many(grids)
        # Simulated crash: no close(), recovery replays the group commit.
        recovered = MultiSeriesEngine.open(tmp_path / "store")
        oracle = MultiSeriesEngine.from_spec(uniform_spec())
        oracle.ingest_many(grids)
        tail = list(interleaved_batches(make_fleet_data(10, length=PERIOD)))
        _assert_continues_identically(recovered, oracle, tail)

    def test_rejected_batch_does_not_strand_the_rest_of_the_group(self, tmp_path):
        """A mid-group rejection leaves live state equal to reopened state.

        Both batches are journaled before either applies, so the batch
        behind the rejected one must still apply -- exactly as replay
        applies it -- or the live engine sits behind its own WAL.
        """
        data = make_fleet_data(10)
        grids = self._grid_batches(data, 12)
        engine = MultiSeriesEngine.open(tmp_path / "store", spec=uniform_spec())
        engine.ingest_many(grids[:-2])
        keys = list(data)
        before = engine.series_stats(keys[0]).points
        poisoned = np.stack([grids[-2][key] for key in keys], axis=1)
        poisoned[4, 3] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            engine.ingest_many([(keys, poisoned), grids[-1]])
        # Rounds 0-3 and the keys ahead of the bad cell applied, the rest
        # of the rejected batch did not -- and then the whole good batch.
        live = {key: engine.series_stats(key).points for key in keys}
        assert live == {
            key: before + 4 + (position < 3) + 12
            for position, key in enumerate(keys)
        }
        engine.close(checkpoint=False)
        recovered = MultiSeriesEngine.open(tmp_path / "store")
        assert {
            key: recovered.series_stats(key).points for key in keys
        } == live
        tail = list(interleaved_batches(make_fleet_data(10, length=PERIOD)))
        _assert_continues_identically(recovered, engine, tail)

    @pytest.mark.parametrize(
        "point", ["wal.append.before", "wal.append.torn", "wal.append.after"]
    )
    def test_kill_during_group_commit(self, tmp_path, point):
        """Recovery equals an oracle fed exactly the surviving records."""
        data = make_fleet_data(10)
        grids = self._grid_batches(data, 12)
        cut = len(grids) // 2
        store = DirectoryCheckpointStore(tmp_path / "store")
        engine = MultiSeriesEngine.open(store, spec=uniform_spec())
        engine.ingest_many(grids[:cut])
        engine.checkpoint()

        def hook(name):
            if name == point:
                store.fault_hook = None
                raise SimulatedCrash(point)

        store.fault_hook = hook
        with pytest.raises(SimulatedCrash):
            engine.ingest_many(grids[cut:])

        # Count what actually survived into the log (the torn window loses
        # a mid-batch suffix; before loses all; after keeps the batch).
        fresh_store = DirectoryCheckpointStore(tmp_path / "store")
        manifest = fresh_store.read_manifest()
        survived = sum(
            1 for name in manifest["wal"] for _ in fresh_store.wal_frames(name)
        )
        if point == "wal.append.before":
            assert survived == 0
        elif point == "wal.append.after":
            assert survived == len(grids) - cut
        else:
            assert survived < len(grids) - cut
        recovered = MultiSeriesEngine.open(fresh_store)
        oracle = MultiSeriesEngine.from_spec(uniform_spec())
        oracle.ingest_many(grids[:cut])
        if survived:
            oracle.ingest_many(grids[cut : cut + survived])
        tail = list(interleaved_batches(make_fleet_data(10, length=PERIOD)))
        _assert_continues_identically(recovered, oracle, tail)


class TestOneWalFile:
    """Each checkpoint generation journals to exactly one WAL file."""

    def test_a_reopened_session_journals_to_the_same_file(self, tmp_path):
        batches = list(interleaved_batches(make_fleet_data(10)))
        half = len(batches) // 2
        engine = MultiSeriesEngine.open(
            DirectoryCheckpointStore(tmp_path / "store"), spec=uniform_spec()
        )
        for batch in batches[:half]:
            engine.ingest(batch)
        engine.close(checkpoint=False)
        store = DirectoryCheckpointStore(tmp_path / "store")
        engine = MultiSeriesEngine.open(store)
        for batch in batches[half:]:
            engine.ingest(batch)
        assert store.list_wals() == [wal_name(store.read_manifest()["generation"])]
        engine.close(checkpoint=False)
        recovered = MultiSeriesEngine.open(
            DirectoryCheckpointStore(tmp_path / "store")
        )
        oracle = MultiSeriesEngine.from_spec(uniform_spec())
        for batch in batches:
            oracle.ingest(batch)
        tail = list(interleaved_batches(make_fleet_data(10, length=PERIOD)))
        _assert_continues_identically(recovered, oracle, tail)

    def test_checkpoint_prunes_the_previous_wal(self, tmp_path):
        store = DirectoryCheckpointStore(tmp_path / "store")
        engine = MultiSeriesEngine.open(store, spec=uniform_spec())
        for batch in interleaved_batches(make_fleet_data(10)):
            engine.ingest(batch)
        assert store.list_wals() == [wal_name(0)]
        engine.checkpoint()
        # Everything lives in segments now: one fresh (empty) WAL remains.
        assert store.list_wals() == [wal_name(1)]
        recovered = MultiSeriesEngine.open(
            DirectoryCheckpointStore(tmp_path / "store")
        )
        assert (
            recovered.fleet_stats().points_total
            == engine.fleet_stats().points_total
        )
