"""Unit tests of the checkpoint-store layer (no engine involved).

The durability subsystem's crash-safety rests on two store-level
invariants -- atomic blob replacement and complete-prefix WAL reads --
and this module pins them directly: torn WAL tails, interrupted renames,
corrupt manifests, reopen-and-append semantics.  The engine-level
recovery oracle (``tests/test_checkpoint.py``) builds on exactly these
guarantees.
"""

import json
import os
import pickle
import time

import pytest

from tests.conftest import PathLikeWrapper, SimulatedCrash

from repro.durability import (
    CheckpointVersionError,
    CorruptCheckpointError,
    DirectoryCheckpointStore,
    StoreLock,
    StoreLockedError,
    atomic_write_bytes,
)
from repro.durability.format import (
    CHECKPOINT_FORMAT_VERSION,
    build_manifest,
    decode_wal_record,
    encode_wal_record,
    validate_manifest,
    wal_name,
    wal_position,
)
from repro.durability.recovery import check_components
from repro.specs import DecomposerSpec, EngineSpec, PipelineSpec

#: the engine spec of a manifest that validates
SPEC = EngineSpec(
    pipeline=PipelineSpec(DecomposerSpec("oneshotstl", {"period": 4})),
    initialization_length=8,
)


def wal_payloads(store, name) -> list:
    """The complete records of one WAL part, in order."""
    return [payload for payload, _end in store.wal_frames(name)]


class TestAtomicWrite:
    def test_writes_and_replaces(self, tmp_path):
        path = tmp_path / "blob"
        atomic_write_bytes(path, b"one")
        atomic_write_bytes(path, b"two")
        assert path.read_bytes() == b"two"
        assert list(tmp_path.iterdir()) == [path]  # no tmp residue

    def test_crash_before_replace_keeps_old_content(self, tmp_path):
        path = tmp_path / "blob"
        atomic_write_bytes(path, b"old")

        def boom():
            raise SimulatedCrash("pre-replace")

        with pytest.raises(SimulatedCrash):
            atomic_write_bytes(path, b"new", pre_replace_hook=boom)
        assert path.read_bytes() == b"old"


class TestWal:
    def test_append_and_read_round_trip(self, tmp_path):
        store = DirectoryCheckpointStore(tmp_path / "store")
        store.wal_start(wal_name(0))
        records = [b"alpha", b"beta" * 100, b""]
        for record in records:
            store.wal_append(record)
        store.close()
        fresh = DirectoryCheckpointStore(tmp_path / "store")
        assert wal_payloads(fresh, wal_name(0)) == records

    def test_torn_tail_is_dropped(self, tmp_path):
        store = DirectoryCheckpointStore(tmp_path / "store")
        store.wal_start(wal_name(0))
        store.wal_append(b"kept")

        def hook(point):
            if point == "wal.append.torn":
                raise SimulatedCrash(point)

        store.fault_hook = hook
        with pytest.raises(SimulatedCrash):
            store.wal_append(b"lost-in-flight")
        store.close()
        fresh = DirectoryCheckpointStore(tmp_path / "store")
        assert wal_payloads(fresh, wal_name(0)) == [b"kept"]

    def test_flipped_byte_ends_the_prefix(self, tmp_path):
        store = DirectoryCheckpointStore(tmp_path / "store")
        store.wal_start(wal_name(0))
        store.wal_append(b"first")
        store.wal_append(b"second")
        store.close()
        path = tmp_path / "store" / "wal" / wal_name(0)
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF  # corrupt the last payload byte
        path.write_bytes(bytes(data))
        fresh = DirectoryCheckpointStore(tmp_path / "store")
        assert wal_payloads(fresh, wal_name(0)) == [b"first"]

    def test_reopen_appends_after_existing_records(self, tmp_path):
        store = DirectoryCheckpointStore(tmp_path / "store")
        store.wal_start(wal_name(0))
        store.wal_append(b"one")
        store.close()
        again = DirectoryCheckpointStore(tmp_path / "store")
        again.wal_start(wal_name(0))
        again.wal_append(b"two")
        assert wal_payloads(again, wal_name(0)) == [b"one", b"two"]

    def test_wal_start_truncates_torn_tail_before_appending(self, tmp_path):
        store = DirectoryCheckpointStore(tmp_path / "store")
        store.wal_start(wal_name(0))
        store.wal_append(b"kept")

        def hook(point):
            if point == "wal.append.torn":
                raise SimulatedCrash(point)

        store.fault_hook = hook
        with pytest.raises(SimulatedCrash):
            store.wal_append(b"torn-away")
        store.close()

        # Reopen-and-append must land the new record *inside* the readable
        # prefix, not beyond the torn bytes.
        again = DirectoryCheckpointStore(tmp_path / "store")
        again.wal_start(wal_name(0))
        again.wal_append(b"after-recovery")
        assert wal_payloads(again, wal_name(0)) == [b"kept", b"after-recovery"]

    def test_append_after_in_session_failure_recovers_the_tail(self, tmp_path):
        """A failed append must not strand later appends beyond torn bytes.

        If write() dies mid-frame (I/O error) and the *same* store object
        keeps appending -- the caller survived the exception -- the next
        append must truncate the torn bytes first, or every later record
        would sit outside the readable prefix and vanish at recovery.
        """
        store = DirectoryCheckpointStore(tmp_path / "store")
        store.wal_start(wal_name(0))
        store.wal_append(b"kept")

        def hook(point):
            if point == "wal.append.torn":
                store.fault_hook = None
                raise SimulatedCrash(point)

        store.fault_hook = hook
        with pytest.raises(SimulatedCrash):
            store.wal_append(b"lost-in-flight")
        store.wal_append(b"after-the-error")  # same session, same handle
        assert wal_payloads(store, wal_name(0)) == [
            b"kept",
            b"after-the-error",
        ]

    def test_stale_tmp_files_swept_on_open(self, tmp_path):
        store = DirectoryCheckpointStore(tmp_path / "store")

        def hook(point):
            if point == "segment.write.tmp":
                raise SimulatedCrash(point)

        store.fault_hook = hook
        with pytest.raises(SimulatedCrash):
            store.write_segment("seg-x", b"payload")
        leftovers = list((tmp_path / "store" / "segments").glob("*.tmp"))
        assert leftovers, "the crash should have left a tmp file behind"

        DirectoryCheckpointStore(tmp_path / "store")  # reopen sweeps
        assert not list((tmp_path / "store" / "segments").glob("*.tmp"))

    def test_sweep_leaves_unrelated_root_files_alone(self, tmp_path):
        root = tmp_path / "store"
        root.mkdir()
        unrelated = root / "export.tmp"
        unrelated.write_text("someone else's scratch file")
        DirectoryCheckpointStore(root)
        assert unrelated.exists()

    def test_missing_segment_yields_nothing(self, tmp_path):
        store = DirectoryCheckpointStore(tmp_path / "store")
        assert wal_payloads(store, wal_name(7)) == []

    def test_open_segment_cannot_be_deleted(self, tmp_path):
        store = DirectoryCheckpointStore(tmp_path / "store")
        store.wal_start(wal_name(0))
        with pytest.raises(ValueError, match="open WAL"):
            store.wal_delete(wal_name(0))

    def test_append_requires_open_segment(self, tmp_path):
        store = DirectoryCheckpointStore(tmp_path / "store")
        with pytest.raises(RuntimeError, match="wal_start"):
            store.wal_append(b"record")


class TestManifestAndSegments:
    def test_empty_store_has_no_manifest(self, tmp_path):
        assert DirectoryCheckpointStore(tmp_path / "store").read_manifest() is None

    def test_manifest_round_trip(self, tmp_path):
        store = DirectoryCheckpointStore(tmp_path / "store")
        manifest = build_manifest(3, {"fake": "spec"}, [])
        store.write_manifest(manifest)
        assert store.read_manifest() == manifest

    def test_corrupt_manifest_names_the_file(self, tmp_path):
        store = DirectoryCheckpointStore(tmp_path / "store")
        store.manifest_path.write_text("{not json")
        with pytest.raises(CorruptCheckpointError) as error:
            store.read_manifest()
        assert "MANIFEST.json" in str(error.value)
        assert "JSON" in str(error.value)

    def test_manifest_version_mismatch_says_found_and_expected(self, tmp_path):
        manifest = build_manifest(0, {}, [])
        manifest["format_version"] = 99
        with pytest.raises(CheckpointVersionError) as error:
            validate_manifest(manifest, "some/store")
        message = str(error.value)
        assert "some/store" in message
        assert "99" in message
        assert str(CHECKPOINT_FORMAT_VERSION) in message
        assert "format_version" in message

    @staticmethod
    def _two_cohorts():
        cohorts = [
            {"id": 0, "segment": "seg-00000002-000000.seg", "series": 3, "crc": 7},
            {"id": 1, "segment": "seg-00000001-000001.seg", "series": 2},
        ]
        return build_manifest(2, SPEC.to_dict(), cohorts)

    @pytest.mark.parametrize(
        "where, value",
        [
            pytest.param(("cohorts", 0, "id"), "x", id="id-str"),
            pytest.param(("cohorts", 0, "id"), None, id="id-null"),
            pytest.param(("cohorts", 0, "id"), True, id="id-bool"),
            pytest.param(("cohorts", 0, "id"), 1.5, id="id-float"),
            pytest.param(("cohorts", 0, "id"), -1, id="id-negative"),
            pytest.param(("cohorts", 0, "id"), 1, id="id-duplicate"),
            pytest.param(("cohorts", 1, "series"), "2", id="series-str"),
            pytest.param(("cohorts", 1, "series"), 2.0, id="series-float"),
            pytest.param(("cohorts", 0, "crc"), "7", id="crc-str"),
            pytest.param(("cohorts", 0, "crc"), -7, id="crc-negative"),
            pytest.param(("generation",), "x", id="generation-str"),
            pytest.param(("generation",), -2, id="generation-negative"),
            pytest.param(("generation",), False, id="generation-bool"),
            # the WAL entry still names generation 2's file
            pytest.param(("generation",), 1, id="generation-behind-its-wal"),
            pytest.param(("format_version",), "4", id="format-str"),
            pytest.param(("format_version",), True, id="format-bool"),
            # ... and what it builds the engine from builds one
            pytest.param(("engine_spec", "latency_window"), 0, id="spec-window-zero"),
            pytest.param(
                ("engine_spec", "initialization_length"), "x", id="spec-init-str"
            ),
            pytest.param(
                ("engine_spec", "pipeline", "decomposer", "name"),
                "",
                id="spec-empty-decomposer-name",
            ),
            pytest.param(("engine_spec", "pipeline"), None, id="spec-no-pipeline"),
        ],
    )
    def test_what_recovery_reads_as_a_number_is_one(self, where, value):
        manifest = self._two_cohorts()
        validate_manifest(manifest, "store")
        *path, field = where
        target = manifest
        for step in path:
            target = target[step]
        target[field] = value
        with pytest.raises(CorruptCheckpointError) as error:
            validate_manifest(manifest, "store")
        assert error.value.problem == "invalid"
        assert "store" in str(error.value)

    def test_component_names_are_resolved_after_the_segments(self):
        # A plugin registers on import, and the fallback pickle may be
        # what imports it: the manifest alone cannot tell.
        manifest = self._two_cohorts()
        manifest["engine_spec"]["pipeline"]["decomposer"]["name"] = "a-plugin"
        validate_manifest(manifest, "store")
        with pytest.raises(CorruptCheckpointError, match="a-plugin") as error:
            check_components(manifest, "store")
        assert error.value.problem == "invalid"

    def test_manifest_missing_keys_lists_them(self, tmp_path):
        with pytest.raises(CorruptCheckpointError, match="cohorts"):
            validate_manifest(
                {"format_version": CHECKPOINT_FORMAT_VERSION}, "store"
            )

    def test_segment_round_trip_and_listing(self, tmp_path):
        store = DirectoryCheckpointStore(tmp_path / "store")
        store.write_segment("seg-a", b"payload-a")
        store.write_segment("seg-b", b"payload-b")
        assert store.read_segment("seg-a") == b"payload-a"
        assert store.list_segments() == ["seg-a", "seg-b"]
        store.delete_segment("seg-a")
        store.delete_segment("seg-a")  # idempotent
        assert store.list_segments() == ["seg-b"]

    def test_missing_segment_is_a_corruption_error(self, tmp_path):
        store = DirectoryCheckpointStore(tmp_path / "store")
        with pytest.raises(CorruptCheckpointError, match="seg-gone"):
            store.read_segment("seg-gone")

    def test_segment_names_must_be_bare(self, tmp_path):
        store = DirectoryCheckpointStore(tmp_path / "store")
        with pytest.raises(ValueError, match="bare"):
            store.write_segment("../escape", b"x")

    def test_pathlike_root(self, tmp_path):
        store = DirectoryCheckpointStore(PathLikeWrapper(tmp_path / "store"))
        store.write_segment("seg", b"x")
        assert store.read_segment("seg") == b"x"


class TestWalRecordCodec:
    def test_round_trip(self):
        payload = encode_wal_record("rows", ["k"], [1.0])
        assert decode_wal_record(payload, "wal") == ("rows", ["k"], [1.0])

    def test_garbage_names_the_source(self):
        with pytest.raises(CorruptCheckpointError, match="wal-file"):
            decode_wal_record(b"\x00garbage", "wal-file")

    def test_non_tuple_payload_rejected(self):
        with pytest.raises(CorruptCheckpointError, match="kind"):
            decode_wal_record(pickle.dumps({"not": "a tuple"}), "wal-file")


class TestStoreLock:
    """The ownership lease: one writer process per store."""

    def _lock(self, tmp_path, **kwargs):
        return StoreLock(tmp_path / "LOCK", **kwargs)

    def test_acquire_writes_holder_document(self, tmp_path):
        with self._lock(tmp_path) as lock:
            holder = lock.read_holder()
            assert holder["pid"] == os.getpid()
            assert lock.held
        assert not lock.held
        assert lock.read_holder() is None  # released ⇒ file gone

    def test_second_claimant_is_refused_and_told_who_holds_it(self, tmp_path):
        with self._lock(tmp_path):
            with pytest.raises(StoreLockedError) as error:
                self._lock(tmp_path).acquire()
            assert error.value.holder["pid"] == os.getpid()
            assert str(os.getpid()) in str(error.value)

    def test_release_then_reacquire(self, tmp_path):
        first = self._lock(tmp_path).acquire()
        first.release()
        with self._lock(tmp_path):
            pass

    def test_dead_pid_lease_is_taken_over(self, tmp_path):
        """The SIGKILLed-worker case: holder pid no longer exists."""
        path = tmp_path / "LOCK"
        path.write_text(json.dumps({"pid": _unused_pid(), "host": "gone"}))
        with self._lock(tmp_path) as lock:
            assert lock.read_holder()["pid"] == os.getpid()

    def test_stale_heartbeat_lease_is_taken_over(self, tmp_path):
        """A live-pid lease whose mtime has aged out is reclaimable."""
        path = tmp_path / "LOCK"
        path.write_text(json.dumps({"pid": os.getpid()}))
        long_ago = time.time() - 3600
        os.utime(path, (long_ago, long_ago))
        with self._lock(tmp_path, stale_after=1.0) as lock:
            assert lock.held

    def test_stale_after_none_disables_the_mtime_horizon(self, tmp_path):
        path = tmp_path / "LOCK"
        path.write_text(json.dumps({"pid": os.getpid()}))
        long_ago = time.time() - 3600
        os.utime(path, (long_ago, long_ago))
        with pytest.raises(StoreLockedError):
            self._lock(tmp_path, stale_after=None).acquire()

    def test_unparseable_lease_is_reclaimable(self, tmp_path):
        (tmp_path / "LOCK").write_bytes(b"\x00 not json at all")
        long_ago = time.time() - 3600
        os.utime(tmp_path / "LOCK", (long_ago, long_ago))
        with self._lock(tmp_path, stale_after=1.0) as lock:
            assert lock.held

    def test_heartbeat_refreshes_mtime(self, tmp_path):
        with self._lock(tmp_path) as lock:
            long_ago = time.time() - 3600
            os.utime(lock.path, (long_ago, long_ago))
            lock.heartbeat()
            assert time.time() - lock.path.stat().st_mtime < 60

    def test_heartbeat_and_release_survive_a_vanished_file(self, tmp_path):
        lock = self._lock(tmp_path).acquire()
        lock.path.unlink()
        lock.heartbeat()  # must not raise
        lock.release()  # must not raise

    def test_exclusive_store_integration(self, tmp_path):
        """``DirectoryCheckpointStore(exclusive=True)`` rides the lease."""
        store = DirectoryCheckpointStore(tmp_path / "store", exclusive=True)
        with pytest.raises(StoreLockedError):
            DirectoryCheckpointStore(tmp_path / "store", exclusive=True)
        store.close()
        second = DirectoryCheckpointStore(tmp_path / "store", exclusive=True)
        second.close()

    def test_non_exclusive_store_ignores_the_lease(self, tmp_path):
        store = DirectoryCheckpointStore(tmp_path / "store", exclusive=True)
        relaxed = DirectoryCheckpointStore(tmp_path / "store")  # advisory
        relaxed.close()
        store.close()


def _unused_pid() -> int:
    """A pid that does not name a live process (probe downward from max)."""
    candidate = 2**22 - 1
    while candidate > 1:
        try:
            os.kill(candidate, 0)
        except ProcessLookupError:
            return candidate
        except OSError:
            pass
        candidate -= 1
    raise RuntimeError("no free pid found")


class TestWalGroupCommit:
    def test_group_commit_equals_individual_appends(self, tmp_path):
        records = [b"alpha", b"beta" * 100, b"", b"gamma"]
        grouped = DirectoryCheckpointStore(tmp_path / "grouped")
        grouped.wal_start(wal_name(0))
        grouped.wal_append_many(records)
        grouped.close()
        individual = DirectoryCheckpointStore(tmp_path / "individual")
        individual.wal_start(wal_name(0))
        for record in records:
            individual.wal_append(record)
        individual.close()
        # Byte-identical framing: replay cannot tell the two apart.
        grouped_bytes = (tmp_path / "grouped" / "wal" / wal_name(0)).read_bytes()
        individual_bytes = (
            tmp_path / "individual" / "wal" / wal_name(0)
        ).read_bytes()
        assert grouped_bytes == individual_bytes
        fresh = DirectoryCheckpointStore(tmp_path / "grouped")
        assert wal_payloads(fresh, wal_name(0)) == records

    def test_empty_batch_is_a_noop(self, tmp_path):
        store = DirectoryCheckpointStore(tmp_path / "store")
        store.wal_start(wal_name(0))
        store.wal_append_many([])
        assert wal_payloads(store, wal_name(0)) == []

    def test_fault_points_fire_once_per_batch(self, tmp_path):
        store = DirectoryCheckpointStore(tmp_path / "store")
        store.wal_start(wal_name(0))
        seen = []
        store.fault_hook = seen.append
        store.wal_append_many([b"one", b"two", b"three"])
        assert seen == ["wal.append.before", "wal.append.torn", "wal.append.after"]

    def test_mid_batch_crash_keeps_a_complete_prefix(self, tmp_path):
        """A kill mid-batch loses a suffix; surviving records are intact."""
        store = DirectoryCheckpointStore(tmp_path / "store")
        store.wal_start(wal_name(0))
        store.wal_append(b"before-the-batch")

        def hook(point):
            if point == "wal.append.torn":
                raise SimulatedCrash(point)

        store.fault_hook = hook
        batch = [b"r-%d" % index * 20 for index in range(8)]
        with pytest.raises(SimulatedCrash):
            store.wal_append_many(batch)
        store.close()
        fresh = DirectoryCheckpointStore(tmp_path / "store")
        survived = wal_payloads(fresh, wal_name(0))
        assert survived[0] == b"before-the-batch"
        tail = survived[1:]
        # Strictly a prefix of the batch: no holes, no damaged records,
        # and the crash (half the batch bytes) lost at least the last one.
        assert tail == batch[: len(tail)]
        assert len(tail) < len(batch)

    def test_mid_batch_torn_tail_recovers_and_appends(self, tmp_path):
        store = DirectoryCheckpointStore(tmp_path / "store")
        store.wal_start(wal_name(0))

        def hook(point):
            if point == "wal.append.torn":
                store.fault_hook = None
                raise SimulatedCrash(point)

        store.fault_hook = hook
        with pytest.raises(SimulatedCrash):
            store.wal_append_many([b"lost-a", b"lost-b"])
        # Same session keeps appending: the torn bytes must be dropped
        # first (the whole failed batch rolls back to the good offset).
        store.wal_append_many([b"after-a", b"after-b"])
        assert wal_payloads(store, wal_name(0)) == [b"after-a", b"after-b"]

    def test_group_commit_respects_wal_sync(self, tmp_path):
        store = DirectoryCheckpointStore(tmp_path / "store", wal_sync=True)
        store.wal_start(wal_name(0))
        store.wal_append_many([b"one", b"two"])
        assert wal_payloads(store, wal_name(0)) == [b"one", b"two"]

    def test_appends_never_leave_the_generations_file(self, tmp_path):
        store = DirectoryCheckpointStore(tmp_path / "store")
        store.wal_start(wal_name(0))
        records = [bytes([index]) * 4096 for index in range(64)]
        for record in records:
            store.wal_append(record)
        assert store.list_wals() == [wal_name(0)]
        assert wal_payloads(store, wal_name(0)) == records

    def test_a_batch_and_the_appends_after_it_share_the_file(self, tmp_path):
        store = DirectoryCheckpointStore(tmp_path / "store")
        store.wal_start(wal_name(0))
        store.wal_append_many([b"y" * 30] * 5)
        store.wal_append(b"tail")
        assert store.list_wals() == [wal_name(0)]
        assert wal_payloads(store, wal_name(0)) == [b"y" * 30] * 5 + [b"tail"]


class TestWalDirectoryEntry:
    """Under ``wal_sync`` an fsynced append survives a power cut only if the
    directory entry of its file does: ``wal/`` is fsynced when a
    generation's file is created, and a torn tail's truncation is fsynced,
    before anything is appended."""

    def test_wal_is_synced_before_the_first_acknowledged_append_returns(
        self, tmp_path, monkeypatch
    ):
        from repro.durability import directory
        from repro.streaming import MultiSeriesEngine

        synced = []
        monkeypatch.setattr(directory, "fsync_directory", synced.append)
        store = DirectoryCheckpointStore(tmp_path / "store", wal_sync=True)
        wal = tmp_path / "store" / "wal"
        engine = MultiSeriesEngine.open(
            store, spec=MultiSeriesEngine.for_oneshotstl(8).spec
        )
        engine.process("a", 1.0)  # acknowledged: its frame is fsynced
        # open() created the generation's file and entered it first.
        assert synced.count(wal) == 1
        engine.checkpoint()  # the next generation's file
        engine.process("a", 2.0)
        assert synced.count(wal) == 2
        engine.close(checkpoint=False)

    def test_a_created_file_is_entered_and_a_truncation_synced(
        self, tmp_path, monkeypatch
    ):
        from repro.durability import directory

        synced, fsynced = [], []
        monkeypatch.setattr(directory, "fsync_directory", synced.append)
        real_fsync = os.fsync

        def recording_fsync(descriptor):
            fsynced.append(os.fstat(descriptor).st_size)
            real_fsync(descriptor)

        monkeypatch.setattr(directory.os, "fsync", recording_fsync)
        store = DirectoryCheckpointStore(tmp_path / "store", wal_sync=True)
        store.wal_start(wal_name(0))
        assert synced == [tmp_path / "store" / "wal"] and fsynced == []
        store.wal_append(b"kept")
        store.close_wal()
        path = tmp_path / "store" / "wal" / wal_name(0)
        complete = path.stat().st_size
        with open(path, "ab") as handle:
            handle.write(b"\x07torn")
        store.wal_start(wal_name(0))
        assert fsynced[-1] == complete  # the cut, synced before any append
        assert synced == [tmp_path / "store" / "wal"]  # no second entry
        store.close_wal()
        unsynced = DirectoryCheckpointStore(tmp_path / "plain")
        unsynced.wal_start(wal_name(0))
        assert synced == [tmp_path / "store" / "wal"]


class TestWalNames:
    def test_a_name_without_a_part_is_no_wal_part(self):
        # Format 2 named one WAL file per generation, wal-GGGGGGGG.log;
        # no store this build opens can name one.
        assert wal_position("wal-00000007.log") is None
        assert wal_position("journal.log") is None
        assert wal_position(wal_name(7)) == (7, 0)

    def test_a_later_part_name_is_still_recognised(self):
        # Older builds rotated the log into parts 1, 2, ...; recovery
        # must see such a part to refuse it.
        assert wal_position("wal-00000003-0002.log") == (3, 2)
        assert wal_position("wal-00000003-0002.log.suffix@12") is None

    def test_wal_exists_sees_empty_segments(self, tmp_path):
        store = DirectoryCheckpointStore(tmp_path / "store")
        assert not store.wal_exists(wal_name(0))
        store.wal_start(wal_name(0))
        assert store.wal_exists(wal_name(0))


class TestManifestWalChain:
    def test_build_manifest_names_the_generations_one_wal(self):
        manifest = build_manifest(3, {}, [])
        assert manifest["wal"] == [wal_name(3)]

    @pytest.mark.parametrize("version", [1, 2])
    def test_a_manifest_of_format_1_or_2_is_refused_by_name(self, version):
        manifest = build_manifest(1, {"fake": "spec"}, [])
        manifest["format_version"] = version
        with pytest.raises(CheckpointVersionError) as error:
            validate_manifest(manifest, "store")
        assert (error.value.found, error.value.expected) == (
            version,
            CHECKPOINT_FORMAT_VERSION,
        )
        assert "store" in str(error.value)

    def test_malformed_wal_chain_rejected(self):
        manifest = build_manifest(0, SPEC.to_dict(), [])
        validate_manifest(manifest, "store")
        for wal in (
            [],
            wal_name(0),
            [wal_name(0), 7],
            [wal_name(0), "wal-00000000-0001.log"],
            [wal_name(1)],
        ):
            manifest["wal"] = wal
            with pytest.raises(CorruptCheckpointError, match="one WAL file"):
                validate_manifest(manifest, "store")
