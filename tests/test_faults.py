"""Fault-injection, supervision and corruption-quarantine tests.

Three tiers of evidence:

* process-free units of the fault vocabulary itself --
  :class:`RetryPolicy` schedules and :class:`FaultPlan` counter windows
  must be deterministic, because every oracle below leans on "the same
  fault fires at the same operation every run";
* store-level corruption tests: ``store.verify()`` against
  hand-corrupted bytes, and ``MultiSeriesEngine.open`` under the
  ``strict | truncate | quarantine`` recovery policies -- quarantine
  must name exactly the cohort keys it dropped and serve the rest --
  and, because both read the store through one walk, a property over
  {artifact x flip/truncate/delete x offset, and manifest fields set to
  what is not a number, a format this build reads or an engine spec it
  can run}: ``verify().ok``
  iff a strict open succeeds, what opens strictly keeps every series
  through a checkpoint and a reopen, and a tolerant recovery's state is
  the scalar reference fed exactly the replayed prefix;
* cross-process supervision tests: a parametrized {boundary x injector}
  fault matrix against an uninterrupted twin engine (the survived
  verdict and the recovered stream must both match what the boundary
  implies), transient-error retry that never double-applies, the hang
  watchdog, the circuit breaker, and ``allow_partial`` degraded mode.

Fleets stay tiny (1-2 shards, periods of 8) so the module fits tier-1
time budgets; hang cases use a short ``request_timeout`` so the
watchdog, not the sleep, sets the pace.
"""

import json
import pickle
import shutil
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.durability import (
    CHECKPOINT_FORMAT_VERSION,
    RECOVERY_POLICIES,
    CheckpointError,
    CheckpointVersionError,
    CorruptCheckpointError,
    DirectoryCheckpointStore,
)
from repro.durability.format import wal_name
from repro.durability.scrub import decode_manifest_keys
from repro.durability.segment import SEGMENT_MAGIC
from repro.faults import (
    WORKER_RECV,
    WORKER_REPLY,
    FaultInjector,
    FaultPlan,
    RetryPolicy,
)
from repro.sharding import (
    ClusterSpec,
    ConsistentHashRing,
    DegradedResult,
    ShardDownError,
    ShardFailoverError,
    ShardRouter,
    ShardingError,
    WorkerCrashError,
)
from repro.specs import EngineSpec
from repro.streaming import MultiSeriesEngine

from tests.conftest import make_seasonal_series
from tests.test_sharding import assert_results_identical

PERIOD = 8
INIT = 2 * PERIOD
LENGTH = PERIOD * 9


def engine_spec() -> EngineSpec:
    return MultiSeriesEngine.for_oneshotstl(
        PERIOD, initialization_length=INIT, shift_window=0
    ).spec


def fleet_data(n_series: int, length: int = LENGTH) -> dict:
    return {
        f"series-{index:03d}": make_seasonal_series(
            length, PERIOD, seed=700 + index
        )["values"]
        for index in range(n_series)
    }


def slice_batch(data: dict, start: int, stop: int) -> dict:
    return {key: values[start:stop] for key, values in data.items()}


def victim_shard(cluster: ClusterSpec, data: dict) -> str:
    return ConsistentHashRing(
        [shard.shard_id for shard in cluster.shards]
    ).shard_for(next(iter(data)))


# --------------------------------------------------------------------------
# RetryPolicy (no processes)
# --------------------------------------------------------------------------


class TestRetryPolicy:
    def test_default_schedule(self):
        assert list(RetryPolicy().delays()) == [0.05, 0.2]

    def test_schedule_is_capped(self):
        policy = RetryPolicy(
            attempts=5, base_delay=0.1, multiplier=10.0, max_delay=1.5
        )
        assert list(policy.delays()) == [0.1, 1.0, 1.5, 1.5]

    def test_call_succeeds_after_transient_failures(self):
        pauses: list = []
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise OSError("transient")
            return "done"

        result = RetryPolicy().call(flaky, sleep=pauses.append)
        assert result == "done"
        assert calls["n"] == 3
        assert pauses == [0.05, 0.2]

    def test_call_exhausts_and_reraises(self):
        pauses: list = []

        def always_fails():
            raise OSError("still broken")

        with pytest.raises(OSError, match="still broken"):
            RetryPolicy().call(always_fails, sleep=pauses.append)
        assert pauses == [0.05, 0.2]  # three attempts, two sleeps

    def test_non_transient_propagates_immediately(self):
        calls = {"n": 0}

        def wrong_value():
            calls["n"] += 1
            raise ValueError("not retryable")

        with pytest.raises(ValueError):
            RetryPolicy().call(wrong_value, sleep=lambda _: None)
        assert calls["n"] == 1

    def test_validation(self):
        with pytest.raises(ValueError, match="attempts"):
            RetryPolicy(attempts=0)
        with pytest.raises(ValueError, match="multiplier"):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError, match="delays"):
            RetryPolicy(base_delay=-1.0)


# --------------------------------------------------------------------------
# FaultPlan (no processes)
# --------------------------------------------------------------------------


class TestFaultPlan:
    def test_counter_window_after_and_times(self):
        plan = FaultPlan(
            [FaultInjector(point="p", action="drop", after=2, times=2)]
        )
        assert [plan.fire("p") for _ in range(5)] == [
            None,
            "drop",
            "drop",
            None,
            None,
        ]

    def test_counters_are_per_point(self):
        plan = FaultPlan([FaultInjector(point="a", action="drop")])
        assert plan.fire("b") is None  # unrelated point, no effect
        assert plan.fire("a") == "drop"

    def test_times_zero_fires_forever(self):
        plan = FaultPlan(
            [FaultInjector(point="p", action="drop", after=1, times=0)]
        )
        assert all(plan.fire("p") == "drop" for _ in range(10))

    def test_raise_action_carries_errno(self):
        import errno

        plan = FaultPlan([FaultInjector(point="p", action="raise")])
        with pytest.raises(OSError) as error:
            plan.fire("p")
        assert error.value.errno == errno.ENOSPC

    def test_survivors_keeps_only_persistent_injectors(self):
        one_shot = FaultInjector(point="p", action="sigkill")
        sticky = FaultInjector(point="p", action="sigkill", persist=True)
        survivors = FaultPlan([one_shot, sticky]).survivors()
        assert survivors.injectors == (sticky,)
        assert not FaultPlan([one_shot]).survivors()

    def test_dict_round_trip_and_coerce(self):
        injector = FaultInjector(
            point="wal.append.before", action="hang", duration=1.5, after=3
        )
        plan = FaultPlan([injector])
        clone = FaultPlan.from_dict(plan.to_dict())
        assert clone.injectors == plan.injectors
        assert FaultPlan.coerce(plan) is plan
        assert FaultPlan.coerce([injector]).injectors == (injector,)
        assert FaultPlan.coerce(plan.to_dict()).injectors == (injector,)

    def test_validation_rejects_unknowns(self):
        with pytest.raises(ValueError, match="unknown fault action"):
            FaultInjector(point="p", action="meteor")
        with pytest.raises(ValueError, match="after"):
            FaultInjector(point="p", action="drop", after=0)
        with pytest.raises(ValueError, match="unknown FaultInjector fields"):
            FaultInjector.from_dict({"point": "p", "action": "drop", "x": 1})
        with pytest.raises(ValueError, match="bit_flip target"):
            FaultInjector(point="p", action="bit_flip", target="ram")

    def test_bit_flip_flips_exactly_one_bit(self, tmp_path):
        store = DirectoryCheckpointStore(tmp_path)
        payload = bytes(range(64))
        store.write_segment("seg-000", payload)
        plan = FaultPlan(
            [FaultInjector(point="p", action="bit_flip", target="segment")]
        )
        plan.install(store)
        plan.fire("p")
        flipped = store.read_segment("seg-000")
        deltas = [
            index
            for index, (a, b) in enumerate(zip(payload, flipped))
            if a != b
        ]
        assert deltas == [len(payload) // 2]
        assert payload[deltas[0]] ^ flipped[deltas[0]] == 0x01


# --------------------------------------------------------------------------
# store scrub + recovery policies (no processes)
# --------------------------------------------------------------------------


def populate_store(
    path,
    n_series: int = 8,
    cohort_size: int | None = None,
    wal_batches: int = 2,
) -> dict:
    """Build a store with a committed checkpoint plus a live WAL tail."""
    data = fleet_data(n_series)
    store = DirectoryCheckpointStore(path)
    engine = MultiSeriesEngine.open(store, spec=engine_spec())
    if cohort_size is not None:
        engine.checkpoint_cohort_size = cohort_size
    cut = PERIOD * 5
    engine.ingest_columnar(slice_batch(data, 0, cut))
    engine.checkpoint()
    step = (LENGTH - cut) // wal_batches
    for index in range(wal_batches):
        engine.ingest_columnar(
            slice_batch(data, cut + index * step, cut + (index + 1) * step)
        )
    engine.close(checkpoint=False)
    return data


def read_manifest_json(path) -> dict:
    return json.loads((path / "MANIFEST.json").read_text())


def flip_byte(path, offset: int | None = None) -> None:
    raw = bytearray(path.read_bytes())
    position = len(raw) // 2 if offset is None else offset
    raw[position] ^= 0x01
    path.write_bytes(bytes(raw))


class TestStoreVerify:
    def test_clean_store_verifies_ok(self, tmp_path):
        populate_store(tmp_path)
        report = DirectoryCheckpointStore(tmp_path).verify()
        assert report.ok
        assert report.findings == ()
        assert report.segments_checked > 0
        assert report.wal_frames_checked > 0
        assert "ok" in str(report)

    def test_segment_bit_flip_is_a_fatal_crc_finding(self, tmp_path):
        populate_store(tmp_path)
        manifest = read_manifest_json(tmp_path)
        segment = manifest["cohorts"][0]["segment"]
        flip_byte(tmp_path / "segments" / segment)
        report = DirectoryCheckpointStore(tmp_path).verify()
        assert not report.ok
        problems = {
            finding.artifact: finding.problem for finding in report.findings
        }
        assert problems[segment] == "crc_mismatch"
        assert "CORRUPT" in str(report)

    def test_missing_segment_is_fatal(self, tmp_path):
        populate_store(tmp_path)
        segment = read_manifest_json(tmp_path)["cohorts"][0]["segment"]
        (tmp_path / "segments" / segment).unlink()
        report = DirectoryCheckpointStore(tmp_path).verify()
        assert not report.ok
        assert any(
            finding.problem == "missing" and finding.artifact == segment
            for finding in report.findings
        )

    def test_invalid_manifest_is_fatal(self, tmp_path):
        populate_store(tmp_path)
        (tmp_path / "MANIFEST.json").write_text("{this is not json")
        report = DirectoryCheckpointStore(tmp_path).verify()
        assert not report.ok
        assert report.findings[0].artifact == "manifest"

    def test_torn_wal_tail_is_a_nonfatal_note(self, tmp_path):
        populate_store(tmp_path)
        store = DirectoryCheckpointStore(tmp_path)
        last_wal = store.list_wals()[-1]
        with open(tmp_path / "wal" / last_wal, "ab") as handle:
            handle.write(b"\x07\x07\x07")  # a crash mid-append
        report = DirectoryCheckpointStore(tmp_path).verify()
        assert report.ok  # strict recovery would still succeed
        notes = [f for f in report.findings if not f.fatal]
        assert [note.problem for note in notes] == ["torn_tail"]
        assert notes[0].artifact == last_wal


class TestWalCrcDamage:
    """A complete WAL frame that fails its CRC is damage when a readable
    frame follows it (a crash tears only the end of the file), and crash
    debris only when it is the last thing in the file."""

    def _flipped(self, tmp_path, frame: int) -> tuple[str, int]:
        """A store with four WAL batches, one bit of ``frame`` flipped in
        its payload; returns ``(wal file, offset of that frame)``."""
        populate_store(tmp_path, wal_batches=4)
        store = DirectoryCheckpointStore(tmp_path)
        (name,) = store.list_wals()
        ends = [0] + [end for _payload, end in store.wal_frames(name)]
        assert len(ends) == 5
        flip_byte(tmp_path / "wal" / name, ends[frame] + 20)
        return name, ends[frame]

    def test_an_early_flip_is_fatal_and_strict_refuses_it_untouched(self, tmp_path):
        name, offset = self._flipped(tmp_path, 0)
        report = DirectoryCheckpointStore(tmp_path).verify()
        assert not report.ok
        assert [(f.artifact, f.problem, f.fatal) for f in report.findings] == [
            (name, "crc_mismatch", True)
        ]
        before = tree_bytes(tmp_path)
        with pytest.raises(CorruptCheckpointError) as error:
            strict_open(tmp_path)
        assert error.value.problem == "crc_mismatch"
        assert f"offset {offset}" in str(error.value)
        assert tree_bytes(tmp_path) == before

    @pytest.mark.parametrize("policy", ["truncate", "quarantine"])
    def test_tolerant_policies_cut_at_the_bad_frame(self, tmp_path, policy):
        name, offset = self._flipped(tmp_path, 1)
        store = DirectoryCheckpointStore(tmp_path)
        engine = MultiSeriesEngine.open(store, spec=engine_spec(), recovery=policy)
        report = engine.last_recovery
        # the bad frame and the two readable ones after it
        assert (report.wal_records_replayed, report.wal_records_lost) == (1, 3)
        assert engine.fleet_stats().points_total == 8 * PERIOD * 6
        quarantined = [f"{name}.suffix@{offset}"] if policy == "quarantine" else []
        assert store.list_quarantined() == quarantined
        assert store.verify().ok  # the recovery re-checkpointed
        engine.close(checkpoint=False)

    def test_a_flip_in_the_last_frame_stays_a_torn_tail(self, tmp_path):
        name, offset = self._flipped(tmp_path, 3)
        report = DirectoryCheckpointStore(tmp_path).verify()
        assert report.ok
        assert [(f.artifact, f.problem, f.fatal) for f in report.findings] == [
            (name, "torn_tail", False)
        ]
        engine = strict_open(tmp_path)
        assert engine.last_recovery.wal_records_replayed == 3
        engine.close(checkpoint=False)


class TestWalEveryByte:
    """Bits 0 and 7 of every byte of a four-frame WAL, one flip at a time
    (a damage claim holds at every offset, not at chosen ones): in frames
    0-2 -- length field, CRC field or payload -- the flip is fatal to
    ``verify()`` and refused by a strict open; in the last frame it is a
    torn tail, and the complete frame it was (its length field still
    inside the file) counts as 1 record lost."""

    def test_every_flip_is_found_or_counted(self, tmp_path):
        populate_store(tmp_path, wal_batches=4)
        store = DirectoryCheckpointStore(tmp_path)
        (name,) = store.list_wals()
        ends = [0] + [end for _payload, end in store.wal_frames(name)]
        assert len(ends) == 5
        path = tmp_path / "wal" / name
        pristine = path.read_bytes()
        assert len(pristine) == ends[-1]
        others = {key: value for key, value in tree_bytes(tmp_path).items()}
        wrong = []
        for position in range(len(pristine)):
            frame = np.searchsorted(ends, position, side="right") - 1
            for bit in (0, 7):
                raw = bytearray(pristine)
                raw[position] ^= 1 << bit
                path.write_bytes(bytes(raw))
                report = DirectoryCheckpointStore(tmp_path).verify()
                found = [(f.artifact, f.problem, f.fatal) for f in report.findings]
                if frame < 3:
                    refused = found == [(name, "crc_mismatch", True)]
                    try:
                        strict_open(tmp_path).close(checkpoint=False)
                    except CorruptCheckpointError as error:
                        refused &= error.problem == "crc_mismatch"
                    else:
                        refused = False
                    if not refused:
                        wrong.append((position, bit, found))
                else:
                    length = struct.unpack_from("<I", raw, ends[3])[0]
                    whole = ends[3] + 8 + length <= len(raw)
                    engine = strict_open(tmp_path)
                    recovery = engine.last_recovery
                    engine.close(checkpoint=False)
                    if not (
                        report.ok
                        and found == [(name, "torn_tail", False)]
                        and recovery.wal_records_replayed == 3
                        and recovery.wal_records_lost == int(whole)
                    ):
                        wrong.append((position, bit, found, recovery))
                path.write_bytes(pristine)
        assert wrong == []
        assert tree_bytes(tmp_path) == others


class TestRecoveryPolicies:
    def test_open_rejects_unknown_policy(self, tmp_path):
        store = DirectoryCheckpointStore(tmp_path)
        with pytest.raises(ValueError, match="recovery"):
            MultiSeriesEngine.open(
                store, spec=engine_spec(), recovery="optimistic"
            )

    def test_strict_raises_on_a_corrupt_segment(self, tmp_path):
        populate_store(tmp_path)
        segment = read_manifest_json(tmp_path)["cohorts"][0]["segment"]
        flip_byte(tmp_path / "segments" / segment)
        with pytest.raises(CorruptCheckpointError):
            MultiSeriesEngine.open(
                DirectoryCheckpointStore(tmp_path),
                spec=engine_spec(),
                recovery="strict",
            )

    def test_quarantine_names_cohort_keys_and_serves_the_rest(self, tmp_path):
        data = populate_store(tmp_path, n_series=8, cohort_size=4)
        manifest = read_manifest_json(tmp_path)
        assert len(manifest["cohorts"]) == 2  # cohort_size split the fleet
        bad = manifest["cohorts"][0]
        bad_keys = decode_manifest_keys(bad["keys"])
        flip_byte(tmp_path / "segments" / bad["segment"])

        store = DirectoryCheckpointStore(tmp_path)
        engine = MultiSeriesEngine.open(
            store, spec=engine_spec(), recovery="quarantine"
        )
        report = engine.last_recovery
        assert report is not None and not report.clean
        assert len(report.quarantined_cohorts) == 1
        assert set(report.quarantined_cohorts[0].keys) == set(bad_keys)
        assert set(report.affected_keys) == set(bad_keys)

        survivors = set(data) - set(bad_keys)
        assert set(engine.keys()) == survivors
        # The WAL tail replayed for the survivors only -- each surviving
        # series carries its full history, bit-identically.
        reference = MultiSeriesEngine.from_spec(engine_spec())
        reference.ingest_columnar(data)
        assert engine.fleet_stats().points_total == len(survivors) * LENGTH
        probe = sorted(survivors)[0]
        assert np.array_equal(
            engine.forecast(probe, PERIOD), reference.forecast(probe, PERIOD)
        )
        # The evidence moved aside; the re-checkpointed store scrubs clean.
        assert bad["segment"] in store.list_quarantined()
        assert store.verify().ok
        # The round trip survives: a later strict open sees a clean store.
        engine.close(checkpoint=True)
        again = MultiSeriesEngine.open(
            DirectoryCheckpointStore(tmp_path),
            spec=engine_spec(),
            recovery="strict",
        )
        assert set(again.keys()) == survivors
        again.close(checkpoint=False)

    def test_quarantine_without_a_key_list_refuses(self, tmp_path):
        populate_store(tmp_path)
        manifest = read_manifest_json(tmp_path)
        segment = manifest["cohorts"][0]["segment"]
        del manifest["cohorts"][0]["keys"]
        (tmp_path / "MANIFEST.json").write_text(json.dumps(manifest))
        flip_byte(tmp_path / "segments" / segment)
        # Without the manifest's key list the WAL cannot be filtered, and
        # replaying it would fabricate partial series -- refuse loudly.
        with pytest.raises(CorruptCheckpointError, match="no key list"):
            MultiSeriesEngine.open(
                DirectoryCheckpointStore(tmp_path),
                spec=engine_spec(),
                recovery="quarantine",
            )

    def _undecodable_mid_wal(self, tmp_path) -> tuple[str, int]:
        """A store whose WAL holds, between two batches, a frame that
        passes its CRC but does not decode, and two batches after it.

        Returns ``(wal file, offset of that frame)``; what precedes the
        frame is ``fleet_data(8)`` through ``PERIOD * 6`` rounds.
        """
        data = fleet_data(8)
        store = DirectoryCheckpointStore(tmp_path)
        engine = MultiSeriesEngine.open(store, spec=engine_spec())
        cut = PERIOD * 5
        engine.ingest_columnar(slice_batch(data, 0, cut))
        engine.checkpoint()
        engine.ingest_columnar(slice_batch(data, cut, cut + PERIOD))
        name = wal_name(1)
        _frames, offset, _size = store.wal_tail(name)
        store.wal_append(b"not a record")
        for start in (cut + PERIOD, cut + PERIOD + 2):
            engine.ingest_columnar(slice_batch(data, start, start + 2))
        engine.close(checkpoint=False)
        return name, offset

    def test_quarantine_preserves_a_damaged_wal_suffix(self, tmp_path):
        name, offset = self._undecodable_mid_wal(tmp_path)
        before = tree_bytes(tmp_path)
        with pytest.raises(CorruptCheckpointError) as error:
            strict_open(tmp_path)
        assert name in str(error.value) and f"offset {offset}" in str(error.value)
        assert error.value.problem == "undecodable"
        assert tree_bytes(tmp_path) == before

        store = DirectoryCheckpointStore(tmp_path)
        engine = MultiSeriesEngine.open(
            store, spec=engine_spec(), recovery="quarantine"
        )
        report = engine.last_recovery
        assert report.wal_records_replayed == 1
        assert report.wal_records_lost == 3  # the bad frame and the two after it
        (suffix,) = report.quarantined_wal
        assert (suffix.segment, suffix.from_offset) == (name, offset)
        assert store.list_quarantined() == [f"{name}.suffix@{offset}"]
        assert engine.fleet_stats().points_total == 8 * PERIOD * 6
        assert store.verify().ok  # the recovery re-checkpointed
        engine.close(checkpoint=False)

    def test_truncate_drops_the_suffix_without_preserving(self, tmp_path):
        name, _offset = self._undecodable_mid_wal(tmp_path)
        store = DirectoryCheckpointStore(tmp_path)
        engine = MultiSeriesEngine.open(
            store, spec=engine_spec(), recovery="truncate"
        )
        report = engine.last_recovery
        assert report is not None
        assert report.quarantined_wal == ()
        assert (report.wal_records_replayed, report.wal_records_lost) == (1, 3)
        assert any(
            finding.problem == "truncated" and finding.artifact == name
            for finding in report.findings
        )
        assert store.list_quarantined() == []
        assert store.verify().ok
        engine.close(checkpoint=False)


# --------------------------------------------------------------------------
# one store walk: verify() and recovery read through the same reader
# --------------------------------------------------------------------------


def tree_bytes(root) -> dict:
    """Every file under ``root`` and its bytes (did anything touch the store?)."""
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def strict_open(path, check_spec: bool = True) -> MultiSeriesEngine:
    return MultiSeriesEngine.open(
        DirectoryCheckpointStore(path),
        spec=engine_spec() if check_spec else None,
        recovery="strict",
    )


class TestChainDamage:
    """A generation's WAL chain is one part, wal_name(generation), which
    may be torn at its end or absent; a later part of the same
    generation is refused."""

    @staticmethod
    def _refused_untouched(path, stray: str, policies=RECOVERY_POLICIES) -> None:
        """Each of ``policies`` refuses the store, naming ``stray``, and
        ``verify()`` reports it as fatal; nothing in the tree changes."""
        before = tree_bytes(path)
        report = DirectoryCheckpointStore(path).verify()
        assert not report.ok
        assert [(f.artifact, f.problem, f.fatal) for f in report.findings] == [
            (stray, "stray_part", True)
        ]
        for policy in policies:
            with pytest.raises(CorruptCheckpointError, match=stray) as error:
                MultiSeriesEngine.open(
                    DirectoryCheckpointStore(path),
                    spec=engine_spec(),
                    recovery=policy,
                )
            assert error.value.problem == "stray_part"
        assert tree_bytes(path) == before

    @pytest.mark.parametrize("policy", RECOVERY_POLICIES)
    def test_a_stray_part_is_refused_by_every_policy(self, tmp_path, policy):
        populate_store(tmp_path)
        generation = read_manifest_json(tmp_path)["generation"]
        # What a build that rotated the log and crashed before its next
        # checkpoint left: a later part holding records.
        stray = f"wal-{generation:08d}-0001.log"
        shutil.copy(tmp_path / "wal" / wal_name(generation), tmp_path / "wal" / stray)
        self._refused_untouched(tmp_path, stray, (policy,))

    def test_a_part_of_an_earlier_generation_is_pruned_debris(self, tmp_path):
        populate_store(tmp_path)
        generation = read_manifest_json(tmp_path)["generation"]
        earlier = f"wal-{generation - 1:08d}-0001.log"
        (tmp_path / "wal" / earlier).write_bytes(b"left by a crashed prune")
        assert DirectoryCheckpointStore(tmp_path).verify().findings == ()
        engine = strict_open(tmp_path)
        engine.close(checkpoint=True)
        assert earlier not in DirectoryCheckpointStore(tmp_path).list_wals()

    def test_a_gap_in_the_chain_is_never_a_clean_recovery(self, tmp_path):
        # The manifest's part is gone and a later one holds records: no
        # policy may replay around the hole.
        populate_store(tmp_path)
        generation = read_manifest_json(tmp_path)["generation"]
        stray = f"wal-{generation:08d}-0001.log"
        (tmp_path / "wal" / wal_name(generation)).rename(tmp_path / "wal" / stray)
        self._refused_untouched(tmp_path, stray)

    def test_an_empty_stray_part_is_refused_too(self, tmp_path):
        # A build that rotated the log and crashed before the first
        # append to the new part left it empty.
        populate_store(tmp_path)
        generation = read_manifest_json(tmp_path)["generation"]
        stray = f"wal-{generation:08d}-0001.log"
        (tmp_path / "wal" / stray).write_bytes(b"")
        self._refused_untouched(tmp_path, stray)

    def test_a_missing_final_part_is_the_checkpoint_crash_window(self, tmp_path):
        # A crash between the manifest swap and wal_start leaves the
        # manifest naming a part that was never created.
        populate_store(tmp_path, wal_batches=1)
        engine = strict_open(tmp_path)
        engine.close(checkpoint=True)
        store = DirectoryCheckpointStore(tmp_path)
        (tmp_path / "wal" / store.read_manifest()["wal"][0]).unlink()
        assert store.verify().findings == ()
        strict_open(tmp_path).close(checkpoint=False)


# One pristine store, copied and damaged once per example.  Its WAL tail
# mixes every WAL record kind a build writes.
# The checkpointed fleet is six absorbed series and one warming one in
# cohorts of three, so the segments are columnar: a header, one section
# per state array and -- in the cohort of the warming key -- a fallback.

TAIL_CUT = PERIOD * 5
WARMING_KEY = "a-warming-key"


def segment_regions(payload: bytes) -> dict:
    """``{region: (start, stop)}`` of a columnar segment's bytes: the
    framing, the header, each array section and the fallback."""
    assert payload.startswith(SEGMENT_MAGIC)
    (length,) = struct.unpack_from("<I", payload, 4)
    regions = {"frame": (0, 8), "header": (8, 8 + length)}
    header = json.loads(payload[8 : 8 + length])
    offset = 8 + length
    for group in header["groups"]:
        for section in group["sections"]:
            size = 8 * int(np.prod(section["shape"]))
            if size:
                regions[section["name"]] = (offset, offset + size)
            offset += size
    if header["fallback"]:
        regions["fallback"] = (offset, offset + header["fallback"])
    assert offset + header["fallback"] == len(payload)
    return regions


def tail_batches(data: dict) -> list:
    """The post-checkpoint batches: ``(form, payload)``, one WAL record each."""
    keys = sorted(data)
    step = PERIOD // 2
    cuts = [TAIL_CUT + index * step for index in range(8)]
    rows = [(key, data[key][cuts[1]]) for key in keys]
    return [
        ("grid", slice_batch(data, cuts[0], cuts[1])),
        ("rows", (keys, np.array([value for _key, value in rows]))),
        ("point", (keys[0], data[keys[0]][cuts[1] + 1])),
        # an unconvertible value journals the rows ahead of it; the batch
        # applies up to the bad row and raises, at replay it just ends
        ("malformed", [(key, data[key][cuts[1] + 2]) for key in keys[1:3]]
         + [(keys[3], "not-a-number")]),
        ("grid", slice_batch({k: data[k] for k in keys[3:]}, cuts[1] + 1, cuts[3])),
        ("grid", slice_batch({k: data[k] for k in keys[:3]}, cuts[1] + 3, cuts[3])),
        ("grid", slice_batch(data, cuts[3], cuts[4])),
    ]


def apply_batch(engine: MultiSeriesEngine, form: str, payload) -> None:
    if form == "point":
        engine.process(*payload)
    elif form == "malformed":
        with pytest.raises((ValueError, TypeError)):
            engine.ingest(payload)
    else:
        engine.ingest_columnar(payload)


def apply_scalar(engine: MultiSeriesEngine, form: str, payload) -> None:
    """The same batch, one ``process`` call per point (the scalar path)."""
    if form == "grid":
        length = len(next(iter(payload.values())))
        rows = [(key, payload[key][t]) for t in range(length) for key in payload]
    elif form == "rows":
        rows = list(zip(*payload))
    elif form == "point":
        rows = [payload]
    else:
        rows = payload
    for key, value in rows:
        try:
            engine.process(key, value)
        except (ValueError, TypeError):
            return  # a rejected row ends its batch, exactly as ingest does


def series_view(engine: MultiSeriesEngine) -> dict:
    view = {}
    for key in engine.keys():
        stats = engine.series_stats(key)
        forecast = (
            engine.forecast(key, PERIOD).tobytes()
            if stats.status.value == "live"
            else None
        )
        view[key] = (stats.status, stats.points, stats.anomalies, forecast)
    return view


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """``(path, reference views)``.

    ``reference views[k]`` is the per-key state of a scalar engine fed the
    checkpointed prefix plus the first ``k`` tail batches.
    """
    data = fleet_data(6)
    batches = tail_batches(data)
    reference = MultiSeriesEngine.from_spec(engine_spec())
    reference.process(WARMING_KEY, 1.0)
    apply_scalar(reference, "grid", slice_batch(data, 0, TAIL_CUT))
    views = [series_view(reference)]
    for form, payload in batches:
        apply_scalar(reference, form, payload)
        views.append(series_view(reference))
    path = tmp_path_factory.mktemp("pristine")
    store = DirectoryCheckpointStore(path)
    engine = MultiSeriesEngine.open(store, spec=engine_spec())
    engine.checkpoint_cohort_size = 3
    engine.process(WARMING_KEY, 1.0)
    engine.ingest_columnar(slice_batch(data, 0, TAIL_CUT))
    assert set(engine._absorbed) == set(data)
    engine.checkpoint()
    for form, payload in batches:
        apply_batch(engine, form, payload)
    engine.close(checkpoint=False)
    assert store.list_wals() == [wal_name(1)]
    assert store.wal_tail(wal_name(1))[0] == len(batches)
    return path, views


#: ``engine_spec`` entries no engine can be built from: ``{field: value}``
SPEC_EDITS = {
    "latency_window": 0,
    "initialization_length": "x",
    "pipeline": {"decomposer": {"name": "no-such-model"}},
    "overrides": {
        "k": {"decomposer": {"name": "oneshotstl"}, "detector": {"name": "no-such"}}
    },
}

#: a manifest field set to what recovery cannot read as a number, a
#: format this build no longer reads, or an engine spec it cannot run:
#: ``(field, value)``
MANIFEST_EDITS = st.one_of(
    st.tuples(
        st.just("cohort_id"), st.sampled_from(["x", None, True, 1.5, "duplicate"])
    ),
    st.tuples(
        st.just("generation"),
        st.one_of(st.text(max_size=3), st.integers(max_value=-1)),
    ),
    st.tuples(st.just("format_version"), st.sampled_from([1, 2])),
    st.tuples(st.just("engine_spec"), st.sampled_from(sorted(SPEC_EDITS))),
)


def edit_manifest_field(path, edit: tuple) -> None:
    field, value = edit
    manifest = json.loads(path.read_text())
    if field == "cohort_id":
        cohorts = manifest["cohorts"]
        cohorts[-1]["id"] = cohorts[0]["id"] if value == "duplicate" else value
    elif field == "engine_spec":
        manifest[field][value] = SPEC_EDITS[value]
    else:
        manifest[field] = value
    path.write_text(json.dumps(manifest))


def damage_artifact(path, kind: str, offset: int) -> None:
    if kind == "delete":
        path.unlink()
    elif kind == "truncate":
        with open(path, "r+b") as handle:
            handle.truncate(offset)
    else:
        flip_byte(path, offset=offset)


class TestVerifyAgreesWithRecovery:
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_verify_ok_iff_strict_opens_and_tolerant_state_is_a_prefix(
        self, pristine, data
    ):
        source, views = pristine
        artifacts = sorted(
            str(path.relative_to(source))
            for path in source.rglob("*")
            if path.is_file()
        )
        artifact = data.draw(st.sampled_from(artifacts), label="artifact")
        size = (source / artifact).stat().st_size
        manifest = artifact == "MANIFEST.json"
        kinds = ["flip", "truncate", "delete"] if size else ["delete"]
        kind = data.draw(st.sampled_from(kinds + ["field"] * manifest), label="damage")
        edit = data.draw(MANIFEST_EDITS, label="edit") if kind == "field" else None
        start, stop = 0, max(size, 1)
        if artifact.startswith("segments/") and kind != "delete":
            # Aim: the framing, the header, every kind of array section
            # and the fallback section are each hit on purpose.
            regions = segment_regions((source / artifact).read_bytes())
            region = data.draw(st.sampled_from(sorted(regions)), label="region")
            start, stop = regions[region]
        offset = data.draw(st.integers(start, stop - 1), label="offset")
        written = len(views) - 1

        with tempfile.TemporaryDirectory() as scratch:
            stores = []
            for policy in RECOVERY_POLICIES:
                copy = Path(scratch) / policy
                shutil.copytree(source, copy)
                if edit is None:
                    damage_artifact(copy / artifact, kind, offset)
                else:
                    edit_manifest_field(copy / artifact, edit)
                stores.append(copy)
            strict_path, *tolerant = stores
            if manifest and kind == "flip":
                try:
                    damaged = json.loads((strict_path / artifact).read_text())
                except ValueError:
                    damaged = None
                # The store cannot vouch for what only the engine can
                # read: a flip that leaves the spec valid but different.
                assume(
                    not isinstance(damaged, dict)
                    or damaged.get("engine_spec")
                    == read_manifest_json(source)["engine_spec"]
                )

            untouched = tree_bytes(strict_path)
            ok = DirectoryCheckpointStore(strict_path).verify().ok
            # An edited engine spec differs from engine_spec() by
            # construction: opened with spec=, the caller's mismatch
            # (a ValueError) would answer before the store is read.
            as_stored = edit is not None and edit[0] == "engine_spec"
            try:
                engine = strict_open(strict_path, check_spec=not as_stored)
            except CheckpointError as error:
                opened = False
                assert tree_bytes(strict_path) == untouched
                if edit is not None and edit[0] == "format_version":
                    assert isinstance(error, CheckpointVersionError)
                    assert (error.found, error.expected) == (
                        edit[1],
                        CHECKPOINT_FORMAT_VERSION,
                    )
            else:
                opened = True
                # What opens strictly keeps every series through the
                # next checkpoint and a reopen.
                kept = series_view(engine)
                engine.checkpoint()
                engine.close(checkpoint=False)
                again = strict_open(strict_path)
                assert series_view(again) == kept
                again.close(checkpoint=False)
            assert ok == opened
            assert not (opened and edit is not None)

            for policy, path in zip(RECOVERY_POLICIES[1:], tolerant):
                store = DirectoryCheckpointStore(path)
                try:
                    engine = MultiSeriesEngine.open(
                        store, spec=None if as_stored else engine_spec(), recovery=policy
                    )
                except CheckpointError:
                    assert not opened  # tolerant policies raise on less
                    continue
                report = engine.last_recovery
                view = series_view(engine)
                if artifact.startswith("segments/") and report.quarantined_cohorts:
                    # Exactly the damaged cohort's keys are gone, and
                    # nothing of it is half-registered anywhere.
                    (cohort,) = [
                        cohort
                        for cohort in read_manifest_json(source)["cohorts"]
                        if cohort["segment"] == Path(artifact).name
                    ]
                    assert set(report.affected_keys) == set(cohort["keys"])
                    columns = [key for g in engine._groups.values() for key in g.keys]
                    assert sorted(columns) == sorted(engine._absorbed)
                    assert set(engine._absorbed) <= set(engine.keys())
                    assert not set(cohort["keys"]) & set(engine.keys())
                engine.close(checkpoint=False)
                if report is None:  # the manifest was deleted: a new session
                    assert manifest and view == {}
                    continue
                assert report.clean == opened
                assert DirectoryCheckpointStore(path).verify().ok
                replayed, lost = report.wal_records_replayed, report.wal_records_lost
                assert replayed + lost <= written
                # A manifest carries no checksum: a flip that leaves it
                # valid *is* the store's truth.
                if not manifest:
                    expected = {
                        key: state
                        for key, state in views[replayed].items()
                        if key not in report.affected_keys
                    }
                    assert view == expected


    def test_every_region_of_a_columnar_segment_is_covered(self, pristine):
        """The matrix above samples; this walks: one flip and one cut in
        the framing, the header, every array section and the fallback of
        every segment -- each is fatal to ``verify()`` and to a strict
        open, and costs a quarantine open exactly that cohort."""
        source, views = pristine
        cohorts = read_manifest_json(source)["cohorts"]
        seen = set()
        for cohort in cohorts:
            artifact = Path("segments") / cohort["segment"]
            regions = segment_regions((source / artifact).read_bytes())
            seen.update(regions)
            for (start, stop), kind in (
                (extent, kind)
                for extent in regions.values()
                for kind in ("flip", "truncate")
            ):
                with tempfile.TemporaryDirectory() as scratch:
                    copy = Path(scratch) / "store"
                    shutil.copytree(source, copy)
                    damage_artifact(copy / artifact, kind, (start + stop) // 2)
                    report = DirectoryCheckpointStore(copy).verify()
                    assert [f.artifact for f in report.findings if f.fatal] == [
                        cohort["segment"]
                    ]
                    with pytest.raises(CorruptCheckpointError):
                        strict_open(copy)
                    engine = MultiSeriesEngine.open(copy, recovery="quarantine")
                    assert set(engine.last_recovery.affected_keys) == set(cohort["keys"])
                    assert series_view(engine) == {
                        key: state
                        for key, state in views[-1].items()
                        if key not in cohort["keys"]
                    }
                    engine.close(checkpoint=False)
        assert {"frame", "header", "fallback", "seasonal_buffer", "solver_blocks",
                "trend_pairs", "monitor_m2", "points"} <= seen  # fmt: skip


# --------------------------------------------------------------------------
# cross-process supervision
# --------------------------------------------------------------------------


class TestRouterSupervision:
    def test_health_on_a_healthy_cluster(self, tmp_path):
        data = fleet_data(8, length=PERIOD * 2)
        cluster = ClusterSpec.for_root(engine_spec(), tmp_path, 2)
        with ShardRouter(cluster) as router:
            router.ingest(data)
            health = router.health()
            assert sorted(health) == router.shard_ids
            for shard in health.values():
                assert shard.state == "up"
                assert isinstance(shard.pid, int)
                assert shard.restarts == 0
                assert shard.consecutive_failures == 0
                assert shard.last_error is None
                assert shard.quarantined_keys == ()
            total = sum(s.points_confirmed for s in health.values())
            assert total == 8 * PERIOD * 2
            assert router.stats(allow_partial=True).down_shards == ()

    def test_transient_errors_retry_in_place(self, tmp_path):
        """Two injected ENOSPC replies, then success -- same worker, and
        the retried batch is bit-identical to the uninterrupted twin."""
        data = fleet_data(8, length=PERIOD * 4)
        reference = MultiSeriesEngine.from_spec(engine_spec())
        cluster = ClusterSpec.for_root(engine_spec(), tmp_path, 2)
        victim = victim_shard(cluster, data)
        router = ShardRouter(
            cluster,
            retry=RetryPolicy(attempts=3, base_delay=0.01),
            fault_plans={
                victim: [
                    FaultInjector(
                        point="wal.append.before",
                        action="raise",
                        after=2,
                        times=2,
                    )
                ]
            },
        )
        try:
            pid_before = router.health()[victim].pid
            first = slice_batch(data, 0, PERIOD * 2)
            second = slice_batch(data, PERIOD * 2, PERIOD * 4)
            assert_results_identical(
                router.ingest(first), reference.ingest_columnar(first), "warm"
            )
            # Appends 2 and 3 fail with ENOSPC; the second retry succeeds.
            assert_results_identical(
                router.ingest(second),
                reference.ingest_columnar(second),
                "retried batch",
            )
            health = router.health()[victim]
            assert health.pid == pid_before  # never died, never failed over
            assert health.restarts == 0
            assert health.state == "up"
            assert (
                router.stats().points_total
                == reference.fleet_stats().points_total
            )
        finally:
            router.close(checkpoint=False)

    def test_torn_append_retries_without_double_apply(self, tmp_path):
        """A torn WAL write is retried behind a checkpoint that discards
        the ambiguous half-frame -- totals stay exact."""
        data = fleet_data(8, length=PERIOD * 4)
        reference = MultiSeriesEngine.from_spec(engine_spec())
        cluster = ClusterSpec.for_root(engine_spec(), tmp_path, 2)
        victim = victim_shard(cluster, data)
        router = ShardRouter(
            cluster,
            retry=RetryPolicy(attempts=3, base_delay=0.01),
            fault_plans={
                victim: [
                    FaultInjector(
                        point="wal.append.torn", action="torn", after=2
                    )
                ]
            },
        )
        try:
            for start in range(0, PERIOD * 4, PERIOD * 2):
                batch = slice_batch(data, start, start + PERIOD * 2)
                assert_results_identical(
                    router.ingest(batch),
                    reference.ingest_columnar(batch),
                    f"batch@{start}",
                )
            assert router.health()[victim].restarts == 0
            assert (
                router.stats().points_total
                == reference.fleet_stats().points_total
            )
        finally:
            router.close(checkpoint=False)

    def test_retry_disabled_surfaces_the_transient_error(self, tmp_path):
        data = fleet_data(6, length=PERIOD * 2)
        cluster = ClusterSpec.for_root(engine_spec(), tmp_path, 2)
        victim = victim_shard(cluster, data)
        router = ShardRouter(
            cluster,
            retry=None,
            fault_plans={
                victim: [
                    FaultInjector(point="wal.append.before", action="raise")
                ]
            },
        )
        try:
            with pytest.raises(ShardingError, match="retry disabled"):
                router.ingest(data)
        finally:
            router.close(checkpoint=False)

    WARM_BATCHES = 3

    @pytest.mark.parametrize(
        ("point", "action", "expect_survived", "expect_cause"),
        [
            ("wal.append.before", "sigkill", False, "crash"),
            ("wal.append.after", "sigkill", True, "crash"),
            (WORKER_RECV, "sigkill", False, "crash"),
            (WORKER_REPLY, "sigkill", True, "crash"),
            (WORKER_RECV, "hang", False, "hang"),
            (WORKER_REPLY, "hang", True, "hang"),
            (WORKER_RECV, "drop", False, "hang"),
            (WORKER_REPLY, "drop", True, "hang"),
        ],
    )
    def test_fault_matrix_against_uninterrupted_twin(
        self, tmp_path, point, action, expect_survived, expect_cause
    ):
        """{boundary x injector}: the survived verdict, the failure cause
        and the recovered stream must all match what the boundary implies.
        A drop (lost confirmation) and a hang both surface through the
        watchdog; state survival depends only on whether the boundary
        sits before or after the WAL append."""
        data = fleet_data(12)
        reference = MultiSeriesEngine.from_spec(engine_spec())
        cluster = ClusterSpec.for_root(engine_spec(), tmp_path, 2)
        victim = victim_shard(cluster, data)
        router = ShardRouter(
            cluster,
            request_timeout=2.0,  # the watchdog deadline for hang/drop
            fault_plans={
                victim: [
                    FaultInjector(
                        point=point,
                        action=action,
                        after=self.WARM_BATCHES + 1,
                        duration=45.0,
                    )
                ]
            },
        )
        try:
            step = PERIOD * 2
            for index in range(self.WARM_BATCHES):
                batch = slice_batch(data, index * step, (index + 1) * step)
                router.ingest(batch)
                reference.ingest_columnar(batch)

            tail = slice_batch(data, self.WARM_BATCHES * step, LENGTH)
            with pytest.raises(ShardFailoverError) as error:
                router.ingest(tail)
            assert error.value.shard_id == victim
            assert error.value.batch_survived is expect_survived
            assert error.value.cause == expect_cause

            reference.ingest_columnar(tail)
            if not expect_survived:
                router.ingest(
                    {
                        key: values
                        for key, values in tail.items()
                        if router.shard_of(key) == victim
                    }
                )
            health = router.health()[victim]
            assert health.restarts == 1
            assert health.last_failure_cause == expect_cause
            stats = router.stats()
            fleet = reference.fleet_stats()
            assert stats.points_total == fleet.points_total
            assert stats.anomalies_total == fleet.anomalies_total
            victim_key = next(
                key for key in data if router.shard_of(key) == victim
            )
            survivor_key = next(
                key for key in data if router.shard_of(key) != victim
            )
            for key in (victim_key, survivor_key):
                assert np.array_equal(
                    router.forecast(key, PERIOD),
                    reference.forecast(key, PERIOD),
                ), f"{point}/{action}: forecast diverged for {key!r}"
        finally:
            router.close(checkpoint=False)

    def test_allow_partial_reports_the_failed_shards_keys(self, tmp_path):
        """Degraded ingest: a mid-batch death does not raise; the result
        names exactly the victim's keys and whether their state survived."""
        data = fleet_data(12)
        reference = MultiSeriesEngine.from_spec(engine_spec())
        cluster = ClusterSpec.for_root(engine_spec(), tmp_path, 2)
        victim = victim_shard(cluster, data)
        router = ShardRouter(
            cluster,
            fault_plans={
                victim: [
                    FaultInjector(point="wal.append.after", action="sigkill")
                ]
            },
        )
        try:
            degraded = router.ingest(data, allow_partial=True)
            assert isinstance(degraded, DegradedResult)
            assert not degraded.complete
            assert degraded.down_shards == ()
            assert degraded.failovers == {victim: True}
            assert set(degraded.skipped_keys) == {
                key for key in data if router.shard_of(key) == victim
            }
            # Surviving shards' slices are in the combined result.
            expected = reference.ingest_columnar(data)
            for key in data:
                if key in set(degraded.skipped_keys):
                    continue
                column = list(data).index(key)
                ours = degraded.result.value.reshape(LENGTH, len(data))
                theirs = expected.value.reshape(LENGTH, len(data))
                assert np.array_equal(
                    ours[:, column], theirs[:, column], equal_nan=True
                )
            # The victim's state survived into the WAL: no re-send, and
            # the fleet totals already agree with the twin.
            assert (
                router.stats().points_total
                == reference.fleet_stats().points_total
            )
        finally:
            router.close(checkpoint=False)

    def test_circuit_breaker_trips_and_manual_failover_resets(self, tmp_path):
        """A persistent crash loop exhausts the failover budget, marks the
        shard down, serves degraded -- and one operator failover (with the
        fault gone) brings everything back."""
        data = fleet_data(4, length=PERIOD * 2)
        cluster = ClusterSpec.for_root(engine_spec(), tmp_path, 1)
        (shard_id,) = [shard.shard_id for shard in cluster.shards]
        router = ShardRouter(
            cluster,
            circuit_threshold=2,
            fault_plans={
                shard_id: [
                    FaultInjector(
                        point="wal.append.before",
                        action="sigkill",
                        times=0,
                        persist=True,  # the replacement dies the same way
                    )
                ]
            },
        )
        try:
            with pytest.raises(ShardFailoverError) as first:
                router.ingest(data)
            assert first.value.batch_survived is False

            with pytest.raises(ShardDownError) as second:
                router.ingest(data)
            assert second.value.shard_id == shard_id
            assert set(second.value.skipped_keys) == set(data)

            health = router.health()[shard_id]
            assert health.state == "down"
            assert health.pid is None
            assert health.restarts == 1  # the one failover before the trip

            # Degraded mode serves around the hole and names it.
            degraded = router.ingest(data, allow_partial=True)
            assert isinstance(degraded, DegradedResult)
            assert degraded.down_shards == (shard_id,)
            assert set(degraded.skipped_keys) == set(data)
            partial = router.stats(allow_partial=True)
            assert partial.down_shards == (shard_id,)
            assert partial.series_total == 0
            assert router.keys(allow_partial=True)[shard_id] is None
            with pytest.raises(ShardDownError):
                router.stats()

            # Operator failover clears the breaker AND the armed fault.
            report = router.failover(shard_id)
            assert report.shard_id == shard_id
            health = router.health()[shard_id]
            assert health.state == "up"
            assert health.restarts == 2
            router.ingest(data)
            assert router.stats().points_total == 4 * PERIOD * 2
        finally:
            router.close(checkpoint=False)

    def test_unexpected_worker_error_is_a_reply_not_a_death(self, tmp_path):
        """Satellite fix: an unexpected exception inside the worker loop
        must reply ``error`` (kind, message, traceback) and keep serving,
        not kill the worker and burn a request timeout."""
        data = fleet_data(4, length=PERIOD * 2)
        cluster = ClusterSpec.for_root(engine_spec(), tmp_path, 1)
        (shard_id,) = [shard.shard_id for shard in cluster.shards]
        with ShardRouter(cluster) as router:
            worker = router._workers[shard_id]
            with pytest.raises(ValueError, match="unknown worker command"):
                router._request(worker, "definitely-not-a-command", None)
            # Same worker, still serving; the error cost no failover.
            router.ingest(data)
            health = router.health()[shard_id]
            assert health.restarts == 0
            assert health.consecutive_failures == 0
            assert router.stats().points_total == 4 * PERIOD * 2

    def test_router_surfaces_quarantined_keys_in_health(self, tmp_path):
        """A corrupted shard store comes up degraded under the router's
        default ``quarantine`` policy -- health names the lost keys --
        while ``recovery='strict'`` refuses to start at all."""
        data = fleet_data(8, length=PERIOD * 4)
        cluster = ClusterSpec.for_root(engine_spec(), tmp_path, 2)
        with ShardRouter(cluster) as router:
            router.ingest(data)
        # Corrupt one cohort segment of the first shard that holds any.
        victim_root = next(
            shard
            for shard in cluster.shards
            if read_manifest_json(tmp_path / shard.shard_id)["cohorts"]
        )
        manifest = read_manifest_json(tmp_path / victim_root.shard_id)
        bad = manifest["cohorts"][0]
        bad_keys = set(decode_manifest_keys(bad["keys"]))
        flip_byte(
            tmp_path / victim_root.shard_id / "segments" / bad["segment"]
        )

        with pytest.raises(WorkerCrashError):
            ShardRouter(cluster, recovery="strict", spawn_timeout=60.0)

        with ShardRouter(cluster) as router:  # default: quarantine
            health = router.health()[victim_root.shard_id]
            assert health.state == "degraded"
            assert set(health.quarantined_keys) == bad_keys
            stats = router.stats()
            assert stats.series_total == len(data) - len(bad_keys)
            surviving = {
                key
                for keys in router.keys().values()
                for key in keys
            }
            assert surviving == set(data) - bad_keys
