"""Sharding-tier tests: hash ring, cluster spec, router, failover oracle.

Two tiers of evidence here:

* process-free unit tests of the routing math (:class:`ConsistentHashRing`
  determinism, balance, minimal remap) and the declarative cluster layer
  (:class:`ClusterSpec` round-trips and validation);
* cross-process integration tests that spawn real workers: the fan-out /
  fan-in path must be **bit-identical** to a single
  :class:`MultiSeriesEngine` fed the same batches, and the failover
  oracle SIGKILLs a worker (a real signal, at an injected durability
  boundary) and asserts the replacement recovers exactly the surviving
  WAL prefix -- ``batch_survived`` must match what the kill point implies.

Worker fleets are kept tiny (2-4 shards, dozens of series, period 8) so
the whole module stays in tier-1 time budgets.
"""

import json
import os
import signal
import time
from pathlib import Path

import numpy as np
import pytest

from repro.durability import DirectoryCheckpointStore, StoreLockedError
from repro.durability.format import decode_wal_record
from repro.faults import WORKER_REPLY, FaultInjector
from repro.sharding import (
    ClusterSpec,
    ConsistentHashRing,
    ShardFailoverError,
    ShardRouter,
    ShardSpec,
    ShardingError,
    WorkerCrashError,
)
from repro.specs import EngineSpec
from repro.streaming import MultiSeriesEngine

from tests.conftest import make_seasonal_series

PERIOD = 8
INIT = 2 * PERIOD
LENGTH = PERIOD * 9

RESULT_FIELDS = (
    "index",
    "value",
    "trend",
    "seasonal",
    "residual",
    "anomaly_score",
    "is_anomaly",
    "detection_residual",
    "live",
)


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


def assert_results_identical(actual, expected, context=""):
    for field in RESULT_FIELDS:
        ours, theirs = getattr(actual, field), getattr(expected, field)
        equal_nan = ours.dtype.kind == "f"  # warming rows carry NaN
        assert np.array_equal(
            ours, theirs, equal_nan=equal_nan
        ), f"{context}: field {field!r} diverged"


# --------------------------------------------------------------------------
# routing math (no processes)
# --------------------------------------------------------------------------


class TestConsistentHashRing:
    SHARDS = ["shard-000", "shard-001", "shard-002", "shard-003"]

    def test_deterministic_across_instances(self):
        """Same members, same routing -- regardless of insertion order."""
        forward = ConsistentHashRing(self.SHARDS)
        backward = ConsistentHashRing(reversed(self.SHARDS))
        keys = [f"key-{index}" for index in range(500)]
        assert [forward.shard_for(key) for key in keys] == [
            backward.shard_for(key) for key in keys
        ]

    def test_routes_into_membership(self):
        ring = ConsistentHashRing(self.SHARDS)
        assert len(ring) == 4
        for key in ("alpha", b"raw", 17, ("tuple", 1), None):
            assert ring.shard_for(key) in ring

    def test_load_is_roughly_balanced(self):
        ring = ConsistentHashRing(self.SHARDS)
        counts = {shard: 0 for shard in self.SHARDS}
        for index in range(4000):
            counts[ring.shard_for(f"metric-{index}")] += 1
        # 64 virtual nodes keep every shard within a loose factor of fair
        # share; the bound is intentionally slack -- this guards against
        # gross dispersion bugs, not statistical perfection.
        assert min(counts.values()) > 4000 / 4 / 3
        assert max(counts.values()) < 4000 / 4 * 3

    def test_add_shard_remaps_only_onto_the_new_shard(self):
        before = ConsistentHashRing(self.SHARDS)
        keys = [f"key-{index}" for index in range(1000)]
        owners = {key: before.shard_for(key) for key in keys}
        before.add_shard("shard-new")
        moved = 0
        for key in keys:
            owner = before.shard_for(key)
            if owner != owners[key]:
                assert owner == "shard-new"  # moves only land on the newcomer
                moved += 1
        assert 0 < moved < len(keys) / 2  # ~1/5 of the space, not a reshuffle

    def test_remove_shard_strands_no_keys_and_moves_only_its_own(self):
        ring = ConsistentHashRing(self.SHARDS)
        keys = [f"key-{index}" for index in range(1000)]
        owners = {key: ring.shard_for(key) for key in keys}
        ring.remove_shard("shard-001")
        for key in keys:
            owner = ring.shard_for(key)
            assert owner != "shard-001"
            if owners[key] != "shard-001":
                assert owner == owners[key]  # unaffected keys stay put

    def test_bool_and_int_keys_coincide(self):
        """``True == 1`` as dict keys, so they must share a shard."""
        ring = ConsistentHashRing(self.SHARDS)
        assert ring.shard_for(True) == ring.shard_for(1)
        assert ring.shard_for(False) == ring.shard_for(0)

    def test_equal_keys_share_a_shard_whatever_their_type(self):
        """``{1: ..., 1.0: ..., True: ...}`` is one engine key: one shard."""
        ring = ConsistentHashRing(self.SHARDS)
        for key in range(-50, 200):
            owner = ring.shard_for(key)
            # each form first on a ring of its own: no memo to lean on
            assert ConsistentHashRing(self.SHARDS).shard_for(float(key)) == owner
            assert ring.shard_for(float(key)) == owner
        assert ring.shard_for(1.0) == ring.shard_for(True) == ring.shard_for(1)
        assert ring.shard_for(0.0) == ring.shard_for(False) == ring.shard_for(-0.0)
        # a float that equals no int keeps a route of its own
        assert ConsistentHashRing(self.SHARDS).shard_for(1.5) in ring
        for odd in (float("inf"), float("nan")):
            assert ring.shard_for(odd) in ring

    def test_memo_answers_what_a_fresh_ring_answers(self):
        """Hits and misses agree with an unmemoised ring across membership
        changes: the memo is dropped whole when a shard joins or leaves."""
        keys = [f"key-{index}" for index in range(300)] + list(range(100))
        ring = ConsistentHashRing(self.SHARDS)
        members = list(self.SHARDS)

        def fresh_owners():
            return [ConsistentHashRing(members).shard_for(key) for key in keys]

        for change in (None, ("add", "shard-new"), ("remove", "shard-001"),
                       ("remove", "shard-new"), ("add", "shard-001")):
            if change is not None:
                verb, shard = change
                getattr(ring, f"{verb}_shard")(shard)
                members.remove(shard) if verb == "remove" else members.append(shard)
            expected = fresh_owners()
            assert [ring.shard_for(key) for key in keys] == expected  # misses
            assert [ring.shard_for(key) for key in keys] == expected  # hits
            parts = ring.assignments(keys)
            assert all(
                expected[position] == shard
                for shard, positions in parts.items()
                for position in positions
            )

    def test_assignments_partition_positions_in_order(self):
        ring = ConsistentHashRing(self.SHARDS)
        keys = [f"key-{index}" for index in range(100)]
        parts = ring.assignments(keys)
        seen = sorted(
            position for positions in parts.values() for position in positions
        )
        assert seen == list(range(100))
        for shard, positions in parts.items():
            assert positions == sorted(positions)  # input order preserved
            for position in positions:
                assert ring.shard_for(keys[position]) == shard

    def test_membership_validation(self):
        ring = ConsistentHashRing(["a"])
        with pytest.raises(ValueError, match="already"):
            ring.add_shard("a")
        with pytest.raises(ValueError, match="not on the ring"):
            ring.remove_shard("b")
        with pytest.raises(ValueError, match="empty ring"):
            ConsistentHashRing([]).shard_for("x")
        with pytest.raises(ValueError, match="virtual_nodes"):
            ConsistentHashRing(["a"], virtual_nodes=0)


class TestClusterSpec:
    def test_for_root_lays_out_shards(self, tmp_path):
        cluster = ClusterSpec.for_root(engine_spec(), tmp_path, 4)
        assert [shard.shard_id for shard in cluster.shards] == [
            "shard-000",
            "shard-001",
            "shard-002",
            "shard-003",
        ]
        assert all(
            shard.store_path == str(tmp_path / shard.shard_id)
            for shard in cluster.shards
        )

    def test_json_round_trip(self, tmp_path):
        cluster = ClusterSpec.for_root(engine_spec(), tmp_path, 2, virtual_nodes=16)
        clone = ClusterSpec.from_json(cluster.to_json())
        assert clone == cluster
        assert json.loads(cluster.to_json())["virtual_nodes"] == 16

    def test_duplicate_shard_ids_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="duplicate shard"):
            ClusterSpec(
                engine=engine_spec(),
                shards=(
                    ShardSpec("a", str(tmp_path / "one")),
                    ShardSpec("a", str(tmp_path / "two")),
                ),
            )

    def test_duplicate_store_paths_rejected(self, tmp_path):
        """Two workers on one store would fight over its ownership lock."""
        with pytest.raises(ValueError, match="store"):
            ClusterSpec(
                engine=engine_spec(),
                shards=(
                    ShardSpec("a", str(tmp_path / "same")),
                    ShardSpec("b", str(tmp_path / "same")),
                ),
            )

    def test_shard_lookup(self, tmp_path):
        cluster = ClusterSpec.for_root(engine_spec(), tmp_path, 2)
        assert cluster.shard("shard-001").store_path.endswith("shard-001")
        with pytest.raises(KeyError):
            cluster.shard("shard-042")


# --------------------------------------------------------------------------
# cross-process integration
# --------------------------------------------------------------------------


class TestShardRouterParity:
    """The sharded answer must equal the single-engine answer, bit for bit."""

    def test_columnar_ingest_matches_single_engine(self, tmp_path):
        data = fleet_data(24)
        reference = MultiSeriesEngine.from_spec(engine_spec())
        cluster = ClusterSpec.for_root(engine_spec(), tmp_path, 4)
        with ShardRouter(cluster) as router:
            for start in range(0, LENGTH, PERIOD * 3):
                batch = slice_batch(data, start, start + PERIOD * 3)
                sharded = router.ingest(batch)
                expected = reference.ingest_columnar(batch)
                assert_results_identical(sharded, expected, f"batch@{start}")

            stats = router.stats()
            fleet = reference.fleet_stats()
            assert stats.series_total == fleet.series_total
            assert stats.series_live == fleet.series_live
            assert stats.points_total == fleet.points_total
            assert stats.anomalies_total == fleet.anomalies_total
            assert sorted(stats.shards) == router.shard_ids

            shard_keys = router.keys()
            union = sorted(key for keys in shard_keys.values() for key in keys)
            assert union == sorted(data)
            for shard_id, keys in shard_keys.items():
                assert all(router.shard_of(key) == shard_id for key in keys)

            for key in list(data)[:4]:
                assert np.array_equal(
                    router.forecast(key, PERIOD), reference.forecast(key, PERIOD)
                )

    def test_row_batches_and_process_match(self, tmp_path):
        data = fleet_data(8, length=PERIOD * 6)
        reference = MultiSeriesEngine.from_spec(engine_spec())
        cluster = ClusterSpec.for_root(engine_spec(), tmp_path, 2)
        with ShardRouter(cluster) as router:
            head = slice_batch(data, 0, PERIOD * 6 - 2)
            router.ingest(head)
            reference.ingest_columnar(head)

            keys = list(data)
            round_values = np.array([data[key][-2] for key in keys])
            sharded = router.ingest((keys, round_values))
            expected = reference.ingest_columnar((keys, round_values))
            assert_results_identical(sharded, expected, "parallel arrays")

            row_result = router.ingest(
                [(key, data[key][-1]) for key in keys]
            )
            row_expected = reference.ingest_columnar(
                [(key, data[key][-1]) for key in keys]
            )
            assert_results_identical(row_result, row_expected, "row iterable")

            probe = make_seasonal_series(1, PERIOD, seed=999)["values"][0]
            for key in keys[:4]:
                assert router.process(key, probe) == reference.process(key, probe)

    def test_a_malformed_row_ends_its_batch_the_same_way_everywhere(self, tmp_path):
        """The row ahead of it applies, it raises, the row behind it does
        not apply -- in one engine, across a cluster, and after reopening
        either: what was journaled is the convertible prefix."""
        rows = [("a", 1.0), ("b", "x"), ("c", 2.0)]
        message = "could not convert string to float: 'x'"
        engine = MultiSeriesEngine.open(tmp_path / "single", spec=engine_spec())
        with pytest.raises(ValueError, match=message):
            engine.ingest(rows)
        assert engine.keys() == ["a"] and engine.points_total() == 1
        store = DirectoryCheckpointStore(tmp_path / "single")
        journaled = [
            decode_wal_record(payload, part)
            for part in store.read_manifest()["wal"]
            for payload, _end in store.wal_frames(part)
        ]
        assert [(kind, keys, values.tolist()) for kind, keys, values in journaled] == [
            ("rows", ["a"], [1.0])
        ]
        reopened = MultiSeriesEngine.open(store)  # the first one never closed
        assert reopened.keys() == ["a"] and reopened.points_total() == 1
        reopened.close(checkpoint=False)

        cluster = ClusterSpec.for_root(engine_spec(), tmp_path / "cluster", 2)
        for _session in ("live", "restarted"):
            with ShardRouter(cluster) as router:
                if _session == "live":
                    with pytest.raises(ValueError, match=message):
                        router.ingest(rows)
                shard_keys = router.keys()
                assert sorted(sum(shard_keys.values(), [])) == ["a"]
                assert router.stats().points_total == 1

    def test_restart_recovers_from_stores(self, tmp_path):
        data = fleet_data(12, length=PERIOD * 6)
        cluster = ClusterSpec.for_root(engine_spec(), tmp_path, 2)
        reference = MultiSeriesEngine.from_spec(engine_spec())
        reference.ingest_columnar(data)
        with ShardRouter(cluster) as router:
            router.ingest(data)
        # A second router over the same cluster spec resumes the fleet.
        with ShardRouter(cluster) as router:
            stats = router.stats()
            assert stats.points_total == reference.fleet_stats().points_total
            for key in list(data)[:3]:
                assert np.array_equal(
                    router.forecast(key, PERIOD), reference.forecast(key, PERIOD)
                )

    def test_unknown_key_error_names_the_shard(self, tmp_path):
        cluster = ClusterSpec.for_root(engine_spec(), tmp_path, 2)
        with ShardRouter(cluster) as router:
            with pytest.raises(KeyError, match="shard"):
                router.forecast("never-ingested", PERIOD)


class TestFailoverOracle:
    """SIGKILL a worker at a durability boundary; the replacement must
    recover exactly the surviving WAL prefix -- and the router's
    ``batch_survived`` verdict must match what the boundary implies."""

    WARM_BATCHES = 3

    @pytest.mark.parametrize(
        ("kill_point", "expect_survived"),
        [
            ("wal.append.before", False),  # death before the record exists
            ("wal.append.torn", False),  # partial record: truncated on replay
            ("wal.append.after", True),  # record durable before state moved
        ],
    )
    def test_kill_point_oracle(self, tmp_path, kill_point, expect_survived):
        data = fleet_data(24)
        reference = MultiSeriesEngine.from_spec(engine_spec())
        cluster = ClusterSpec.for_root(engine_spec(), tmp_path, 2)
        victim = ConsistentHashRing(
            [shard.shard_id for shard in cluster.shards]
        ).shard_for(next(iter(data)))
        router = ShardRouter(
            cluster,
            fault_plans={
                victim: [
                    FaultInjector(
                        point=kill_point,
                        action="sigkill",
                        after=self.WARM_BATCHES + 1,
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

            # Surviving shards applied their slices; re-send only the dead
            # shard's keys when its slice missed the WAL.
            reference.ingest_columnar(tail)
            if not expect_survived:
                router.ingest(
                    {
                        key: values
                        for key, values in tail.items()
                        if router.shard_of(key) == victim
                    }
                )

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
                    router.forecast(key, PERIOD), reference.forecast(key, PERIOD)
                ), f"{kill_point}: forecast diverged for {key!r}"
        finally:
            router.close(checkpoint=False)

    def test_kill_during_checkpoint_preserves_the_batch(self, tmp_path):
        """Death at the manifest swap: WAL already carries the batch."""
        data = fleet_data(16)
        cluster = ClusterSpec.for_root(engine_spec(), tmp_path, 2)
        victim = cluster.shards[0].shard_id
        router = ShardRouter(
            cluster,
            checkpoint_interval=1,  # every batch checkpoints
            fault_plans={
                victim: [
                    FaultInjector(
                        point="manifest.swap.tmp", action="sigkill", after=3
                    )
                ]
            },
        )
        try:
            reference = MultiSeriesEngine.from_spec(engine_spec())
            step = PERIOD * 2
            survived_verdicts = []
            for index in range(4):
                batch = slice_batch(data, index * step, (index + 1) * step)
                reference.ingest_columnar(batch)
                try:
                    router.ingest(batch)
                except ShardFailoverError as error:
                    survived_verdicts.append(error.batch_survived)
            assert survived_verdicts == [True]  # exactly one death, batch kept
            stats = router.stats()
            assert stats.points_total == reference.fleet_stats().points_total
        finally:
            router.close(checkpoint=False)

    def test_auto_recover_off_surfaces_the_crash(self, tmp_path):
        data = fleet_data(8, length=PERIOD * 4)
        cluster = ClusterSpec.for_root(engine_spec(), tmp_path, 2)
        victim = cluster.shards[0].shard_id
        router = ShardRouter(
            cluster,
            auto_recover=False,
            fault_plans={
                victim: [
                    FaultInjector(
                        point="wal.append.before", action="sigkill", after=1
                    )
                ]
            },
        )
        try:
            with pytest.raises(WorkerCrashError, match="auto_recover is off"):
                router.ingest(data)
            report = router.failover(victim)
            assert report.shard_id == victim
            assert report.recovered_points == 0
            # Surviving shards applied their slices before the crash
            # surfaced; only the dead shard's keys need re-sending.
            router.ingest(
                {
                    key: values
                    for key, values in data.items()
                    if router.shard_of(key) == victim
                }
            )
            assert router.stats().points_total == 8 * PERIOD * 4
        finally:
            router.close(checkpoint=False)

    def test_failover_refuses_a_live_worker(self, tmp_path):
        cluster = ClusterSpec.for_root(engine_spec(), tmp_path, 2)
        with ShardRouter(cluster) as router:
            with pytest.raises(ShardingError, match="alive"):
                router.failover(cluster.shards[0].shard_id)


class TestElasticity:
    """Live membership changes: drain-and-adopt must not bend the stream."""

    def test_add_and_remove_shard_keep_bit_identity(self, tmp_path):
        data = fleet_data(24)
        reference = MultiSeriesEngine.from_spec(engine_spec())
        cluster = ClusterSpec.for_root(engine_spec(), tmp_path, 3)
        cut = PERIOD * 6
        with ShardRouter(cluster) as router:
            head = slice_batch(data, 0, cut)
            router.ingest(head)
            reference.ingest_columnar(head)

            moved_in = router.add_shard(
                ShardSpec("shard-xyz", str(tmp_path / "xyz"))
            )
            # The count of series moved, not of bytes shipped.
            assert moved_in == sum(router.shard_of(key) == "shard-xyz" for key in data)
            assert 0 < moved_in < len(data)
            assert "shard-xyz" in router.shard_ids

            resident = sum(router.shard_of(key) == "shard-000" for key in data)
            moved_out = router.remove_shard("shard-000")
            assert moved_out == resident > 0
            assert "shard-000" not in router.shard_ids

            tail = slice_batch(data, cut, LENGTH)
            sharded = router.ingest(tail)
            expected = reference.ingest_columnar(tail)
            assert_results_identical(sharded, expected, "post-migration tail")

            stats = router.stats()
            assert stats.series_total == len(data)
            assert stats.points_total == reference.fleet_stats().points_total

    def test_remove_keeps_at_least_one_shard(self, tmp_path):
        cluster = ClusterSpec.for_root(engine_spec(), tmp_path, 2)
        with ShardRouter(cluster) as router:
            router.remove_shard("shard-000")
            with pytest.raises(ShardingError, match="last"):
                router.remove_shard("shard-001")

    def test_add_duplicate_shard_rejected(self, tmp_path):
        cluster = ClusterSpec.for_root(engine_spec(), tmp_path, 2)
        with ShardRouter(cluster) as router:
            with pytest.raises(ValueError):
                router.add_shard(
                    ShardSpec("shard-000", str(tmp_path / "elsewhere"))
                )


class TestFleetRequestsFanOut:
    """``checkpoint`` / ``stats`` / ``keys`` reach every worker before the
    router waits on any, and a shard that fails is supervised alone."""

    DELAY = 0.5

    def test_a_fleet_request_costs_the_slowest_shard_not_the_sum(self, tmp_path):
        data = fleet_data(16, length=PERIOD * 3)
        cluster = ClusterSpec.for_root(engine_spec(), tmp_path, 3)
        # Hit 1 of every worker's reply boundary is the ingest; the three
        # fleet requests that follow are each held back on every shard.
        slow = FaultInjector(
            point=WORKER_REPLY, action="delay", duration=self.DELAY, after=2, times=3
        )
        router = ShardRouter(
            cluster, fault_plans={shard.shard_id: [slow] for shard in cluster.shards}
        )
        try:
            router.ingest(data)
            for request in (router.checkpoint, router.stats, router.keys):
                start = time.perf_counter()
                reply = request()
                elapsed = time.perf_counter() - start
                # one delay, not one per shard (3 x DELAY back to back)
                assert self.DELAY <= elapsed < 2 * self.DELAY, request.__name__
            assert sorted(reply) == router.shard_ids
            assert sorted(key for keys in reply.values() for key in keys) == sorted(data)
            assert all(h.restarts == 0 for h in router.health().values())
        finally:
            router.close(checkpoint=False)

    def test_a_worker_killed_mid_checkpoint_is_failed_over_alone(self, tmp_path):
        data = fleet_data(16, length=PERIOD * 4)
        cluster = ClusterSpec.for_root(engine_spec(), tmp_path, 3)
        victim = cluster.shards[1].shard_id
        router = ShardRouter(
            cluster,
            fault_plans={
                # swap 1 is the empty store's first manifest, at open
                victim: [
                    FaultInjector(point="manifest.swap.tmp", action="sigkill", after=2)
                ]
            },
        )
        try:
            reference = MultiSeriesEngine.from_spec(engine_spec())
            router.ingest(data)
            reference.ingest_columnar(data)
            owned = {
                shard_id: len(keys) for shard_id, keys in router.keys().items()
            }
            assert all(owned.values())
            # The victim dies with its segments written and its manifest
            # not swapped; it is failed over and the command re-sent once.
            summaries = router.checkpoint()
            assert sorted(summaries) == router.shard_ids
            for shard_id, summary in summaries.items():
                assert summary.series_total == owned[shard_id]
                assert summary.series_written == owned[shard_id]
            health = router.health()
            assert {s: h.restarts for s, h in health.items()} == {
                shard_id: int(shard_id == victim) for shard_id in router.shard_ids
            }
            assert all(h.state == "up" for h in health.values())
            assert router.stats().points_total == reference.fleet_stats().points_total
            tail = {
                key: make_seasonal_series(PERIOD * 5, PERIOD, seed=700 + index)[
                    "values"
                ][PERIOD * 4 :]
                for index, key in enumerate(data)
            }
            assert_results_identical(
                router.ingest(tail), reference.ingest_columnar(tail), "after failover"
            )
        finally:
            router.close(checkpoint=False)


class TestSingleKeyRequests:
    """A one-series read fails over like any read, and a point is a
    ``1 x 1`` batch: journaled, applied and failed over like one."""

    def test_a_forecast_after_the_only_worker_is_killed_equals_the_uninterrupted_run(
        self, tmp_path
    ):
        data = fleet_data(6, length=PERIOD * 5)
        router = ShardRouter(ClusterSpec.for_root(engine_spec(), tmp_path, 1))
        try:
            reference = MultiSeriesEngine.from_spec(engine_spec())
            router.ingest(data)
            reference.ingest_columnar(data)
            (shard_id,) = router.shard_ids
            worker = router._workers[shard_id].process
            os.kill(worker.pid, signal.SIGKILL)
            worker.join()
            for key in data:
                assert (
                    router.forecast(key, PERIOD).tobytes()
                    == reference.forecast(key, PERIOD).tobytes()
                ), key
            assert router.health()[shard_id].restarts == 1
            probe = make_seasonal_series(1, PERIOD, seed=998)["values"][0]
            for key in list(data)[:3]:
                assert router.process(key, probe) == reference.process(key, probe)
        finally:
            router.close(checkpoint=False)

    def test_a_point_that_is_not_a_number_is_refused_before_it_is_journaled(
        self, tmp_path
    ):
        data = fleet_data(3, length=PERIOD * 3)
        cluster = ClusterSpec.for_root(engine_spec(), tmp_path, 1)
        router = ShardRouter(cluster)
        try:
            router.ingest(data)
            wal = Path(cluster.shards[0].store_path) / "wal"
            journaled = {path.name: path.read_bytes() for path in wal.iterdir()}
            with pytest.raises(ValueError):
                router.process("series-000", "not a number")
            assert {path.name: path.read_bytes() for path in wal.iterdir()} == journaled
            assert router.stats().points_total == 3 * PERIOD * 3
        finally:
            router.close(checkpoint=False)


class TestStoreOwnership:
    """The exclusive lease is what makes checkpoint handoff safe."""

    def test_live_worker_store_is_locked_against_outsiders(self, tmp_path):
        cluster = ClusterSpec.for_root(engine_spec(), tmp_path, 2)
        with ShardRouter(cluster) as router:
            store_path = cluster.shards[0].store_path
            with pytest.raises(StoreLockedError) as error:
                DirectoryCheckpointStore(store_path, exclusive=True)
            assert error.value.holder["pid"] != os.getpid()
            router.ingest(fleet_data(4, length=PERIOD * 2))  # still serving

    def test_second_router_on_same_stores_fails_to_start(self, tmp_path):
        cluster = ClusterSpec.for_root(engine_spec(), tmp_path, 2)
        with ShardRouter(cluster):
            with pytest.raises(WorkerCrashError):
                ShardRouter(cluster, spawn_timeout=30.0)

    def test_dead_worker_lease_is_taken_over_by_failover(self, tmp_path):
        data = fleet_data(8, length=PERIOD * 4)
        cluster = ClusterSpec.for_root(engine_spec(), tmp_path, 2)
        victim = cluster.shards[0].shard_id
        router = ShardRouter(
            cluster,
            fault_plans={
                victim: [
                    FaultInjector(
                        point="wal.append.after", action="sigkill", after=2
                    )
                ]
            },
        )
        try:
            router.ingest(slice_batch(data, 0, PERIOD * 2))
            with pytest.raises(ShardFailoverError):
                router.ingest(slice_batch(data, PERIOD * 2, PERIOD * 4))
            # The SIGKILLed worker never released its lease -- the
            # replacement must have claimed it (dead-pid staleness), and
            # the shard serves again.
            assert router.stats().points_total == 8 * PERIOD * 4
        finally:
            router.close(checkpoint=False)
