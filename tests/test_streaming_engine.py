"""Tests for the multi-series streaming engine."""

import pickle
from dataclasses import replace

import numpy as np
import pytest

from repro.core import OneShotSTL
from repro.specs import DecomposerSpec, EngineSpec, PipelineSpec
from repro.streaming import MultiSeriesEngine, StreamingPipeline
from repro.streaming.engine import EngineRecord, SeriesStatus
from repro.streaming.pipeline import StreamRecord

from tests.conftest import make_seasonal_series
from tests.test_fleet_kernel import RESULT_FIELDS

PERIOD = 24
INIT = 4 * PERIOD


def make_fleet_data(n_series, length=PERIOD * 8):
    return {
        f"host-{index}": make_seasonal_series(length, PERIOD, seed=100 + index)[
            "values"
        ]
        for index in range(n_series)
    }


def interleaved_batches(data):
    """Yield one batch per timestamp, covering every key."""
    length = len(next(iter(data.values())))
    for position in range(length):
        yield [(key, values[position]) for key, values in data.items()]


class TestLazyInitialization:
    def test_warming_then_live(self):
        engine = MultiSeriesEngine.for_oneshotstl(PERIOD, shift_window=0)
        values = make_seasonal_series(PERIOD * 6, PERIOD, seed=3)["values"]
        statuses = [engine.process("m", float(value)).status for value in values]
        assert statuses[:INIT] == ["warming"] * INIT
        assert statuses[INIT:] == ["live"] * (values.size - INIT)
        assert engine.live_keys() == ["m"]

    def test_warming_records_carry_no_payload(self):
        engine = MultiSeriesEngine.for_oneshotstl(PERIOD, shift_window=0)
        record = engine.process("m", 1.0)
        assert record.record is None
        assert not record.is_anomaly

    def test_unknown_key_creates_series_lazily(self):
        engine = MultiSeriesEngine.for_oneshotstl(PERIOD, shift_window=0)
        assert len(engine) == 0
        engine.process("a", 0.0)
        engine.process("b", 0.0)
        assert len(engine) == 2
        assert "a" in engine and "b" in engine
        assert engine.keys() == ["a", "b"]

    def test_forecast_requires_live_series(self):
        engine = MultiSeriesEngine.for_oneshotstl(PERIOD, shift_window=0)
        engine.process("m", 1.0)
        with pytest.raises(RuntimeError):
            engine.forecast("m", 4)
        with pytest.raises(KeyError):
            engine.forecast("missing", 4)

    def test_nan_during_warmup_is_rejected_without_wedging_the_series(self):
        """Regression: a NaN warmup sample used to poison the window forever.

        The non-finite value must be rejected up front (not buffered), and
        the series must still be able to warm up and go live on the
        remaining finite values.
        """
        engine = MultiSeriesEngine.for_oneshotstl(PERIOD, shift_window=0)
        values = make_seasonal_series(PERIOD * 5, PERIOD, seed=21)["values"]
        engine.process("m", float(values[0]))
        with pytest.raises(ValueError, match="warming up.*non-finite"):
            engine.process("m", float("nan"))
        # The series is not wedged: finite values keep filling the window...
        statuses = [
            engine.process("m", float(value)).status for value in values[1:]
        ]
        assert statuses[-1] == "live"
        # ...and the rejected sample was never counted.
        assert engine.series_stats("m").points == values.size

    @pytest.mark.parametrize("rejected", [float("nan"), float("inf"), "x"])
    def test_rejected_first_observation_creates_no_key(self, rejected):
        """Regression: the key used to be registered before validation."""
        engine = MultiSeriesEngine.for_oneshotstl(PERIOD, shift_window=0)
        with pytest.raises(ValueError):
            engine.process("k", rejected)
        assert engine.keys() == [] and "k" not in engine and len(engine) == 0
        stats = engine.fleet_stats()
        assert (stats.series_total, stats.series_warming) == (0, 0)
        # The first *accepted* value starts an ordinary warm-up.
        values = make_seasonal_series(PERIOD * 5, PERIOD, seed=23)["values"]
        statuses = [engine.process("k", float(value)).status for value in values]
        assert statuses == ["warming"] * INIT + ["live"] * (values.size - INIT)
        assert engine.series_stats("k").points == values.size

    def test_rejected_first_observation_in_a_grid_creates_no_key(self, tmp_path):
        engine = MultiSeriesEngine.open(
            tmp_path / "store",
            spec=MultiSeriesEngine.for_oneshotstl(PERIOD, shift_window=0).spec,
        )
        with pytest.raises(ValueError):
            engine.ingest_grid(["a", "b"], np.array([[1.0, np.inf]]))
        # "a" was applied before the rejection, "b" never existed -- here,
        # in the next checkpoint's cohort, and after replaying the WAL.
        assert engine.keys() == ["a"]
        assert engine.fleet_stats().series_warming == 1
        assert engine.checkpoint().series_written == 1
        engine.close(checkpoint=False)
        with pytest.raises(ValueError):
            engine.ingest_grid(["c", "d"], np.array([[np.nan, 1.0]]))
        assert engine.keys() == ["a"]
        assert MultiSeriesEngine.open(tmp_path / "store").keys() == ["a"]

    def test_nan_while_live_is_imputed_not_rejected(self):
        engine = MultiSeriesEngine.for_oneshotstl(PERIOD, shift_window=0)
        values = make_seasonal_series(PERIOD * 5, PERIOD, seed=22)["values"]
        for value in values:
            engine.process("m", float(value))
        record = engine.process("m", float("nan"))
        assert record.status == "live"
        assert np.isfinite(record.record.value)


class TestBatchedIngestEquivalence:
    def test_matches_independent_pipelines(self):
        """Interleaved batched ingest must equal N hand-run pipelines exactly."""
        data = make_fleet_data(4)
        engine = MultiSeriesEngine.for_oneshotstl(PERIOD, shift_window=0)
        engine_records = {key: [] for key in data}
        for batch in interleaved_batches(data):
            for record in engine.ingest(batch):
                if record.status == "live":
                    engine_records[record.key].append(record.record)

        for key, values in data.items():
            pipeline = StreamingPipeline(OneShotSTL(PERIOD, shift_window=0))
            pipeline.initialize(values[:INIT])
            expected = pipeline.process_many(values[INIT:])
            assert engine_records[key] == expected

    def test_matches_with_shift_search_enabled(self):
        data = make_fleet_data(3, length=PERIOD * 7)
        engine = MultiSeriesEngine.for_oneshotstl(PERIOD, shift_window=10)
        engine_records = {key: [] for key in data}
        for batch in interleaved_batches(data):
            for record in engine.ingest(batch):
                if record.status == "live":
                    engine_records[record.key].append(record.record)
        for key, values in data.items():
            pipeline = StreamingPipeline(OneShotSTL(PERIOD, shift_window=10))
            pipeline.initialize(values[:INIT])
            assert engine_records[key] == pipeline.process_many(values[INIT:])

    def test_ingest_preserves_input_order(self):
        engine = MultiSeriesEngine.for_oneshotstl(PERIOD, shift_window=0)
        batch = [("a", 1.0), ("b", 2.0), ("a", 3.0)]
        records = engine.ingest(batch)
        assert [record.key for record in records] == ["a", "b", "a"]
        assert engine.series_stats("a").points == 2
        assert engine.series_stats("b").points == 1

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("kernel", [True, False], ids=["kernel", "scalar"])
    @pytest.mark.parametrize(
        "rows",
        [
            [("a", 1.0), ("a", 2.0), ("c", 1e308)],
            [("a", 1.0), ("c", 1e308), ("a", 2.0), ("b", 3.0)],
            [("c", 1e308), ("a", 1.0), ("a", 2.0)],
        ],
        ids=["rejected-last", "rejected-between", "rejected-first"],
    )
    def test_row_batch_applies_rows_in_input_order(self, rows, kernel):
        """A row batch is its rows fed one by one: a warm-up window that
        will not initialize (``c``'s last value) is rejected after exactly
        the rows ahead of it, on the kernel engine and its scalar twin."""

        def build():
            engine = MultiSeriesEngine.for_oneshotstl(4)
            engine.fleet_kernel_enabled = kernel
            rng = np.random.default_rng(3)
            for key, count in (("a", 20), ("b", 18), ("c", 15)):
                for value in rng.normal(size=count):
                    engine.process(key, float(value))
            return engine

        batched, single = build(), build()
        with pytest.raises(ValueError) as batched_error:
            batched.ingest(rows)
        for key, value in rows:
            try:
                single.process(key, value)
            except ValueError as error:
                assert str(error) == str(batched_error.value)
                break
        for key in ("a", "b", "c"):
            assert batched.series_stats(key).points == single.series_stats(key).points
        follow = np.random.default_rng(5).normal(size=(3, 2))
        got = batched.ingest_grid(["a", "b"], follow)
        want = single.ingest_grid(["a", "b"], follow)
        for field in RESULT_FIELDS:
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field

    def test_heterogeneous_spec_overrides(self):
        """Per-key configuration flows through ``EngineSpec.overrides``."""
        spec = EngineSpec(
            pipeline=PipelineSpec(
                DecomposerSpec("oneshotstl", {"period": PERIOD, "shift_window": 0})
            ),
            initialization_length=INIT,
            overrides={
                "slow": PipelineSpec(DecomposerSpec("online_stl", {"period": PERIOD}))
            },
        )
        engine = MultiSeriesEngine.from_spec(spec)
        data = make_fleet_data(1)["host-0"]
        for value in data:
            engine.process("slow", float(value))
            engine.process("fast", float(value))
        assert type(engine._series["slow"].pipeline.decomposer).__name__ == "OnlineSTL"
        # "fast" is a kernel column: its group runs the spec it resolved to
        group, _column = engine._absorbed["fast"]
        assert group.spec == spec.pipeline_for("fast")
        assert group.spec.decomposer.name == "oneshotstl"


class TestCheckpointing:
    def test_snapshot_restore_is_deterministic(self):
        data = make_fleet_data(3)
        engine = MultiSeriesEngine.for_oneshotstl(PERIOD, shift_window=0)
        batches = list(interleaved_batches(data))
        for batch in batches[: PERIOD * 6]:
            engine.ingest(batch)

        checkpoint = engine.snapshot()
        first_run = [engine.ingest(batch) for batch in batches[PERIOD * 6 :]]
        engine.restore(checkpoint)
        second_run = [engine.ingest(batch) for batch in batches[PERIOD * 6 :]]
        for first, second in zip(first_run, second_run):
            assert [r.record for r in first] == [r.record for r in second]

    def test_snapshot_is_isolated_from_later_ingest(self):
        engine = MultiSeriesEngine.for_oneshotstl(PERIOD, shift_window=0)
        values = make_seasonal_series(PERIOD * 6, PERIOD, seed=5)["values"]
        for value in values:
            engine.process("m", float(value))
        checkpoint = engine.snapshot()
        points_before = engine.series_stats("m").points
        engine.process("m", 1.0)
        engine.restore(checkpoint)
        assert engine.series_stats("m").points == points_before

    def test_checkpoint_round_trips_through_pickle(self):
        engine = MultiSeriesEngine.for_oneshotstl(PERIOD, shift_window=0)
        values = make_seasonal_series(PERIOD * 5, PERIOD, seed=6)["values"]
        for value in values:
            engine.process("m", float(value))
        blob = pickle.dumps(engine.snapshot())
        record_direct = engine.process("m", float(values[-1]))

        fresh = MultiSeriesEngine.for_oneshotstl(PERIOD, shift_window=0)
        fresh.restore(pickle.loads(blob))
        record_restored = fresh.process("m", float(values[-1]))
        assert record_direct.record == record_restored.record

    def test_restore_rejects_foreign_objects(self):
        engine = MultiSeriesEngine.for_oneshotstl(PERIOD, shift_window=0)
        with pytest.raises(TypeError):
            engine.restore({"m": "not-a-series-state"})


class TestFleetStats:
    def test_counts_and_anomalies(self):
        data = make_fleet_data(2)
        spiked = dict(data)
        spiked["host-0"] = data["host-0"].copy()
        spiked["host-0"][PERIOD * 6] += 15.0

        engine = MultiSeriesEngine.for_oneshotstl(PERIOD, shift_window=0)
        for batch in interleaved_batches(spiked):
            engine.ingest(batch)
        stats = engine.fleet_stats()
        assert stats.series_total == 2
        assert stats.series_live == 2
        assert stats.series_warming == 0
        assert stats.points_total == sum(len(v) for v in spiked.values())
        assert stats.anomalies_total >= 1
        assert stats.per_series["host-0"].anomalies >= 1
        assert stats.per_series["host-1"].anomalies == 0

    def test_per_key_latency_percentiles(self):
        """The two keys are columns of one group: each reports the group's
        ring -- one duration per round -- under its own label."""
        data = make_fleet_data(2, length=PERIOD * 6)
        engine = MultiSeriesEngine.for_oneshotstl(PERIOD, shift_window=0)
        for batch in interleaved_batches(data):
            engine.ingest(batch)
        stats = engine.fleet_stats()
        reports = [stats.per_series[key].latency for key in data]
        for key, latency in zip(data, reports):
            assert latency is not None
            assert latency.method == f"series[{key!r}]"
            assert latency.points == PERIOD * 2
            assert latency.p99_seconds >= latency.median_seconds > 0
        assert replace(reports[0], method="") == replace(reports[1], method="")
        # A scalar home keeps a ring of its own.
        scalar = MultiSeriesEngine.for_oneshotstl(PERIOD, shift_window=0)
        scalar.fleet_kernel_enabled = False
        for batch in interleaved_batches(data):
            scalar.ingest(batch)
        assert scalar.series_stats("host-0").latency.points == PERIOD * 2

    def test_a_group_report_is_summarized_once_per_write_and_relabelled(
        self, monkeypatch
    ):
        from repro.streaming import buffer as ring_module

        data = make_fleet_data(3, length=PERIOD * 6)
        engine = MultiSeriesEngine.for_oneshotstl(PERIOD, shift_window=0)
        for batch in interleaved_batches(data):
            engine.ingest(batch)
        summaries = []
        original = ring_module.summarize_latencies

        def counted(durations, method):
            summaries.append(method)
            return original(durations, method)

        monkeypatch.setattr(ring_module, "summarize_latencies", counted)
        (group,) = engine._groups.values()
        expected = original(group.latencies.to_array(), "ring")
        reports = [engine.series_stats(key).latency for key in data]
        assert summaries == ["ring"]
        for key, report in zip(data, reports):
            assert report == replace(expected, method=f"series[{key!r}]")
        engine.process("host-1", float(data["host-1"][-1]))
        changed = engine.series_stats("host-0").latency
        assert summaries == ["ring", "ring"]
        assert changed.points == expected.points + 1
        assert changed == replace(
            original(group.latencies.to_array(), "x"), method="series['host-0']"
        )

    def test_warming_series_counted(self):
        engine = MultiSeriesEngine.for_oneshotstl(PERIOD, shift_window=0)
        engine.process("m", 1.0)
        stats = engine.fleet_stats()
        assert stats.series_warming == 1
        assert stats.series_live == 0
        assert stats.points_total == 1


def reference_records(result):
    """The records of a result as a per-row keyword loop builds them."""
    records = []
    for position in range(len(result)):
        key = result.keys[position]
        if not result.live[position]:
            records.append(
                EngineRecord(key=key, status=SeriesStatus.WARMING, record=None)
            )
            continue
        fields = {
            name: getattr(result, name).tolist()[position]
            for name in (
                "index", "value", "trend", "seasonal", "residual",
                "anomaly_score", "is_anomaly", "detection_residual",
            )
        }  # fmt: skip
        record = StreamRecord(**fields)
        records.append(EngineRecord(key=key, status=SeriesStatus.LIVE, record=record))
    return records


def test_records_are_the_per_row_loops_for_warming_and_live_rows():
    """Positional construction builds equal records of the same types."""
    data = make_fleet_data(3, length=PERIOD * 6)
    engine = MultiSeriesEngine.for_oneshotstl(PERIOD)
    live = {key: values[: PERIOD * 5] for key, values in data.items()}
    engine.ingest_columnar(live)
    keys = ["host-1", "new-a", "host-0", "new-b", "host-2"]
    grid = np.array(
        [
            [data["host-1"][position], 1.0, data["host-0"][position], 2.0, np.nan]
            for position in range(PERIOD * 5, PERIOD * 5 + 3)
        ]
    )
    result = engine.ingest_grid(keys, grid)
    assert 0 < int(result.live.sum()) < len(result)
    expected = reference_records(result)
    records = result.records()
    assert records == expected
    for got, want in zip(records, expected):
        assert type(got.status) is type(want.status)
        assert type(got.record) is type(want.record)
        if want.record is not None:
            for name in ("index", "value", "trend", "is_anomaly", "detection_residual"):
                kind = type(getattr(want.record, name))
                assert type(getattr(got.record, name)) is kind
    assert [result[i] for i in range(len(result))] == expected
    assert list(result) == expected


#: the one class here whose series are absorbed into a FleetKernel
@pytest.mark.usefixtures("kernel_body")
class TestScale:
    def test_sustains_many_concurrent_series(self):
        """A large keyed fleet streams through one engine without issue."""
        n_series = 120
        engine = MultiSeriesEngine.for_oneshotstl(PERIOD, shift_window=0, iterations=1)
        base = make_seasonal_series(PERIOD * 5, PERIOD, seed=8)["values"]
        for position in range(base.size):
            engine.ingest(
                [(f"k{index}", base[position] + index) for index in range(n_series)]
            )
        stats = engine.fleet_stats()
        assert stats.series_total == n_series
        assert stats.series_live == n_series
        assert stats.points_total == n_series * base.size


class PlanTwins:
    """A kernel engine and its ``fleet_kernel_enabled = False`` twin, fed
    alike; records every round plan the kernel engine builds or reuses."""

    def __init__(self, monkeypatch, n_keys):
        self.data = make_fleet_data(n_keys, length=PERIOD * 10)
        self.cursor = dict.fromkeys(self.data, 0)
        self.fast = MultiSeriesEngine.for_oneshotstl(PERIOD)
        self.twin = MultiSeriesEngine.for_oneshotstl(PERIOD)
        self.twin.fleet_kernel_enabled = False
        self.plans = []
        plan = MultiSeriesEngine._grid_plan

        def spy(engine, round_keys):
            cohorts, scalar = plan(engine, round_keys)
            if engine is self.fast:
                self.plans.append(cohorts)
            return cohorts, scalar

        monkeypatch.setattr(MultiSeriesEngine, "_grid_plan", spy)

    def feed(self, keys, rounds=2):
        """Feed ``rounds`` rounds of ``keys`` to both; the plans of the call.

        The two results must agree byte for byte.
        """
        grid = np.array(
            [self.data[key][self.cursor[key] : self.cursor[key] + rounds] for key in keys]
        ).T
        for key in keys:
            self.cursor[key] += rounds
        seen = len(self.plans)
        got = self.fast.ingest_grid(keys, grid)
        want = self.twin.ingest_grid(keys, grid)
        assert got.keys == want.keys
        for field in RESULT_FIELDS:
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field
        return self.plans[seen:]

    def both(self, method, *args):
        return [getattr(engine, method)(*args) for engine in (self.fast, self.twin)]

    def warm(self, keys):
        """Take ``keys`` live and onto the kernel; the plan they then use."""
        self.feed(keys, INIT + 2)
        assert all(key in self.fast._absorbed for key in keys)
        return self.reused(keys)

    def reused(self, keys):
        """Feed ``keys`` twice: one plan, built by the first call at the latest."""
        (first,) = self.feed(keys)
        (second,) = self.feed(keys)
        assert second is first and first
        return first

    def rebuilt(self, keys, stale):
        """Feed ``keys`` after a membership change: a new plan, then reused."""
        (plan,) = self.feed(keys)
        assert plan is not stale
        assert self.reused(keys) is plan
        return plan


@pytest.mark.usefixtures("kernel_body")
class TestRoundPlanReuse:
    """A repeated key list reuses its round plan until membership changes,
    and every result equals the all-scalar twin's, float for float."""

    KEYS = [f"host-{index}" for index in range(6)]

    def test_absorbing_a_key_rebuilds_the_plan(self, monkeypatch):
        twins = PlanTwins(monkeypatch, 8)
        stale = twins.warm(self.KEYS)
        twins.feed(["host-6"], INIT)
        twins.feed(["host-7"], 1)
        # host-6 is absorbed into the group while host-7 still warms: the
        # round is not all-kernel and stores nothing, so only dropping
        # the plan keeps the next keys list from advancing 7 columns.
        twins.feed(["host-6", "host-7"], 1)
        assert "host-6" in twins.fast._absorbed
        stale = twins.rebuilt(self.KEYS, stale)
        # A warming key in the list goes live, then is absorbed.
        keys = self.KEYS + ["host-7"]
        twins.feed(keys, INIT - 2)
        assert "host-7" not in twins.fast._absorbed
        twins.rebuilt(keys, stale)
        assert "host-7" in twins.fast._absorbed

    def test_extract_then_adopt_rebuilds_the_plan(self, monkeypatch):
        twins = PlanTwins(monkeypatch, 7)
        # host-6 is the group's column 0: extracting it renumbers the rest.
        twins.warm(["host-6"])
        stale = twins.warm(self.KEYS)
        payloads = twins.both("extract_series", ["host-6"])
        stale = twins.rebuilt(self.KEYS, stale)
        for engine, payload in zip((twins.fast, twins.twin), payloads):
            engine.adopt_series(payload)
        # The adopted column joins the group the stored plan covered whole.
        stale = twins.rebuilt(self.KEYS, stale)
        twins.rebuilt(self.KEYS + ["host-6"], stale)

    def test_restore_rebuilds_the_plan(self, monkeypatch):
        twins = PlanTwins(monkeypatch, 6)
        twins.warm(self.KEYS)
        snapshots = twins.both("snapshot")
        cursor = dict(twins.cursor)
        stale = twins.reused(self.KEYS)
        for engine, snapshot in zip((twins.fast, twins.twin), snapshots):
            engine.restore(snapshot)
        twins.cursor = cursor
        twins.rebuilt(self.KEYS, stale)

    def test_a_disabled_kernel_plans_nothing_and_keeps_the_plan(self, monkeypatch):
        twins = PlanTwins(monkeypatch, 6)
        stored = twins.warm(self.KEYS)
        twins.fast.fleet_kernel_enabled = False
        # Every key then takes the scalar path, a round per pass.
        assert twins.feed(self.KEYS) == [[], []]
        twins.fast.fleet_kernel_enabled = True
        assert twins.reused(self.KEYS) is stored

    def test_a_list_reordered_in_place_is_planned_afresh(self, monkeypatch):
        twins = PlanTwins(monkeypatch, 6)
        keys = list(self.KEYS)
        stale = twins.warm(keys)
        keys.reverse()
        twins.rebuilt(keys, stale)
        # The plan holds a copy of the list it was built for.
        keys.reverse()
        cohorts, _scalar = twins.fast._grid_plan(keys)
        keys.reverse()
        assert twins.fast._grid_plan(keys)[0] is not cohorts

    def test_an_equal_list_of_new_strings_reuses_the_plan(self, monkeypatch):
        twins = PlanTwins(monkeypatch, 6)
        stored = twins.warm(self.KEYS)
        fresh = ["".join(("host-", str(index))) for index in range(6)]
        assert fresh == self.KEYS and fresh[0] is not self.KEYS[0]
        assert twins.reused(fresh) is stored
