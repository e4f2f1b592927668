"""Tests for the streaming utilities (ring buffer, pipeline, latency harness)."""

import base64
import pickle

import numpy as np
import pytest

from repro.core import OneShotSTL
from repro.decomposition import OnlineSTL
from repro.decomposition.base import (
    DecompositionPoint,
    DecompositionResult,
    OnlineDecomposer,
)
from repro.streaming import (
    RingBuffer,
    StreamingPipeline,
    measure_update_latency,
    summarize_latencies,
)

from tests.conftest import make_seasonal_series


class _ShiftCorrectingStub(OnlineDecomposer):
    """Decomposer that 'explains away' every point as seasonality.

    It mimics the failure mode of a shift-correcting decomposer: the
    returned residual is always ~0 (the point was re-explained), while the
    pre-correction detection residual carries the true deviation.
    """

    period = 4

    def initialize(self, values) -> DecompositionResult:
        values = np.asarray(values, dtype=float)
        self.last_detection_residual = 0.0
        return DecompositionResult(
            observed=values,
            trend=values.copy(),
            seasonal=np.zeros_like(values),
            residual=np.zeros_like(values),
            period=self.period,
        )

    def update(self, value: float) -> DecompositionPoint:
        value = float(value)
        self.last_detection_residual = value
        return DecompositionPoint(
            value=value, trend=0.0, seasonal=value, residual=0.0
        )


class TestRingBuffer:
    def test_append_and_order(self):
        buffer = RingBuffer(3)
        buffer.extend([1.0, 2.0])
        np.testing.assert_allclose(buffer.to_array(), [1.0, 2.0])
        buffer.extend([3.0, 4.0])
        np.testing.assert_allclose(buffer.to_array(), [2.0, 3.0, 4.0])
        assert buffer.is_full
        assert buffer.latest() == 4.0
        assert len(buffer) == 3

    @pytest.mark.parametrize("capacity", [1, 3, 8])
    @pytest.mark.parametrize("chunks", [[2, 3], [1, 1, 1, 1, 1], [7], [0, 20, 2], [8, 8, 3]])
    def test_extend_matches_the_append_loop(self, capacity, chunks):
        """Array extend == one append per value, across wrap-around and
        input longer than the capacity (only the last ``capacity`` stay).

        The extended ring also goes through pickle before every chunk --
        empty, part-filled, full and wrapped -- and carries on from there.
        """
        values = np.arange(1.0, sum(chunks) + 1.0)
        extended, appended = RingBuffer(capacity), RingBuffer(capacity)
        start = 0
        for size in chunks:
            chunk = values[start : start + size]
            start += size
            pickled = pickle.dumps(extended)
            assert len(pickled) < 400 + 8 * len(extended)  # no padding travels
            extended = pickle.loads(pickled)
            extended.extend(chunk)
            for value in chunk:
                appended.append(value)
            assert len(extended) == len(appended)
            assert extended.is_full == appended.is_full
            assert extended.to_array().tolist() == appended.to_array().tolist()
            if len(appended):
                assert extended.latest() == appended.latest()
        # appends after an extend land where the loop would have put them
        extended.append(-1.0)
        appended.append(-1.0)
        assert extended.to_array().tolist() == appended.to_array().tolist()

    #: ``pickle.dumps(ring, protocol=4)`` at the commit before
    #: ``__getstate__`` existed: capacity 8, 5 then 6 values extended, so
    #: the whole backing array travels and the oldest value sits at slot 3.
    WHOLE_ARRAY_PICKLE = base64.b64decode(
        "gASVJgEAAAAAAACMFnJlcHJvLnN0cmVhbWluZy5idWZmZXKUjApSaW5nQnVmZmVylJOUKYGU"
        "fZQojAhjYXBhY2l0eZRLCIwIX3N0b3JhZ2WUjBZudW1weS5fY29yZS5tdWx0aWFycmF5lIwM"
        "X3JlY29uc3RydWN0lJOUjAVudW1weZSMB25kYXJyYXmUk5RLAIWUQwFilIeUUpQoSwFLCIWU"
        "aAqMBWR0eXBllJOUjAJmOJSJiIeUUpQoSwOMATyUTk5OSv////9K/////0sAdJRiiUNAAAAA"
        "AAAAKkAAAAAAAAAsQAAAAAAAAC5AAAAAAAAA+D8AAAAAAAAAQAAAAAAAACRAAAAAAAAAJkAA"
        "AAAAAAAoQJR0lGKMBV9uZXh0lEsDjAZfY291bnSUSwh1Yi4="
    )

    def test_a_ring_pickled_with_its_whole_array_loads_and_continues(self):
        ring = pickle.loads(self.WHOLE_ARRAY_PICKLE)
        twin = RingBuffer(8)
        twin.extend(np.arange(5.0) * 0.5)
        twin.extend(10 + np.arange(6.0))
        assert ring.capacity == 8 and len(ring) == 8 and ring.is_full
        assert ring.to_array().tolist() == twin.to_array().tolist()
        for buffer in (ring, twin):
            buffer.extend([20.0, 21.0, 22.0])
            buffer.append(23.0)
        assert ring.to_array().tolist() == twin.to_array().tolist()
        assert ring.latest() == 23.0
        # ... and from here on it travels without its padding too
        assert pickle.loads(pickle.dumps(ring)).to_array().tolist() == (
            twin.to_array().tolist()
        )

    def test_extend_accepts_any_iterable(self):
        buffer = RingBuffer(4)
        buffer.extend(float(value) for value in range(6))
        assert buffer.to_array().tolist() == [2.0, 3.0, 4.0, 5.0]

    def test_clear(self):
        buffer = RingBuffer(2)
        buffer.append(1.0)
        buffer.clear()
        assert len(buffer) == 0
        with pytest.raises(ValueError):
            buffer.latest()

    def test_summary_is_memoised_until_a_write_and_pickles_unchanged(self):
        buffer = RingBuffer(6)
        buffer.extend([3e-6, 1e-6, 2e-6])
        report = buffer.summary()
        assert report == summarize_latencies(buffer.to_array(), "ring")
        assert buffer.summary() is report  # memoised: not summarized again
        writes = (
            lambda ring: ring.append(5e-6),
            lambda ring: ring.extend([4e-6, 9e-6, 7e-6, 8e-6]),  # wraps around
            lambda ring: ring.clear(),
            lambda ring: ring.extend(np.array([6e-6, 1e-5])),
        )
        for write in writes:
            before = buffer.summary()
            write(buffer)
            after = buffer.summary()
            assert after == summarize_latencies(buffer.to_array(), "ring")
            assert after != before
        # The memo is not state: no pickled byte carries it, and a copy
        # summarizes to the same report.
        assert set(buffer.__getstate__()) == {"capacity", "_storage", "_next", "_count"}
        fresh = RingBuffer(6)
        fresh.extend(buffer.to_array())
        assert pickle.dumps(buffer) == pickle.dumps(fresh)
        copied = pickle.loads(pickle.dumps(buffer))
        assert copied.summary() == buffer.summary()
        copied.append(2e-5)
        assert copied.summary() != buffer.summary()
        assert copied.summary() == summarize_latencies(copied.to_array(), "ring")

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            RingBuffer(0)


class TestStreamingPipeline:
    def test_pipeline_flags_injected_spike(self):
        data = make_seasonal_series(24 * 10, 24, seed=9, noise=0.05)
        values = data["values"].copy()
        spike_index = 24 * 8
        values[spike_index] += 10.0

        pipeline = StreamingPipeline(OneShotSTL(24, shift_window=0), anomaly_threshold=5.0)
        pipeline.initialize(values[: 24 * 6])
        records = pipeline.process_many(values[24 * 6 :])
        flagged = [record.index for record in records if record.is_anomaly]
        assert any(abs(index - spike_index) <= 1 for index in flagged)

    def test_pipeline_requires_initialization(self):
        pipeline = StreamingPipeline(OnlineSTL(24))
        with pytest.raises(RuntimeError):
            pipeline.process(0.0)

    def test_pipeline_forecast_delegation(self):
        data = make_seasonal_series(24 * 8, 24, seed=10)
        pipeline = StreamingPipeline(OneShotSTL(24, shift_window=0))
        pipeline.initialize(data["values"][: 24 * 6])
        pipeline.process_many(data["values"][24 * 6 :])
        assert pipeline.forecast(12).shape == (12,)

    def test_records_carry_reconstruction(self):
        data = make_seasonal_series(24 * 8, 24, seed=11)
        pipeline = StreamingPipeline(OnlineSTL(24))
        pipeline.initialize(data["values"][: 24 * 6])
        record = pipeline.process(float(data["values"][24 * 6]))
        assert record.value == pytest.approx(
            record.trend + record.seasonal + record.residual
        )

    def test_scores_detection_residual_when_exposed(self):
        """Regression: scoring point.residual let shift-corrected spikes pass.

        The stub zeroes every returned residual (as a shift search does for
        a point it re-explains) but exposes the true deviation through
        ``last_detection_residual``.  The pipeline must score the latter --
        with the old behaviour the spike below would be invisible.
        """
        pipeline = StreamingPipeline(_ShiftCorrectingStub(), anomaly_threshold=4.0)
        rng = np.random.default_rng(0)
        pipeline.initialize(np.zeros(8))
        for value in rng.normal(0.0, 1.0, size=200):
            pipeline.process(float(value))
        record = pipeline.process(50.0)
        assert record.detection_residual == pytest.approx(50.0)
        assert record.residual == 0.0
        assert record.is_anomaly
        assert record.anomaly_score > 4.0

    def test_detection_residual_defaults_to_point_residual(self):
        data = make_seasonal_series(24 * 8, 24, seed=14)
        pipeline = StreamingPipeline(OnlineSTL(24))  # no detection residual
        pipeline.initialize(data["values"][: 24 * 6])
        record = pipeline.process(float(data["values"][24 * 6]))
        assert record.detection_residual == record.residual

    def test_process_rejects_infinite_values(self):
        """Infinities must never reach the solver state."""
        data = make_seasonal_series(24 * 8, 24, seed=16)
        for decomposer in (OneShotSTL(24, shift_window=0), OnlineSTL(24)):
            pipeline = StreamingPipeline(decomposer)
            pipeline.initialize(data["values"][: 24 * 6])
            for bad in (float("inf"), float("-inf")):
                with pytest.raises(ValueError, match="non-finite"):
                    pipeline.process(bad)
            # The pipeline stays healthy after the rejection.
            record = pipeline.process(float(data["values"][24 * 6]))
            assert np.isfinite(record.residual)

    def test_process_rejects_nan_without_missing_support(self):
        """NaN is only a missing-value marker for decomposers that impute it.

        OnlineSTL has no imputation: a NaN would propagate into its seasonal
        buffer and trend window and silently poison every later point.
        """
        data = make_seasonal_series(24 * 8, 24, seed=17)
        pipeline = StreamingPipeline(OnlineSTL(24))
        pipeline.initialize(data["values"][: 24 * 6])
        assert not OnlineSTL(24).supports_missing
        with pytest.raises(ValueError, match="non-finite"):
            pipeline.process(float("nan"))

    def test_process_imputes_nan_with_missing_support(self):
        """OneShotSTL declares missing-value support, so NaN streams through."""
        data = make_seasonal_series(24 * 8, 24, seed=18)
        pipeline = StreamingPipeline(OneShotSTL(24, shift_window=0))
        pipeline.initialize(data["values"][: 24 * 6])
        assert OneShotSTL(24).supports_missing
        record = pipeline.process(float("nan"))
        assert np.isfinite(record.value)
        assert np.isfinite(record.residual)

    def test_pipeline_flags_spike_with_shift_search_enabled(self):
        """A genuine spike must be flagged even when the shift search runs."""
        data = make_seasonal_series(24 * 10, 24, seed=15, noise=0.05)
        values = data["values"].copy()
        spike_index = 24 * 8
        values[spike_index] += 10.0
        pipeline = StreamingPipeline(
            OneShotSTL(24, shift_window=20), anomaly_threshold=5.0
        )
        pipeline.initialize(values[: 24 * 6])
        records = pipeline.process_many(values[24 * 6 :])
        flagged = [record.index for record in records if record.is_anomaly]
        assert any(abs(index - spike_index) <= 1 for index in flagged)


class TestLatencyHarness:
    def test_latency_report_fields(self):
        data = make_seasonal_series(24 * 8, 24, seed=12)
        report = measure_update_latency(
            OneShotSTL(24, shift_window=0, iterations=2),
            data["values"][: 24 * 5],
            data["values"][24 * 5 :],
            max_points=40,
        )
        assert report.points == 40
        assert report.mean_seconds > 0
        assert report.p99_seconds >= report.median_seconds
        row = report.as_row()
        assert set(row) == {"method", "points", "mean_us", "median_us", "p99_us", "total_s"}
        assert report.mean_microseconds == pytest.approx(report.mean_seconds * 1e6)

    def test_summarize_latencies(self):
        durations = np.array([1e-4, 2e-4, 3e-4, 4e-4])
        report = summarize_latencies(durations, "probe")
        assert report.method == "probe"
        assert report.points == 4
        assert report.mean_seconds == pytest.approx(2.5e-4)
        assert report.total_seconds == pytest.approx(1e-3)
        assert report.p99_seconds <= 4e-4

    def test_summarize_latencies_empty_window_is_well_defined(self):
        report = summarize_latencies(np.array([]), "probe")
        assert report.points == 0
        assert report.mean_seconds == 0.0
        assert report.total_seconds == 0.0
