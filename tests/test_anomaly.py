"""Tests for the anomaly-detection subsystem."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.anomaly import (
    AutoencoderDetector,
    DampDetector,
    NSigma,
    NSigmaDetector,
    NormaDetector,
    OneShotSTLDetector,
    OnlineSTLDetector,
    PrefilteredDampDetector,
    SandDetector,
    StompDetector,
    Stompi,
    damp_scores,
    kmeans,
    mass,
    matrix_profile,
    score_anomaly_series,
)
from repro.datasets import make_family
from repro.metrics import roc_auc


def make_anomalous_stream(period=50, cycles=12, spike_at=None, seed=0, noise=0.05):
    rng = np.random.default_rng(seed)
    time = np.arange(period * cycles)
    values = (
        np.sin(2 * np.pi * time / period)
        + 0.3 * np.sin(4 * np.pi * time / period)
        + rng.normal(0, noise, time.size)
    )
    labels = np.zeros(time.size, dtype=int)
    if spike_at is not None:
        values[spike_at] += 6.0
        labels[spike_at] = 1
    return values, labels


class TestNSigma:
    def test_streaming_statistics_match_batch(self):
        rng = np.random.default_rng(0)
        values = rng.normal(3.0, 2.0, size=500)
        scorer = NSigma(threshold=3.0)
        for value in values:
            scorer.update(float(value))
        assert scorer.mean == pytest.approx(values.mean(), rel=1e-9)
        assert scorer.std == pytest.approx(values.std(), rel=1e-9)
        assert scorer.count == 500

    def test_flags_outlier(self):
        scorer = NSigma(threshold=4.0)
        for value in np.random.default_rng(1).normal(size=200):
            scorer.update(float(value))
        verdict = scorer.update(50.0)
        assert verdict.is_anomaly
        assert verdict.score > 4.0

    def test_first_value_is_not_anomalous(self):
        scorer = NSigma()
        verdict = scorer.update(100.0)
        assert not verdict.is_anomaly
        assert verdict.score == 0.0

    def test_copy_is_independent(self):
        scorer = NSigma()
        scorer.update(1.0)
        clone = scorer.copy()
        clone.update(100.0)
        assert scorer.count == 1
        assert clone.count == 2

    @given(st.lists(st.floats(min_value=-100, max_value=100), min_size=2, max_size=100))
    @settings(max_examples=30, deadline=None)
    def test_property_scores_nonnegative(self, values):
        scorer = NSigma(threshold=3.0)
        for value in values:
            verdict = scorer.update(float(value))
            assert verdict.score >= 0.0
            assert np.isfinite(verdict.score)

    def test_large_offset_series_keeps_accurate_variance(self):
        """Regression: sum_sq/n - mean**2 catastrophically cancelled at ~1e8.

        For a series hovering around 1e8 with unit spread, the two terms of
        the textbook variance identity agree to ~16 significant digits, so
        their float64 difference was dominated by rounding (and could go
        negative).  Welford's update must recover the true spread to high
        relative accuracy regardless of the offset.
        """
        rng = np.random.default_rng(5)
        values = 1e8 + rng.normal(0.0, 1.0, size=2000)
        scorer = NSigma(threshold=5.0)
        for value in values:
            scorer.update(float(value))
        assert scorer.mean == pytest.approx(values.mean(), rel=1e-12)
        assert scorer.std == pytest.approx(values.std(), rel=1e-6)

    def test_flags_spike_on_large_offset_series(self):
        rng = np.random.default_rng(6)
        scorer = NSigma(threshold=5.0)
        for value in 1e8 + rng.normal(0.0, 1.0, size=500):
            scorer.update(float(value))
        verdict = scorer.score(1e8 + 10.0)
        assert verdict.is_anomaly
        assert verdict.score == pytest.approx(10.0, rel=0.2)

    def test_copy_preserves_welford_state(self):
        rng = np.random.default_rng(7)
        scorer = NSigma()
        for value in 1e8 + rng.normal(0.0, 1.0, size=100):
            scorer.update(float(value))
        clone = scorer.copy()
        assert clone.mean == scorer.mean
        assert clone.std == scorer.std
        assert clone.count == scorer.count

    def test_update_stats_is_update_without_the_verdict(self):
        """Seeding a monitor leaves exactly the statistics scoring would."""
        rng = np.random.default_rng(8)
        values = (1e3 + rng.normal(0.0, 2.0, size=96)).tolist()
        scored, seeded = NSigma(), NSigma()
        for value in values:
            scored.update(value)
            assert seeded.update_stats(value) is None
        assert (seeded._count, seeded._mean, seeded._m2) == (
            scored._count,
            scored._mean,
            scored._m2,
        )


class TestNSigmaDetector:
    def test_detects_spike(self):
        values, labels = make_anomalous_stream(spike_at=500)
        detector = NSigmaDetector()
        scores = detector.detect(values[:300], values[300:])
        assert np.argmax(scores) == 500 - 300

    def test_scores_length_matches_test(self):
        values, _ = make_anomalous_stream()
        scores = NSigmaDetector().detect(values[:200], values[200:350])
        assert scores.shape == (150,)


class TestMatrixProfile:
    def test_mass_identifies_identical_subsequence(self):
        rng = np.random.default_rng(2)
        values = rng.normal(size=300)
        query = values[100:130]
        distances = mass(query, values)
        assert np.argmin(distances) == 100
        assert distances[100] == pytest.approx(0.0, abs=1e-6)

    def test_mass_constant_query(self):
        distances = mass(np.ones(10), np.random.default_rng(3).normal(size=100))
        assert np.all(np.isfinite(distances))

    def test_matrix_profile_discord_on_planted_anomaly(self):
        values, _ = make_anomalous_stream(spike_at=400)
        profile, indices = matrix_profile(values, window=32)
        discord = int(np.argmax(profile))
        assert 400 - 32 <= discord <= 400
        assert indices.shape == profile.shape

    def test_matrix_profile_of_periodic_signal_is_small(self):
        values, _ = make_anomalous_stream(noise=0.0)
        profile, _ = matrix_profile(values, window=25)
        assert np.median(profile) < 1.0

    def test_window_validation(self):
        with pytest.raises(ValueError):
            matrix_profile(np.arange(20.0), window=15)

    def test_stompi_matches_batch_on_extension(self):
        values, _ = make_anomalous_stream(cycles=8)
        split = 300
        streamer = Stompi(values[:split], window=25)
        for value in values[split:]:
            streamer.append(float(value))
        batch_profile, _ = matrix_profile(values, window=25)
        # The streaming left-profile upper-bounds the batch profile (which may
        # also use right neighbours); both must agree on where the series is
        # most self-similar.
        assert streamer.profile.shape[0] == batch_profile.shape[0]
        assert np.all(streamer.profile >= batch_profile - 1e-6)

    def test_stomp_detector_scores_spike(self):
        values, labels = make_anomalous_stream(spike_at=450)
        detector = StompDetector(window=25)
        scores = detector.detect(values[:300], values[300:])
        # Subsequence methods spread the anomaly over a full window, so the
        # point-wise AUC is below 1 even for a clear hit; the range-aware
        # metric should be close to perfect within the window tolerance.
        assert roc_auc(labels[300:], scores) > 0.85
        assert 150 <= int(np.argmax(scores)) < 150 + 25


class TestDamp:
    def test_damp_scores_spike_highest(self):
        values, _ = make_anomalous_stream(spike_at=420)
        scores = damp_scores(values, window=25, train_length=300)
        top = int(np.argmax(scores))
        assert 420 - 25 <= top <= 420

    def test_damp_detector_interface(self):
        values, labels = make_anomalous_stream(spike_at=420)
        detector = DampDetector(window=25)
        scores = detector.detect(values[:300], values[300:])
        assert scores.shape == (values.size - 300,)
        assert roc_auc(labels[300:], scores) > 0.9

    def test_requires_training_room(self):
        with pytest.raises(ValueError):
            damp_scores(np.arange(50.0), window=10, train_length=45)


class TestNormaAndSand:
    def test_kmeans_separates_two_blobs(self):
        rng = np.random.default_rng(4)
        blob_a = rng.normal(0, 0.1, size=(50, 3))
        blob_b = rng.normal(5, 0.1, size=(50, 3))
        centroids, assignments = kmeans(np.vstack([blob_a, blob_b]), 2, seed=1)
        assert centroids.shape == (2, 3)
        assert len(set(assignments[:50])) == 1
        assert assignments[0] != assignments[60]

    def test_norma_detects_spike(self):
        values, labels = make_anomalous_stream(spike_at=450)
        detector = NormaDetector(window=25, clusters=4)
        scores = detector.detect(values[:300], values[300:])
        assert roc_auc(labels[300:], scores) > 0.85

    def test_sand_detects_spike(self):
        values, labels = make_anomalous_stream(spike_at=450)
        detector = SandDetector(window=25, clusters=4, batch_size=100)
        scores = detector.detect(values[:300], values[300:])
        assert roc_auc(labels[300:], scores) > 0.85

    def test_sand_rejects_bad_decay(self):
        with pytest.raises(ValueError):
            SandDetector(window=10, decay=1.5)


class TestSTDDetectors:
    @pytest.mark.parametrize("detector_class", [OneShotSTLDetector, OnlineSTLDetector])
    def test_detects_spike_on_seasonal_data(self, detector_class):
        values, labels = make_anomalous_stream(spike_at=450, seed=5)
        detector = detector_class(period=50)
        scores = detector.detect(values[:300], values[300:])
        assert roc_auc(labels[300:], scores) > 0.95

    def test_oneshotstl_beats_nsigma_on_seasonal_data(self):
        # A strongly seasonal signal with a spike placed in a seasonal trough:
        # after the spike the value is still well inside the series' global
        # range, so raw NSigma cannot see it, while the decomposition-based
        # detector finds it in the residual.
        rng = np.random.default_rng(6)
        period, cycles = 50, 14
        time = np.arange(period * cycles)
        values = 3.0 * np.sin(2 * np.pi * time / period) + rng.normal(0, 0.05, time.size)
        labels = np.zeros(time.size, dtype=int)
        spike_index = 587  # phase 37: near the seasonal minimum
        values[spike_index] += 1.5
        labels[spike_index] = 1
        train, test = values[:400], values[400:]
        std_auc = roc_auc(labels[400:], OneShotSTLDetector(period).detect(train, test))
        raw_auc = roc_auc(labels[400:], NSigmaDetector().detect(train, test))
        assert std_auc > 0.95
        assert std_auc > raw_auc + 0.1

    def test_score_anomaly_series_helper(self):
        series = make_family("IOPS", series_per_family=1, seed=3)[0]
        scores = score_anomaly_series(NSigmaDetector(), series)
        assert scores.shape == series.test_values.shape


class TestAutoencoderDetector:
    def test_detects_spike(self):
        values, labels = make_anomalous_stream(spike_at=450, seed=7)
        detector = AutoencoderDetector(window=25, epochs=30, seed=1)
        scores = detector.detect(values[:300], values[300:])
        assert roc_auc(labels[300:], scores) > 0.9

    def test_window_validation(self):
        with pytest.raises(ValueError):
            AutoencoderDetector(window=100).detect(np.arange(50.0), np.arange(20.0))


class TestPrefilteredDamp:
    def test_combo_keeps_spike_on_top(self):
        values, labels = make_anomalous_stream(spike_at=480, seed=8)
        combo = PrefilteredDampDetector(
            OneShotSTLDetector(period=50), window=25, top_fraction=0.02
        )
        scores = combo.detect(values[:300], values[300:])
        # The refined discord score may land on any point whose subsequence
        # covers the spike.
        top = int(np.argmax(scores))
        assert 480 - 300 <= top < 480 - 300 + 25
        assert scores[top] > 0
        assert combo.name == "OneShotSTL+DAMP"

    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            PrefilteredDampDetector(NSigmaDetector(), window=10, top_fraction=0.0)
