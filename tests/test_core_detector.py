"""Unit tests for SequentialDriftDetector — Algorithm 1's state machine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import CentroidSet, SequentialDriftDetector
from repro.core.detector import ROW_CHECK, ROW_CLOSED, ROW_IDLE
from repro.utils.exceptions import ConfigurationError


def make_detector(window=5, theta_error=1.0, theta_drift=3.0, counts=(1, 1)):
    cents = CentroidSet(np.array([[0.0, 0.0], [10.0, 10.0]]), np.array(counts))
    return SequentialDriftDetector(
        cents, window_size=window, theta_error=theta_error, theta_drift=theta_drift
    )


class TestConstruction:
    def test_initial_state(self):
        det = make_detector()
        assert not det.drift and not det.check
        assert det.window_count == 0

    def test_requires_centroid_set(self):
        with pytest.raises(ConfigurationError):
            SequentialDriftDetector(
                np.zeros((2, 2)), window_size=5, theta_error=1.0, theta_drift=1.0
            )

    def test_invalid_window(self):
        cents = CentroidSet(np.zeros((1, 2)), np.array([1]))
        with pytest.raises(ConfigurationError):
            SequentialDriftDetector(cents, window_size=0, theta_error=1.0, theta_drift=1.0)


class TestWindowTrigger:
    def test_low_error_keeps_idle(self):
        det = make_detector(theta_error=1.0)
        step = det.update(np.zeros(2), 0, error=0.5)
        assert not step.checking and step.window_count == 0
        # Idle samples never touch the centroids (Algorithm 1 gates the
        # update on check=True).
        assert det.centroids.drift_distance() == 0.0

    def test_high_error_opens_window(self):
        det = make_detector(theta_error=1.0)
        step = det.update(np.zeros(2), 0, error=2.0)
        assert step.checking
        assert step.window_count == 1
        assert det.n_windows_opened == 1

    def test_threshold_is_inclusive(self):
        det = make_detector(theta_error=1.0)
        assert det.update(np.zeros(2), 0, error=1.0).checking  # line 8: >=

    def test_window_not_retriggered_while_open(self):
        det = make_detector(window=5, theta_error=1.0)
        det.update(np.zeros(2), 0, error=2.0)
        det.update(np.zeros(2), 0, error=2.0)
        assert det.n_windows_opened == 1

    def test_window_samples_update_centroids(self):
        det = make_detector(window=5, theta_error=1.0, counts=(1, 1))
        det.update(np.array([2.0, 0.0]), 0, error=2.0)
        assert det.centroids.counts[0] == 2
        assert det.centroids.drift_distance() > 0


class TestDriftDecision:
    def test_drift_fires_at_window_end_when_far(self):
        det = make_detector(window=3, theta_error=0.5, theta_drift=2.0)
        steps = [det.update(np.array([5.0, 5.0]), 0, error=1.0) for _ in range(3)]
        assert not steps[0].drift_detected and not steps[1].drift_detected
        assert steps[2].drift_detected
        assert det.drift
        assert det.n_drifts == 1

    def test_no_drift_when_distance_small(self):
        det = make_detector(window=3, theta_error=0.5, theta_drift=100.0)
        steps = [det.update(np.array([1.0, 0.0]), 0, error=1.0) for _ in range(3)]
        assert not steps[2].drift_detected
        assert not det.drift
        assert not det.check  # window closed (line 19)

    def test_window_count_zero_after_negative_check(self):
        """Regression: ``window_count`` documents "0 when idle" — a window
        that closes *without* drift must reset ``win``, not leave it at W."""
        det = make_detector(window=3, theta_error=0.5, theta_drift=100.0)
        steps = [det.update(np.array([1.0, 0.0]), 0, error=1.0) for _ in range(3)]
        assert not steps[2].checking and not steps[2].drifting  # idle again
        assert steps[2].window_count == 0
        assert det.window_count == 0

    def test_window_can_reopen_after_negative_check(self):
        det = make_detector(window=2, theta_error=0.5, theta_drift=100.0)
        for _ in range(2):
            det.update(np.array([1.0, 0.0]), 0, error=1.0)
        det.update(np.zeros(2), 0, error=1.0)
        assert det.n_windows_opened == 2

    def test_detector_inert_while_drifting(self):
        det = make_detector(window=2, theta_error=0.5, theta_drift=1.0)
        for _ in range(2):
            det.update(np.array([9.0, 9.0]), 0, error=1.0)
        assert det.drift
        counts_before = det.centroids.counts.copy()
        step = det.update(np.array([9.0, 9.0]), 0, error=1.0)
        assert step.drifting and not step.drift_detected
        np.testing.assert_array_equal(det.centroids.counts, counts_before)

    def test_end_drift_resets_flags(self):
        det = make_detector(window=2, theta_error=0.5, theta_drift=1.0)
        for _ in range(2):
            det.update(np.array([9.0, 9.0]), 0, error=1.0)
        det.end_drift()
        assert not det.drift and not det.check and det.window_count == 0

    def test_distance_reported(self):
        det = make_detector(window=3, theta_error=0.5, theta_drift=100.0)
        step = det.update(np.array([4.0, 0.0]), 0, error=1.0)
        assert step.distance == pytest.approx(det.centroids.drift_distance())

    def test_drift_threshold_inclusive(self):
        # Engineer dist to land exactly on theta_drift: counts=1,
        # window=1, sample at (4, 0) → recent[0]=(2,0) → dist=2.
        det = make_detector(window=1, theta_error=0.5, theta_drift=2.0, counts=(1, 1))
        step = det.update(np.array([4.0, 0.0]), 0, error=1.0)
        assert step.drift_detected  # line 17: >=


class TestMemory:
    def test_state_is_centroids_plus_scalars(self):
        det = make_detector()
        assert det.state_nbytes() == det.centroids.state_nbytes() + 48

    def test_memory_constant_over_stream(self, rng):
        det = make_detector(window=10, theta_error=0.0, theta_drift=1e9)
        before = det.state_nbytes()
        for _ in range(500):
            det.update(rng.random(2), int(rng.integers(2)), error=1.0)
        assert det.state_nbytes() == before  # never stores samples


class TestUpdateChunk:
    def test_codes_and_stop_at_the_drift_row(self):
        det = make_detector(window=3, theta_error=0.5, theta_drift=2.0)
        X = np.full((6, 2), 5.0)
        errors = [0.1, 1.0, 0.1, 0.1, 1.0, 1.0]
        status = det.update_chunk(X, np.zeros(6, dtype=int), errors)
        # idle, open + update, update, close with drift — then stop.
        assert status.tolist() == [ROW_IDLE, ROW_CHECK, ROW_CHECK, ROW_CLOSED]
        assert det.drift and det.n_drifts == 1
        assert det.last_distance == det.centroids.drift_distance()

    def test_window_of_one_opens_and_closes_on_one_row(self):
        det = make_detector(window=1, theta_error=0.5, theta_drift=100.0)
        status = det.update_chunk(np.ones((3, 2)), [0, 0, 0], [0.1, 1.0, 0.1])
        assert status.tolist() == [ROW_IDLE, ROW_CLOSED, ROW_IDLE]
        assert not det.check and det.n_windows_opened == 1

    def test_last_distance_is_exact_mid_window(self):
        det = make_detector(window=5, theta_error=0.5, theta_drift=100.0)
        det.update_chunk(np.array([[4.0, 0.0], [2.0, 2.0]]), [0, 0], [1.0, 0.0])
        assert det.check and det.window_count == 2
        assert det.last_distance == det.centroids.drift_distance()

    def test_chunk_equals_row_by_row(self, rng):
        X = rng.random((40, 2)) * 6
        labels = rng.integers(0, 2, 40)
        errors = rng.random(40) * 2
        chunked = make_detector(window=4, theta_error=1.5, theta_drift=50.0)
        rowwise = make_detector(window=4, theta_error=1.5, theta_drift=50.0)
        chunked.update_chunk(X, labels, errors)
        for x, c, e in zip(X, labels, errors):
            rowwise.update(x, int(c), float(e))
        assert chunked.get_state()["n_windows_opened"] > 1
        np.testing.assert_array_equal(
            chunked.centroids.recent, rowwise.centroids.recent
        )
        assert chunked.get_state() | {"centroids": None} == (
            rowwise.get_state() | {"centroids": None}
        )

    def test_rejects_mismatched_lengths(self):
        det = make_detector()
        with pytest.raises(ConfigurationError):
            det.update_chunk(np.zeros((3, 2)), [0, 0], [0.0, 0.0, 0.0])
