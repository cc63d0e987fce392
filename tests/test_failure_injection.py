"""Failure-injection tests: the library must refuse corrupted input at
every boundary rather than propagate it into sequential state.

On a microcontroller a NaN that slips into the RLS recursion poisons the
model *permanently* (there is no re-fit from scratch); these tests verify
that every public entry point that streams data rejects non-finite input,
mismatched dimensionality, and lifecycle misuse — and that rejected calls
leave state untouched.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import CentroidSet, SequentialDriftDetector, build_proposed
from repro.datasets import DataStream
from repro.oselm import MultiInstanceModel, OSELM
from repro.utils.exceptions import DataValidationError


NAN_SAMPLE = np.array([0.1, np.nan, 0.3, 0.4, 0.5, 0.6])
INF_SAMPLE = np.array([0.1, np.inf, 0.3, 0.4, 0.5, 0.6])


class TestNaNRejection:
    def test_oselm_fit_rejects_nan(self, rng):
        m = OSELM(3, 4, 3, seed=0)
        X = rng.normal(size=(10, 3))
        X[3, 1] = np.nan
        with pytest.raises(DataValidationError):
            m.fit_initial(X, X)

    def test_oselm_partial_fit_one_rejects_nan_and_preserves_state(self, rng):
        m = OSELM(3, 4, 3, seed=0)
        X = rng.normal(size=(10, 3))
        m.fit_initial(X, X)
        beta_before = m.beta.copy()
        with pytest.raises(Exception):
            m.partial_fit_one(np.array([1.0, np.nan, 0.0]), np.zeros(3))
        np.testing.assert_array_equal(m.beta, beta_before)
        assert np.isfinite(m.P).all()

    def test_model_prediction_rejects_nan(self, trained_model):
        with pytest.raises(DataValidationError):
            trained_model.predict_one(NAN_SAMPLE)

    def test_model_training_rejects_inf(self, trained_model):
        seen = [i.n_samples_seen for i in trained_model.instances]
        with pytest.raises(DataValidationError):
            trained_model.partial_fit_one(INF_SAMPLE)
        assert [i.n_samples_seen for i in trained_model.instances] == seen

    def test_centroid_update_rejects_nan(self):
        c = CentroidSet(np.zeros((2, 6)), np.array([1, 1]))
        with pytest.raises(DataValidationError):
            c.update(0, NAN_SAMPLE)
        assert c.drift_distance() == 0.0

    def test_detector_update_rejects_nan_sample(self):
        c = CentroidSet(np.zeros((2, 6)), np.array([1, 1]))
        det = SequentialDriftDetector(c, window_size=5, theta_error=0.0, theta_drift=1.0)
        with pytest.raises(DataValidationError):
            det.update(NAN_SAMPLE, 0, error=1.0)

    def test_stream_construction_rejects_nan(self):
        X = np.ones((4, 3))
        X[2, 0] = np.nan
        with pytest.raises(DataValidationError):
            DataStream(X, np.zeros(4, dtype=int))

    def test_pipeline_rejects_nan_and_stays_usable(self, train_stream, drift_stream):
        pipe = build_proposed(
            train_stream.X, train_stream.y, window_size=20, n_hidden=4,
            reconstruction_samples=60, seed=0,
        )
        with pytest.raises(DataValidationError):
            pipe.process_one(NAN_SAMPLE, 0)
        # The rejected sample must not have corrupted anything: the
        # pipeline still runs the full stream and detects the drift.
        records = pipe.run(drift_stream)
        assert any(r.drift_detected for r in records)
        assert all(np.isfinite(r.anomaly_score) for r in records)


class TestDimensionMismatch:
    def test_model_wrong_width(self, trained_model):
        with pytest.raises(Exception):
            trained_model.predict_one(np.ones(9))

    def test_detector_wrong_width(self):
        c = CentroidSet(np.zeros((2, 6)), np.array([1, 1]))
        det = SequentialDriftDetector(c, window_size=5, theta_error=0.0, theta_drift=1.0)
        with pytest.raises(Exception):
            det.update(np.ones(4), 0, error=1.0)

    def test_batch_detector_wrong_width(self, rng):
        from repro.detectors import QuantTree

        qt = QuantTree(batch_size=10, n_bins=4, seed=0).fit_reference(
            rng.normal(size=(50, 6))
        )
        with pytest.raises(Exception):
            qt.update_one(np.ones(5))


class TestLifecycleMisuse:
    def test_everything_guards_unfitted_use(self, rng):
        from repro.clustering import KMeans
        from repro.detectors import SPLL, QuantTree
        from repro.oselm import OSELMAutoencoder
        from repro.utils.exceptions import NotFittedError

        X = rng.normal(size=(5, 3))
        for obj, call in [
            (OSELM(3, 4, 1, seed=0), lambda o: o.predict(X)),
            (OSELMAutoencoder(3, 2, seed=0), lambda o: o.score(X)),
            (MultiInstanceModel(3, 2, 2, seed=0), lambda o: o.predict(X)),
            (KMeans(2), lambda o: o.predict(X)),
            (QuantTree(batch_size=4), lambda o: o.detect_batch(X[:4])),
            (SPLL(batch_size=4), lambda o: o.detect_batch(X[:4])),
        ]:
            with pytest.raises(NotFittedError):
                call(obj)

    def test_long_stream_after_many_rejections(self, train_stream, rng):
        """Hammer the model with alternating bad/good samples; state must
        stay finite throughout."""
        model = MultiInstanceModel(6, 4, 2, seed=0).fit_initial(
            train_stream.X, train_stream.y
        )
        for i in range(200):
            if i % 3 == 0:
                with pytest.raises(Exception):
                    model.partial_fit_one(NAN_SAMPLE)
            else:
                model.partial_fit_one(rng.random(6))
        for inst in model.instances:
            assert np.isfinite(inst.core.beta).all()
            assert np.isfinite(inst.core.P).all()


class TestCheckpointCorruption:
    """Damaged checkpoints must raise CheckpointCorruptError — partial
    state never reaches a live pipeline."""

    @pytest.fixture()
    def saved_checkpoint(self, tmp_path, train_stream, drift_stream):
        from repro.resilience import InjectedCrash, crash_at

        pipe = build_proposed(
            train_stream.X, train_stream.y, window_size=20, n_hidden=4,
            reconstruction_samples=60, seed=0,
        )
        path = tmp_path / "run.ckpt"
        with pytest.raises(InjectedCrash):
            with crash_at(pipe, 80):
                pipe.run(drift_stream, checkpoint_every=16, checkpoint_path=path)
        return path

    def _fresh(self, train_stream):
        return build_proposed(
            train_stream.X, train_stream.y, window_size=20, n_hidden=4,
            reconstruction_samples=60, seed=0,
        )

    def test_truncated_checkpoint_refused(self, saved_checkpoint, train_stream, drift_stream):
        from repro.resilience import truncate_file
        from repro.utils.exceptions import CheckpointCorruptError

        truncate_file(saved_checkpoint)
        with pytest.raises(CheckpointCorruptError):
            self._fresh(train_stream).resume(drift_stream, saved_checkpoint)

    def test_bit_flipped_checkpoint_refused(self, saved_checkpoint, train_stream, drift_stream):
        from repro.resilience import flip_bit
        from repro.utils.exceptions import CheckpointCorruptError

        flip_bit(saved_checkpoint, 1234)
        with pytest.raises(CheckpointCorruptError):
            self._fresh(train_stream).resume(drift_stream, saved_checkpoint)

    def test_wrong_version_checkpoint_refused(self, saved_checkpoint, train_stream, drift_stream):
        from repro.resilience import FORMAT_VERSION, corrupt_version
        from repro.utils.exceptions import CheckpointVersionError

        corrupt_version(saved_checkpoint, FORMAT_VERSION + 7)
        with pytest.raises(CheckpointVersionError):
            self._fresh(train_stream).resume(drift_stream, saved_checkpoint)

    def test_refusal_leaves_pipeline_usable(self, saved_checkpoint, train_stream, drift_stream):
        from repro.resilience import flip_bit
        from repro.utils.exceptions import CheckpointCorruptError

        flip_bit(saved_checkpoint, 999)
        pipe = self._fresh(train_stream)
        with pytest.raises(CheckpointCorruptError):
            pipe.resume(drift_stream, saved_checkpoint)
        records = pipe.run(drift_stream)  # state untouched → still golden
        assert len(records) == len(drift_stream)
        assert all(np.isfinite(r.anomaly_score) for r in records)


class TestParallelRunnerCrashRecovery:
    """A grid cell killed mid-stream resumes from its checkpoint on the
    retry wave, with counters that tell the true story."""

    def _spec(self, tmp_path):
        from repro.engine import ExperimentSpec

        stream_kwargs = {"seed": 3, "n_test": 300, "drift_at": 120}
        crashing = ExperimentSpec(
            name="Proposed (crashes once)",
            pipeline="tests._resilience_helpers:crashing_builder",
            dataset="blobs",
            seed=1,
            pipeline_kwargs={
                "window_size": 30,
                "crash_marker": str(tmp_path / "crashed.marker"),
                "crash_step": 150,
            },
            dataset_kwargs=stream_kwargs,
        )
        plain = ExperimentSpec(
            name="Proposed (reference)",
            pipeline="proposed",
            dataset="blobs",
            seed=1,
            pipeline_kwargs={"window_size": 30},
            dataset_kwargs=stream_kwargs,
        )
        return crashing, plain

    def test_cell_resumes_after_kill_with_consistent_counters(self, tmp_path):
        from repro.metrics.parallel import ParallelRunner
        from repro.telemetry import configure, get_telemetry

        crashing, plain = self._spec(tmp_path)
        configure(enabled=True, sinks=[], reset=True)
        try:
            runner = ParallelRunner(
                cache_dir=tmp_path / "cache",
                checkpoint_dir=tmp_path / "ckpt",
                checkpoint_every=32,
                max_workers=1,  # inline: the injected crash stays in-process
                retries=1,
            )
            (result,) = runner.run([crashing])
            reg = get_telemetry().registry
            assert reg.get("parallel.cache_misses").total == 1
            assert reg.get("parallel.failures").total == 1
            assert reg.get("parallel.retry_waves").total == 1
            assert reg.get("parallel.cells_run").total == 1
            assert reg.get("parallel.resumes").total == 1
            assert reg.get("pipeline.resumes").total == 1
        finally:
            configure(enabled=False, sinks=[], reset=True)

        assert result.attempts == 2
        assert result.resumed_at is not None
        assert 0 < result.resumed_at <= 150
        # the checkpoint is spent once the cell completes
        assert list((tmp_path / "ckpt").glob("*.ckpt")) == []

        # identical numbers to a cell that never crashed
        reference = ParallelRunner(max_workers=1).run([plain])[0]
        assert result.accuracy == reference.accuracy
        assert result.delays == reference.delays
        assert result.detections == reference.detections
        assert result.n_records == reference.n_records

    def test_corrupt_cell_checkpoint_falls_back_to_fresh_run(self, tmp_path):
        from repro.metrics.parallel import ParallelRunner, run_cell
        from repro.resilience import flip_bit

        crashing, plain = self._spec(tmp_path)
        runner = ParallelRunner(
            checkpoint_dir=tmp_path / "ckpt",
            checkpoint_every=32,
            max_workers=1,
            retries=0,
        )
        ckpt = runner._checkpoint_path(crashing)
        with pytest.raises(Exception):
            runner.run([crashing])  # first attempt dies, checkpoint remains
        assert ckpt.exists()
        flip_bit(ckpt, 640)

        # retry with a damaged checkpoint: detected, discarded, clean rerun
        result = run_cell(
            crashing, checkpoint_path=ckpt, checkpoint_every=32
        )
        assert result.resumed_at is None
        reference = run_cell(plain)
        assert result.accuracy == reference.accuracy
        assert result.detections == reference.detections


class TestSensorFaultGenerators:
    """The four finite-garbage faults: deterministic, copying, clamped."""

    @pytest.fixture
    def X(self, rng):
        return rng.normal(size=(40, 5))

    def test_stuck_at_holds_first_windowed_reading(self, X):
        from repro.resilience import stuck_at

        out = stuck_at(X, start=10, length=6, columns=[1, 3])
        for i in range(10, 16):
            np.testing.assert_array_equal(out[i, [1, 3]], X[10, [1, 3]])
        # untouched columns and rows are bit-identical
        np.testing.assert_array_equal(out[:, [0, 2, 4]], X[:, [0, 2, 4]])
        np.testing.assert_array_equal(out[:10], X[:10])
        np.testing.assert_array_equal(out[16:], X[16:])

    def test_stuck_at_explicit_value(self, X):
        from repro.resilience import stuck_at

        out = stuck_at(X, start=0, length=3, value=7.5)
        assert (out[:3] == 7.5).all()

    def test_dropout_fills_constant(self, X):
        from repro.resilience import dropout

        out = dropout(X, start=5, length=4, columns=[0], fill=-1.0)
        assert (out[5:9, 0] == -1.0).all()
        assert np.isfinite(out).all()

    def test_spike_train_alternates_sign_on_period(self, X):
        from repro.resilience import spike_train

        out = spike_train(X, start=0, length=10, columns=[2], period=3,
                          magnitude=100.0)
        delta = out[:, 2] - X[:, 2]
        np.testing.assert_allclose(delta[[0, 3, 6, 9]], [100, -100, 100, -100])
        assert (delta[[1, 2, 4, 5, 7, 8]] == 0).all()

    def test_spike_train_rejects_bad_period(self, X):
        from repro.resilience import spike_train

        with pytest.raises(ValueError):
            spike_train(X, start=0, length=5, period=0)

    def test_feature_dead_flatlines_to_the_end(self, X):
        from repro.resilience import feature_dead

        out = feature_dead(X, column=4, start=12)
        assert (out[12:, 4] == 0.0).all()
        np.testing.assert_array_equal(out[:12, 4], X[:12, 4])

    def test_feature_dead_rejects_bad_column(self, X):
        from repro.resilience import feature_dead

        with pytest.raises(ValueError):
            feature_dead(X, column=5)

    def test_window_clamps_past_stream_end(self, X):
        from repro.resilience import dropout

        out = dropout(X, start=38, length=100)
        assert (out[38:] == 0.0).all() and out.shape == X.shape

    def test_invalid_start_rejected(self, X):
        from repro.resilience import stuck_at

        with pytest.raises(ValueError):
            stuck_at(X, start=41, length=1)
        with pytest.raises(ValueError):
            stuck_at(X, start=0, length=-1)

    def test_generators_never_mutate_input(self, X):
        from repro.resilience import dropout, feature_dead, spike_train, stuck_at

        before = X.copy()
        stuck_at(X, 0, 5)
        dropout(X, 0, 5)
        spike_train(X, 0, 5)
        feature_dead(X, column=0)
        np.testing.assert_array_equal(X, before)

    def test_finite_garbage_streams_silently_without_guard(self, train_stream):
        # The defining property that motivates the guard layer: stuck-at
        # garbage is finite, so an unguarded pipeline accepts it.
        from repro.resilience import stuck_at

        pipe = build_proposed(
            train_stream.X, train_stream.y, window_size=20, n_hidden=4,
            reconstruction_samples=60, seed=0,
        )
        X = stuck_at(np.tile(train_stream.X[:1], (30, 1)), 0, 30, value=0.5)
        for row in X:
            rec = pipe.process_one(row, 0)
            assert np.isfinite(rec.anomaly_score)


class TestNaNBurst:
    def test_nan_burst_stream_is_refused(self, rng):
        from repro.resilience import nan_burst

        X = rng.random((50, 6))
        bad = nan_burst(X, start=10, length=5)
        with pytest.raises(DataValidationError):
            DataStream(bad, np.zeros(50, dtype=int))

    def test_nan_burst_rejected_mid_stream_without_poisoning(self, train_stream, rng):
        from repro.resilience import nan_burst

        pipe = build_proposed(
            train_stream.X, train_stream.y, window_size=20, n_hidden=4,
            reconstruction_samples=60, seed=0,
        )
        burst = nan_burst(rng.random((30, 6)), start=0, length=30)
        for row in burst:
            with pytest.raises(DataValidationError):
                pipe.process_one(row, 0)
        clean = rng.random((100, 6))
        for row in clean:
            rec = pipe.process_one(row, 0)
            assert np.isfinite(rec.anomaly_score)
