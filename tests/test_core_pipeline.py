"""Unit tests for the five streaming pipelines."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    BatchDetectorPipeline,
    CentroidSet,
    ErrorRatePipeline,
    ModelReconstructor,
    NoDetectionPipeline,
    ONLADPipeline,
    ProposedPipeline,
    SequentialDriftDetector,
    build_proposed,
)
from repro.core import ReconstructionStep
from repro.detectors import DDM, DriftState, ErrorRateDriftDetector, QuantTree
from repro.oselm import MultiInstanceModel
from repro.utils.exceptions import ConfigurationError


@pytest.fixture
def model(train_stream):
    return MultiInstanceModel(6, 4, 2, seed=0).fit_initial(train_stream.X, train_stream.y)


def make_proposed(model, train_stream, window=20):
    return build_proposed(
        train_stream.X, train_stream.y, window_size=window,
        n_hidden=4, reconstruction_samples=60, seed=0,
    )


class TestNoDetectionPipeline:
    def test_record_fields(self, model, drift_stream):
        pipe = NoDetectionPipeline(model)
        rec = pipe.process_one(drift_stream.X[0], int(drift_stream.y[0]))
        assert rec.index == 0
        assert rec.phase == "predict"
        assert rec.correct in (True, False)
        assert not rec.drift_detected and not rec.reconstructing

    def test_never_detects(self, model, drift_stream):
        pipe = NoDetectionPipeline(model)
        recs = pipe.run(drift_stream)
        assert not any(r.drift_detected for r in recs)
        assert pipe.detections == []

    def test_model_frozen(self, model, drift_stream):
        pipe = NoDetectionPipeline(model)
        seen = sum(i.n_samples_seen for i in model.instances)
        pipe.run(drift_stream.take(50))
        assert sum(i.n_samples_seen for i in model.instances) == seen

    def test_accuracy_degrades_after_drift(self, model, drift_stream):
        recs = NoDetectionPipeline(model).run(drift_stream)
        pre = np.mean([r.correct for r in recs[:400]])
        post = np.mean([r.correct for r in recs[400:]])
        assert pre > 0.95 and post < pre

    def test_unlabelled_stream_ok(self, model, drift_stream):
        pipe = NoDetectionPipeline(model)
        rec = pipe.process_one(drift_stream.X[0], None)
        assert rec.correct is None and rec.true_label is None

    def test_requires_multi_instance_model(self):
        with pytest.raises(ConfigurationError):
            NoDetectionPipeline("not a model")


class TestONLADPipeline:
    def test_trains_every_sample(self, train_stream, drift_stream):
        m = MultiInstanceModel(6, 4, 2, forgetting_factor=0.97, seed=0)
        m.fit_initial(train_stream.X, train_stream.y)
        pipe = ONLADPipeline(m)
        seen = sum(i.n_samples_seen for i in m.instances)
        pipe.run(drift_stream.take(50))
        assert sum(i.n_samples_seen for i in m.instances) == seen + 50

    def test_adapts_after_drift(self, train_stream, drift_stream):
        m = MultiInstanceModel(6, 4, 2, forgetting_factor=0.95, seed=0)
        m.fit_initial(train_stream.X, train_stream.y)
        recs = ONLADPipeline(m).run(drift_stream)
        # Passive adaptation: the score spike right at the drift decays as
        # the forgetting model absorbs the new concept.
        scores = np.array([r.anomaly_score for r in recs])
        assert scores[400:408].mean() > 2 * scores[1100:].mean()

    def test_phase_label(self, model, drift_stream):
        rec = ONLADPipeline(model).process_one(drift_stream.X[0], 0)
        assert rec.phase == "train"


class TestProposedPipeline:
    def test_detects_and_reconstructs(self, train_stream, drift_stream, model):
        pipe = make_proposed(model, train_stream)
        recs = pipe.run(drift_stream)
        det = [r.index for r in recs if r.drift_detected]
        assert det and det[0] >= 400
        recon = [r.index for r in recs if r.reconstructing]
        assert len(recon) >= 60
        assert recon[0] == det[0]

    def test_accuracy_recovers(self, train_stream, drift_stream, model):
        pipe = make_proposed(model, train_stream)
        recs = pipe.run(drift_stream)
        recon_idx = [r.index for r in recs if r.reconstructing]
        after = [r.correct for r in recs if r.index > recon_idx[-1]]
        assert np.mean(after) > 0.9

    def test_beats_frozen_baseline(self, train_stream, drift_stream):
        frozen_model = MultiInstanceModel(6, 4, 2, seed=0).fit_initial(
            train_stream.X, train_stream.y
        )
        frozen = NoDetectionPipeline(frozen_model).run(drift_stream)
        adaptive = make_proposed(None, train_stream).run(drift_stream)
        acc_frozen = np.mean([r.correct for r in frozen])
        acc_adaptive = np.mean([r.correct for r in adaptive])
        assert acc_adaptive > acc_frozen

    def test_shared_state_validation(self, train_stream, model):
        cents_a = CentroidSet.from_labelled_data(train_stream.X, train_stream.y, 2)
        cents_b = CentroidSet.from_labelled_data(train_stream.X, train_stream.y, 2)
        det = SequentialDriftDetector(cents_a, window_size=5, theta_error=1, theta_drift=1)
        rec = ModelReconstructor(model, cents_b, n_total=40)
        with pytest.raises(ConfigurationError):
            ProposedPipeline(model, det, rec)

    def test_model_identity_validation(self, train_stream, model):
        cents = CentroidSet.from_labelled_data(train_stream.X, train_stream.y, 2)
        det = SequentialDriftDetector(cents, window_size=5, theta_error=1, theta_drift=1)
        other = MultiInstanceModel(6, 4, 2, seed=1).fit_initial(train_stream.X, train_stream.y)
        rec = ModelReconstructor(other, cents, n_total=40)
        with pytest.raises(ConfigurationError):
            ProposedPipeline(model, det, rec)

    def test_state_nbytes_is_detector_footprint(self, train_stream):
        pipe = make_proposed(None, train_stream)
        assert pipe.state_nbytes() == pipe.detector.state_nbytes()


class TestBatchDetectorPipeline:
    def test_quanttree_detects_and_adapts(self, train_stream, drift_stream, model):
        qt = QuantTree(batch_size=80, n_bins=8, seed=0).fit_reference(train_stream.X)
        cents = CentroidSet.from_labelled_data(train_stream.X, train_stream.y, 2)
        rec = ModelReconstructor(model, cents, n_total=60, n_search=6, n_update=20)
        pipe = BatchDetectorPipeline(model, qt, rec)
        recs = pipe.run(drift_stream)
        det = [r.index for r in recs if r.drift_detected]
        assert det and 400 <= det[0] <= 600
        after = [r.correct for r in recs if r.index > det[0] + 60 + 80]
        assert np.mean(after) > 0.85

    def test_refit_phase_present(self, train_stream, drift_stream, model):
        qt = QuantTree(batch_size=80, n_bins=8, seed=0).fit_reference(train_stream.X)
        cents = CentroidSet.from_labelled_data(train_stream.X, train_stream.y, 2)
        rec = ModelReconstructor(model, cents, n_total=60, n_search=6, n_update=20)
        pipe = BatchDetectorPipeline(model, qt, rec)
        recs = pipe.run(drift_stream)
        phases = {r.phase for r in recs}
        assert "refit" in phases

    def test_no_refit_when_disabled(self, train_stream, drift_stream, model):
        qt = QuantTree(batch_size=80, n_bins=8, seed=0).fit_reference(train_stream.X)
        cents = CentroidSet.from_labelled_data(train_stream.X, train_stream.y, 2)
        rec = ModelReconstructor(model, cents, n_total=60, n_search=6, n_update=20)
        pipe = BatchDetectorPipeline(model, qt, rec, refit_reference=False)
        recs = pipe.run(drift_stream)
        assert "refit" not in {r.phase for r in recs}

    def test_name_defaults_to_detector(self, train_stream, model):
        qt = QuantTree(batch_size=80, n_bins=8, seed=0).fit_reference(train_stream.X)
        cents = CentroidSet.from_labelled_data(train_stream.X, train_stream.y, 2)
        rec = ModelReconstructor(model, cents, n_total=60, n_search=6, n_update=20)
        assert BatchDetectorPipeline(model, qt, rec).name == "quanttree"

    def test_state_nbytes_counts_refit_buffer(self, train_stream, drift_stream, model):
        qt = QuantTree(batch_size=80, n_bins=8, seed=0).fit_reference(train_stream.X)
        cents = CentroidSet.from_labelled_data(train_stream.X, train_stream.y, 2)
        rec = ModelReconstructor(model, cents, n_total=60, n_search=6, n_update=20)
        pipe = BatchDetectorPipeline(model, qt, rec)
        base = pipe.state_nbytes()
        pipe._refitting = True  # reference window is being rebuilt
        for j in range(3):
            assert pipe.process_one(drift_stream.X[j], 0).phase == "refit"
        d = drift_stream.n_features
        assert pipe.state_nbytes() == base + 3 * d * 8


class TestErrorRatePipeline:
    def test_requires_labels(self, train_stream, drift_stream, model):
        cents = CentroidSet.from_labelled_data(train_stream.X, train_stream.y, 2)
        rec = ModelReconstructor(model, cents, n_total=60, n_search=6, n_update=20)
        pipe = ErrorRatePipeline(model, DDM(), rec)
        with pytest.raises(ConfigurationError):
            pipe.process_one(drift_stream.X[0], None)

    def test_ddm_pipeline_adapts(self, train_stream, drift_stream, model):
        cents = CentroidSet.from_labelled_data(train_stream.X, train_stream.y, 2)
        rec = ModelReconstructor(model, cents, n_total=60, n_search=6, n_update=20)
        pipe = ErrorRatePipeline(model, DDM(), rec)
        recs = pipe.run(drift_stream)
        det = [r.index for r in recs if r.drift_detected]
        assert det  # supervised detection fires somewhere after the drift
        after = [r.correct for r in recs if r.index > det[0] + 60]
        assert np.mean(after) > 0.8

    def test_one_shot_reconstruction_resets_detector(self, drift_stream, model):
        """Regression: when reconstruction completes within the detection
        sample itself, the detector must be reset exactly like on the
        multi-step path — otherwise stale error statistics re-fire."""

        class FireAt(ErrorRateDriftDetector):
            def __init__(self, at: int) -> None:
                super().__init__()
                self.fire_at = at

            def update(self, error):
                self.n_samples_seen += 1
                fire = self.n_samples_seen == self.fire_at
                self.state = DriftState.DRIFT if fire else DriftState.NORMAL
                return self.state

        class OneShotReconstructor:
            def process(self, x, **precomputed):
                return ReconstructionStep(
                    still_reconstructing=False, phase="finish", label=-1, count=1
                )

        det = FireAt(5)
        pipe = ErrorRatePipeline(model, det, OneShotReconstructor())
        recs = [
            pipe.process_one(drift_stream.X[i], int(drift_stream.y[i]))
            for i in range(8)
        ]
        assert recs[4].drift_detected and recs[4].reconstructing
        assert not pipe._reconstructing  # one-shot: already finished
        # The reset happened inside sample 4, so only the three samples
        # after it have been counted since.
        assert det.n_samples_seen == 3
        assert not any(r.reconstructing for r in recs[5:])
