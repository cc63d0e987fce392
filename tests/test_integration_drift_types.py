"""Integration: the proposed pipeline across all four Figure-1 drift types
and the determinism / metrics plumbing that the benches rely on.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import build_proposed
from repro.datasets import (
    GaussianConcept,
    make_gradual_drift_stream,
    make_incremental_drift_stream,
    make_reoccurring_drift_stream,
    make_stationary_stream,
    make_sudden_drift_stream,
)
from repro.metrics import evaluate_method

OLD = GaussianConcept(np.array([[0.2] * 6, [0.8] * 6]), 0.05)
NEW = GaussianConcept(np.array([[0.2] * 6, [0.8] * 6]) + 0.5, 0.05)


def make_streams():
    return {
        "sudden": make_sudden_drift_stream(OLD, NEW, n_samples=1200, drift_at=400, seed=0),
        "gradual": make_gradual_drift_stream(
            OLD, NEW, n_samples=1200, drift_start=400, drift_end=900, seed=0
        ),
        "incremental": make_incremental_drift_stream(
            OLD, NEW, n_samples=1200, drift_start=400, drift_end=900, seed=0
        ),
        "reoccurring": make_reoccurring_drift_stream(
            OLD, NEW, n_samples=1200, drift_at=400, reoccur_at=700, seed=0
        ),
    }


@pytest.fixture(scope="module")
def pipeline_builder():
    train = make_stationary_stream(OLD, 300, seed=3)

    def build():
        return build_proposed(
            train.X, train.y, window_size=30, n_hidden=8,
            reconstruction_samples=120, seed=1,
        )

    return build


@pytest.mark.parametrize("kind", ["sudden", "gradual", "incremental", "reoccurring"])
class TestAllDriftTypes:
    def test_detects_after_true_drift(self, kind, pipeline_builder):
        stream = make_streams()[kind]
        res = evaluate_method(pipeline_builder(), stream)
        assert res.delay.detections
        assert res.delay.false_positives == ()
        assert min(res.delay.detections) >= 400

    def test_bit_reproducible(self, kind, pipeline_builder):
        stream = make_streams()[kind]
        a = evaluate_method(pipeline_builder(), stream)
        b = evaluate_method(pipeline_builder(), stream)
        assert a.delay.detections == b.delay.detections
        assert a.accuracy == b.accuracy
        np.testing.assert_array_equal(
            [r.anomaly_score for r in a.records],
            [r.anomaly_score for r in b.records],
        )


class TestStationaryControl:
    def test_no_detection_on_stationary_stream(self, pipeline_builder):
        stream = make_stationary_stream(OLD, 2000, seed=9)
        res = evaluate_method(pipeline_builder(), stream)
        assert res.delay.detections == ()

    def test_memory_constant_over_long_stream(self, pipeline_builder):
        stream = make_stationary_stream(OLD, 1500, seed=9)
        pipe = pipeline_builder()
        before = pipe.state_nbytes()
        pipe.run(stream)
        assert pipe.state_nbytes() == before
