"""Property test: how a stream is chunked never changes what a pipeline does.

The chunked paths of the drift-adaptive pipelines run Algorithm 1 over a
whole scored chunk and reconstruct on hidden rows computed once per
chunk. The claim checked here is that *any* chunking — drawn by
hypothesis, fed through the same :class:`~repro.engine.StreamSession`
the fleet uses — yields the records of the per-sample reference
(``chunk_size=1``) and the same ``get_state()`` at every chunk boundary,
for the proposed pipeline over window sizes 1/2/7/60, exact and capped
centroid means, both Algorithm 2 phase layouts and a forgetting-factor
model, and for the Quant Tree batch and DDM error-rate pipelines.
Runs under the derandomized profile of ``tests/conftest.py``.
"""

from __future__ import annotations

import hashlib
import itertools
from functools import lru_cache

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    CentroidSet,
    ErrorRatePipeline,
    ModelReconstructor,
    ProposedPipeline,
    SequentialDriftDetector,
    build_model,
    build_proposed,
    build_quanttree_pipeline,
)
from repro.datasets import (
    GaussianConcept,
    make_stationary_stream,
    make_sudden_drift_stream,
)
from repro.detectors import DDM
from repro.engine import StreamSession, default_stack

SEED = 3
N_TOTAL = 60  # short reconstructions, so every phase fits the stream


@lru_cache(maxsize=None)
def _streams():
    old = GaussianConcept(
        np.array([[0.2, 0.2, 0.8, 0.8, 0.5, 0.1], [0.8, 0.8, 0.2, 0.2, 0.5, 0.9]]),
        0.05,
    )
    means = old.means.copy()
    means[0] = means[0] + 0.45 * (means[1] - means[0])
    means[1] = means[1] + np.array([0.1, -0.1, 0.1, -0.1, 0.2, 0.0])
    new = GaussianConcept(means, 0.08)
    train = make_stationary_stream(old, 240, seed=1, name="train")
    test = make_sudden_drift_stream(old, new, n_samples=500, drift_at=150, seed=2)
    return train, test


def _proposed(window: int, max_count, literal: bool, forgetting) -> ProposedPipeline:
    train, _ = _streams()
    base = build_proposed(
        train.X, train.y, window_size=window, error_z=1.0, max_count=max_count,
        reconstruction_samples=N_TOTAL, seed=SEED,
    )
    model, detector = base.model, base.detector
    if forgetting is not None:
        model = build_model(train.X, train.y, forgetting_factor=forgetting, seed=SEED)
    detector = SequentialDriftDetector(
        detector.centroids,
        window_size=window,
        theta_error=detector.theta_error,
        theta_drift=detector.theta_drift,
    )
    reconstructor = ModelReconstructor(
        model, detector.centroids, n_total=N_TOTAL, literal_overlap=literal
    )
    return ProposedPipeline(model, detector, reconstructor)


def _quanttree():
    train, _ = _streams()
    return build_quanttree_pipeline(
        train.X, train.y, batch_size=50, n_bins=4,
        reconstruction_samples=N_TOTAL, seed=SEED,
    )


def _ddm():
    train, _ = _streams()
    model = build_model(train.X, train.y, seed=SEED)
    centroids = CentroidSet.from_labelled_data(train.X, train.y, 2)
    reconstructor = ModelReconstructor(model, centroids, n_total=N_TOTAL)
    return ErrorRatePipeline(model, DDM(), reconstructor)


#: key -> pipeline factory
CONFIGS = {
    **{
        f"proposed-w{w}-cap{cap}-{'literal' if lit else 'disjoint'}-ff{ff}": (
            lambda w=w, cap=cap, lit=lit, ff=ff: _proposed(w, cap, lit, ff)
        )
        for w, cap, lit, ff in itertools.product(
            (1, 2, 7, 60), (25, None), (False, True), (None, 0.98)
        )
    },
    "quanttree": _quanttree,
    "ddm": _ddm,
}


def _canon(obj, h) -> None:
    """Feed a get_state() tree into ``h``, floats and arrays by their bits."""
    if isinstance(obj, dict):
        for key in sorted(obj):
            h.update(repr(key).encode())
            _canon(obj[key], h)
    elif isinstance(obj, (list, tuple)):
        h.update(b"[%d" % len(obj))
        for value in obj:
            _canon(value, h)
    elif isinstance(obj, np.ndarray):
        h.update(f"{obj.dtype}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, float):
        h.update(np.float64(obj).tobytes())
    else:
        h.update(repr(obj).encode())


def _state_digest(pipeline) -> str:
    h = hashlib.sha256()
    _canon(pipeline.get_state(), h)
    return h.hexdigest()


@lru_cache(maxsize=None)
def _reference(key: str):
    """Per-sample records and the state digest after every sample."""
    _, test = _streams()
    pipeline = CONFIGS[key]()
    records, digests = [], []
    for x, y in test:
        records.append(pipeline.process_one(x, y))
        digests.append(_state_digest(pipeline))
    return records, digests


def test_reference_runs_exercise_every_phase():
    """The claim is only as strong as the paths the stream reaches."""
    for key in ("proposed-w1-cap25-disjoint-ffNone", "proposed-w60-capNone-literal-ff0.98",
                "quanttree", "ddm"):
        records, _ = _reference(key)
        phases = {r.phase for r in records}
        assert any(r.drift_detected for r in records), key
        assert "finish" in phases, key
        if key.startswith("proposed-w60"):
            assert "check" in phases


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    key=st.sampled_from(sorted(CONFIGS)),
    sizes=st.lists(st.integers(1, 97), min_size=1, max_size=12),
)
def test_any_chunking_matches_per_sample_reference(key, sizes):
    _, test = _streams()
    records, digests = _reference(key)
    pipeline = CONFIGS[key]()
    session = StreamSession(pipeline, default_stack(pipeline, 256)).open()
    position = 0
    for size in itertools.cycle(sizes):
        if position >= len(test):
            break
        stop = min(position + size, len(test))
        got = session.feed(test.X[position:stop], test.y[position:stop])
        assert got == records[position:stop], f"{key}: records differ in [{position}, {stop})"
        assert _state_digest(pipeline) == digests[stop - 1], (
            f"{key}: state differs at boundary {stop}"
        )
        position = stop
    session.close()
