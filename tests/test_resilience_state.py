"""Property tests for the uniform ``get_state()``/``set_state()`` protocol.

Every stateful component must satisfy, at *any* point of its lifecycle:

1. **round-trip identity** — ``fresh.set_state(obj.get_state())`` makes the
   fresh object's own snapshot equal to the original's, and the two then
   behave identically on the same subsequent inputs;
2. **snapshot isolation** — mutating the original after the snapshot does
   not change what was captured;
3. **footprint audit** — ``state_nbytes()`` (the paper's Table-4 memory
   accounting) agrees with the actually serialized array payload within a
   small class-specific tolerance (the accounting charges batch buffers at
   full capacity; the snapshot stores what is really there).

Lifecycle points are randomized but seeded: each component is advanced a
random number of steps before the snapshot, several times.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    CentroidSet,
    ModelReconstructor,
    SequentialDriftDetector,
    build_model,
)
from repro.detectors import (
    ADWIN,
    DDM,
    EDDM,
    HDDDM,
    KSWIN,
    SPLL,
    PageHinkley,
    QuantTree,
    VotingDetectorEnsemble,
)
from repro.oselm import MultiInstanceModel
from repro.resilience import state_arrays_nbytes
from repro.resilience.state import flatten_state, unflatten_state

SEED = 20240817
D = 6  # feature dim for the synthetic fixtures


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def assert_state_equal(a, b, path="state"):
    """Recursive equality over state trees (dicts/lists/arrays/scalars)."""
    assert type(a) is type(b) or (
        isinstance(a, (int, float)) and isinstance(b, (int, float))
    ), f"{path}: {type(a)} vs {type(b)}"
    if isinstance(a, dict):
        assert a.keys() == b.keys(), f"{path}: keys {a.keys()} vs {b.keys()}"
        for k in a:
            assert_state_equal(a[k], b[k], f"{path}.{k}")
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), f"{path}: length {len(a)} vs {len(b)}"
        for i, (x, y) in enumerate(zip(a, b)):
            assert_state_equal(x, y, f"{path}[{i}]")
    elif isinstance(a, np.ndarray):
        assert a.dtype == b.dtype, f"{path}: dtype {a.dtype} vs {b.dtype}"
        assert a.shape == b.shape, f"{path}: shape {a.shape} vs {b.shape}"
        assert a.tobytes() == b.tobytes(), f"{path}: array bytes differ"
    else:
        assert a == b, f"{path}: {a!r} != {b!r}"


def _reference_data(rng, n=300):
    return rng.normal(0.5, 0.15, size=(n, D))


# ---------------------------------------------------------------------------
# error-rate detectors: drive with a bernoulli error stream
# ---------------------------------------------------------------------------

ERROR_RATE_MAKERS = {
    "ddm": lambda: DDM(),
    "eddm": lambda: EDDM(),
    "adwin": lambda: ADWIN(),
    "page_hinkley": lambda: PageHinkley(),
    "kswin": lambda: KSWIN(window_size=40, stat_size=10, seed=7),
    "ensemble": lambda: VotingDetectorEnsemble([DDM(), PageHinkley()]),
}


@pytest.mark.parametrize("name", sorted(ERROR_RATE_MAKERS))
def test_error_rate_detector_round_trip(name):
    rng = np.random.default_rng(SEED)
    for trial in range(3):
        cut = int(rng.integers(1, 400))
        errors = (rng.random(cut + 100) < 0.25).astype(float)
        original = ERROR_RATE_MAKERS[name]()
        for e in errors[:cut]:
            original.update(e)

        snapshot = original.get_state()
        clone = ERROR_RATE_MAKERS[name]()
        clone.set_state(snapshot)
        assert_state_equal(clone.get_state(), original.get_state())

        # identical behaviour on the identical continuation
        for e in errors[cut:]:
            assert clone.update(e) == original.update(e)
        assert_state_equal(clone.get_state(), original.get_state())


def test_error_rate_snapshot_is_isolated():
    rng = np.random.default_rng(SEED)
    det = DDM()
    for e in (rng.random(50) < 0.2).astype(float):
        det.update(e)
    snap = det.get_state()
    flat_before = flatten_state(snap)
    for _ in range(200):
        det.update(1.0)
    assert_state_equal(unflatten_state(*flatten_state(snap)), unflatten_state(*flat_before))


# ---------------------------------------------------------------------------
# batch detectors: fit a reference then stream partial batches
# ---------------------------------------------------------------------------

BATCH_MAKERS = {
    "quanttree": lambda: QuantTree(batch_size=50, n_bins=8, seed=5),
    "spll": lambda: SPLL(batch_size=50, seed=5),
    "hdddm": lambda: HDDDM(batch_size=50),
}


@pytest.mark.parametrize("name", sorted(BATCH_MAKERS))
def test_batch_detector_round_trip(name):
    rng = np.random.default_rng(SEED + 1)
    ref = _reference_data(rng)
    for trial in range(3):
        cut = int(rng.integers(1, 140))  # mid-buffer and past a full batch
        stream = rng.normal(0.5, 0.15, size=(cut + 80, D))
        original = BATCH_MAKERS[name]().fit_reference(ref)
        for x in stream[:cut]:
            original.update_one(x)

        clone = BATCH_MAKERS[name]()  # NOT fitted — set_state must suffice
        clone.set_state(original.get_state())
        assert_state_equal(clone.get_state(), original.get_state())
        assert clone.buffered_samples == original.buffered_samples

        for x in stream[cut:]:
            assert clone.update_one(x) == original.update_one(x)
        assert_state_equal(clone.get_state(), original.get_state())


def test_batch_detector_snapshot_is_isolated():
    rng = np.random.default_rng(SEED + 2)
    det = QuantTree(batch_size=50, n_bins=8, seed=5).fit_reference(_reference_data(rng))
    for x in rng.normal(0.5, 0.15, size=(20, D)):
        det.update_one(x)
    snap = flatten_state(det.get_state())
    for x in rng.normal(0.9, 0.3, size=(200, D)):
        det.update_one(x)
    restored = QuantTree(batch_size=50, n_bins=8, seed=5)
    restored.set_state(unflatten_state(*snap))
    assert restored.buffered_samples == 20


# ---------------------------------------------------------------------------
# proposed-method components and the model substrate
# ---------------------------------------------------------------------------

def _labelled(rng, n=200):
    y = rng.integers(0, 2, size=n)
    X = rng.normal(0.3, 0.1, size=(n, D)) + 0.4 * y[:, None]
    return X, y


def test_centroid_set_round_trip():
    rng = np.random.default_rng(SEED + 3)
    X, y = _labelled(rng)
    c = CentroidSet.from_labelled_data(X, y, 2)
    for i in range(60):
        c.update(int(y[i]), X[i])
    clone = CentroidSet.from_labelled_data(X[:50], y[:50], 2)
    clone.set_state(c.get_state())
    assert_state_equal(clone.get_state(), c.get_state())
    assert clone.drift_distance() == c.drift_distance()


def test_centroid_set_rejects_shape_mismatch():
    from repro.utils.exceptions import ConfigurationError

    rng = np.random.default_rng(SEED + 4)
    X, y = _labelled(rng)
    c = CentroidSet.from_labelled_data(X, y, 2)
    other = CentroidSet(np.zeros((3, D)), np.ones(3))
    with pytest.raises(ConfigurationError):
        other.set_state(c.get_state())


def test_sequential_detector_round_trip():
    rng = np.random.default_rng(SEED + 5)
    X, y = _labelled(rng)
    for trial in range(3):
        cut = int(rng.integers(5, 150))
        cents = CentroidSet.from_labelled_data(X, y, 2)
        det = SequentialDriftDetector(cents, window_size=20, theta_error=0.0, theta_drift=0.3)
        stream = rng.normal(0.5, 0.2, size=(cut + 60, D))
        labels = rng.integers(0, 2, size=cut + 60)
        errs = rng.random(cut + 60)
        for i in range(cut):
            det.update(stream[i], int(labels[i]), error=float(errs[i]))

        cents2 = CentroidSet.from_labelled_data(X, y, 2)
        det2 = SequentialDriftDetector(cents2, window_size=20, theta_error=0.0, theta_drift=0.3)
        det2.set_state(det.get_state())
        assert_state_equal(det2.get_state(), det.get_state())
        for i in range(cut, cut + 60):
            a = det.update(stream[i], int(labels[i]), error=float(errs[i]))
            b = det2.update(stream[i], int(labels[i]), error=float(errs[i]))
            assert a == b
        assert_state_equal(det2.get_state(), det.get_state())


def test_model_round_trip_bit_exact():
    rng = np.random.default_rng(SEED + 6)
    X, y = _labelled(rng)
    for trial in range(2):
        cut = int(rng.integers(1, 80))
        m = MultiInstanceModel(D, 4, 2, seed=1).fit_initial(X, y)
        extra = rng.normal(0.5, 0.2, size=(cut + 40, D))
        for i in range(cut):
            m.partial_fit_one(extra[i])

        clone = MultiInstanceModel(D, 4, 2, seed=999)  # different layers on purpose
        clone.set_state(m.get_state())
        assert_state_equal(clone.get_state(), m.get_state())
        probe = rng.normal(0.5, 0.2, size=(30, D))
        np.testing.assert_array_equal(m.predict(probe), clone.predict(probe))
        for i in range(cut, cut + 40):
            m.partial_fit_one(extra[i])
            clone.partial_fit_one(extra[i])
        assert_state_equal(clone.get_state(), m.get_state())


def test_reconstructor_round_trip():
    rng = np.random.default_rng(SEED + 7)
    X, y = _labelled(rng)
    model = build_model(X, y, seed=1)
    cents = CentroidSet.from_labelled_data(X, y, 2)
    rec = ModelReconstructor(model, cents, n_total=40)
    for i in range(15):  # process() auto-begins the reconstruction
        rec.process(X[i])

    model2 = build_model(X, y, seed=1)
    cents2 = CentroidSet.from_labelled_data(X, y, 2)
    rec2 = ModelReconstructor(model2, cents2, n_total=40)
    rec2.set_state(rec.get_state())
    assert_state_equal(rec2.get_state(), rec.get_state())
    assert rec2.is_active == rec.is_active


# ---------------------------------------------------------------------------
# footprint audit: declared state_nbytes vs actually serialized payload
# ---------------------------------------------------------------------------

#: (maker, driver, max serialized/declared ratio). The accounting charges
#: capacity (full batch buffers, provisioned histograms); the snapshot
#: stores contents — so the audited direction is "the serialized payload
#: must not dwarf the declared footprint".
AUDITED = {
    "quanttree": (
        BATCH_MAKERS["quanttree"],
        "batch",
        1.5,
    ),
    "hdddm": (BATCH_MAKERS["hdddm"], "batch", 1.5),
    "spll": (BATCH_MAKERS["spll"], "batch", 1.5),
    "adwin": (ERROR_RATE_MAKERS["adwin"], "errors", 2.0),
    "kswin": (ERROR_RATE_MAKERS["kswin"], "errors", 3.0),
}


@pytest.mark.parametrize("name", sorted(AUDITED))
def test_state_nbytes_audit(name):
    maker, kind, ratio = AUDITED[name]
    rng = np.random.default_rng(SEED + 8)
    det = maker()
    if kind == "batch":
        det.fit_reference(_reference_data(rng))
        # fill the streaming buffer to ~90% of capacity: declared capacity
        # accounting and actual contents are as close as they ever get
        for x in rng.normal(0.5, 0.15, size=(45, D)):
            det.update_one(x)
    else:
        for e in (rng.random(500) < 0.3).astype(float):
            det.update(e)
    declared = det.state_nbytes()
    serialized = state_arrays_nbytes(det.get_state())
    assert declared > 0
    assert serialized <= ratio * declared + 1024, (
        f"{name}: serialized {serialized}B vs declared {declared}B"
    )


def test_state_nbytes_audit_model():
    rng = np.random.default_rng(SEED + 9)
    X, y = _labelled(rng)
    m = MultiInstanceModel(D, 4, 2, seed=1).fit_initial(X, y)
    declared = m.state_nbytes()  # β + P only (random layers live in flash)
    serialized = state_arrays_nbytes(m.get_state())
    # serialized additionally carries the random layers; bound both sides
    assert declared <= serialized <= declared + 4 * (D * 4 + 4) * 8 + 1024
