"""Golden-equivalence resume tests: kill → resume == uninterrupted run.

The crash-safety contract of ``StreamPipeline.run(checkpoint_every=...)``
is that a run killed at *any* step and resumed from its last checkpoint
produces a record list **byte-for-byte identical** to an uninterrupted
run — same predictions, same float64 anomaly scores down to the last
bit, same detections. These tests enforce that for every pipeline family
× two stream shapes (NSL-KDD-like, cooling-fan-like), with kills placed
at awkward positions: right after the first checkpoint, mid pure-predict
cruise, and one sample either side of the true drift point (i.e. with
detector windows / batch buffers / reconstruction mid-flight).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    CentroidSet,
    ErrorRatePipeline,
    ModelReconstructor,
    build_baseline,
    build_model,
    build_onlad,
    build_proposed,
    build_quanttree_pipeline,
    build_spll_pipeline,
)
from repro.datasets import NSLKDDConfig, make_cooling_fan_like, make_nslkdd_like
from repro.detectors import DDM
from repro.engine import Interceptor, StreamEngine, default_stack
from repro.resilience import InjectedCrash, crash_at

SEED = 3
EVERY = 5  # tight cadence so even the earliest kill has a checkpoint behind it


def _ddm_pipeline(train):
    model = build_model(train.X, train.y, seed=SEED)
    cents = CentroidSet.from_labelled_data(train.X, train.y, train.n_classes)
    rec = ModelReconstructor(model, cents, n_total=120)
    return ErrorRatePipeline(model, DDM(), rec)


#: every pipeline family: NoDetection, ONLAD, proposed, batch (×2), error-rate
MAKERS = {
    "baseline": lambda tr: build_baseline(tr.X, tr.y, seed=SEED),
    "onlad": lambda tr: build_onlad(tr.X, tr.y, forgetting_factor=0.95, seed=SEED),
    "proposed": lambda tr: build_proposed(tr.X, tr.y, window_size=60, seed=SEED),
    "quanttree": lambda tr: build_quanttree_pipeline(
        tr.X, tr.y, batch_size=250, n_bins=8, seed=SEED
    ),
    "spll": lambda tr: build_spll_pipeline(tr.X, tr.y, batch_size=250, seed=SEED),
    "ddm": _ddm_pipeline,
}

#: stream label -> (factory, true drift position)
STREAMS = {
    "nslkdd": (
        lambda: make_nslkdd_like(
            NSLKDDConfig(n_train=400, n_test=900, drift_at=300), seed=0
        ),
        300,
    ),
    "coolingfan": (
        lambda: make_cooling_fan_like("sudden", n_test=300, seed=0),
        120,
    ),
}

_stream_cache: dict = {}
_golden_cache: dict = {}


def _streams(label):
    if label not in _stream_cache:
        _stream_cache[label] = STREAMS[label][0]()
    return _stream_cache[label]


def _golden(method, label):
    key = (method, label)
    if key not in _golden_cache:
        train, test = _streams(label)
        _golden_cache[key] = MAKERS[method](train).run(test)
    return _golden_cache[key]


def _assert_byte_identical(resumed, golden):
    assert len(resumed) == len(golden)
    assert resumed == golden
    # StepRecord equality compares floats with ==; go one step further and
    # require the float64 *bit patterns* to match.
    a = np.array([r.anomaly_score for r in resumed], dtype=np.float64)
    b = np.array([r.anomaly_score for r in golden], dtype=np.float64)
    assert a.tobytes() == b.tobytes()


def _kill_points(label):
    drift = STREAMS[label][1]
    return (7, 64, drift - 1, drift + 1)


@pytest.mark.parametrize("label", sorted(STREAMS))
@pytest.mark.parametrize("method", sorted(MAKERS))
def test_kill_resume_byte_identical(method, label, tmp_path):
    train, test = _streams(label)
    golden = _golden(method, label)

    for kill in _kill_points(label):
        ckpt = tmp_path / f"{method}-{label}-{kill}.ckpt"
        victim = MAKERS[method](train)
        with pytest.raises(InjectedCrash):
            with crash_at(victim, kill):
                victim.run(test, checkpoint_every=EVERY, checkpoint_path=ckpt)
        assert ckpt.exists(), f"no checkpoint written before kill at {kill}"

        survivor = MAKERS[method](train)
        resumed = survivor.resume(test, ckpt)
        assert 0 < survivor.last_resumed_at <= kill
        _assert_byte_identical(resumed, golden)


@pytest.mark.parametrize("method", ["proposed", "quanttree"])
def test_double_kill_resume(method, tmp_path):
    """Crash, resume, crash again later, resume again — still golden."""
    train, test = _streams("nslkdd")
    golden = _golden(method, "nslkdd")
    ckpt = tmp_path / "double.ckpt"

    victim = MAKERS[method](train)
    with pytest.raises(InjectedCrash):
        with crash_at(victim, 64):
            victim.run(test, checkpoint_every=EVERY, checkpoint_path=ckpt)

    second = MAKERS[method](train)
    with pytest.raises(InjectedCrash):
        with crash_at(second, 500):
            second.resume(test, ckpt)

    survivor = MAKERS[method](train)
    resumed = survivor.resume(test, ckpt)
    assert survivor.last_resumed_at >= 495
    _assert_byte_identical(resumed, golden)


def test_checkpointed_run_without_crash_matches_golden(tmp_path):
    """Checkpointing itself must not perturb the records."""
    train, test = _streams("nslkdd")
    golden = _golden("proposed", "nslkdd")
    pipe = MAKERS["proposed"](train)
    recs = pipe.run(test, checkpoint_every=EVERY, checkpoint_path=tmp_path / "c.ckpt")
    _assert_byte_identical(recs, golden)


def test_resume_refuses_wrong_stream(tmp_path):
    train, test = _streams("nslkdd")
    ckpt = tmp_path / "c.ckpt"
    victim = MAKERS["baseline"](train)
    with pytest.raises(InjectedCrash):
        with crash_at(victim, 64):
            victim.run(test, checkpoint_every=EVERY, checkpoint_path=ckpt)

    from repro.utils.exceptions import ConfigurationError

    other = test.take(200)  # different data ⇒ different fingerprint
    with pytest.raises(ConfigurationError):
        MAKERS["baseline"](train).resume(other, ckpt)


def test_resume_refuses_wrong_pipeline_class(tmp_path):
    train, test = _streams("nslkdd")
    ckpt = tmp_path / "c.ckpt"
    victim = MAKERS["proposed"](train)
    with pytest.raises(InjectedCrash):
        with crash_at(victim, 64):
            victim.run(test, checkpoint_every=EVERY, checkpoint_path=ckpt)

    from repro.utils.exceptions import ConfigurationError

    with pytest.raises(ConfigurationError):
        MAKERS["quanttree"](train).resume(test, ckpt)


class TestDerivedStreamResume:
    """Derived streams (slice/take/with_noise) must resume byte-identically.

    ``take`` used to drop a drift annotation sitting exactly at the cut,
    which silently changed the derived stream's identity (fingerprint)
    and its delay bookkeeping between the crashed and resumed runs.
    """

    def test_end_drift_survives_take(self):
        _, test = _streams("coolingfan")
        assert 120 in test.drift_points
        assert test.take(120).drift_points == (120,)

    def test_sliced_stream_resume_byte_identical(self, tmp_path):
        train, test = _streams("coolingfan")
        sub = test.take(120)  # the true drift sits exactly on the cut
        golden = MAKERS["proposed"](train).run(sub)

        ckpt = tmp_path / "sliced.ckpt"
        victim = MAKERS["proposed"](train)
        with pytest.raises(InjectedCrash):
            with crash_at(victim, 64):
                victim.run(sub, checkpoint_every=EVERY, checkpoint_path=ckpt)
        survivor = MAKERS["proposed"](train)
        resumed = survivor.resume(sub, ckpt)
        _assert_byte_identical(resumed, golden)

    def test_noisy_stream_resume_byte_identical(self, tmp_path):
        train, test = _streams("coolingfan")
        noisy = test.with_noise(0.01, np.random.default_rng(5))
        golden = MAKERS["quanttree"](train).run(noisy)

        ckpt = tmp_path / "noisy.ckpt"
        victim = MAKERS["quanttree"](train)
        with pytest.raises(InjectedCrash):
            with crash_at(victim, 64):
                victim.run(noisy, checkpoint_every=EVERY, checkpoint_path=ckpt)
        survivor = MAKERS["quanttree"](train)
        # Rebuild the derived stream exactly as a restarted process would.
        noisy_again = test.with_noise(0.01, np.random.default_rng(5))
        resumed = survivor.resume(noisy_again, ckpt)
        _assert_byte_identical(resumed, golden)


def test_window_size_one_kill_resume_byte_identical(tmp_path):
    """Regression: at ``window_size=1`` the sample that opens a check
    window also closes it and is recorded as ``predict``. Checkpoint dirty
    tracking must still see that the detector's centroids moved, or a
    resume continues from a stale state container."""
    train, test = _streams("coolingfan")

    def make():
        return build_proposed(train.X, train.y, window_size=1, error_z=1.0, seed=SEED)

    reference = make()
    golden = reference.run(test)
    # Many one-row windows, none of them visible in the record phases.
    assert reference.detector.n_windows_opened > 10
    assert not any(r.phase == "check" for r in golden)
    for kill in range(6, len(test), 7):
        ckpt = tmp_path / f"w1-{kill}.ckpt"
        victim = make()
        with pytest.raises(InjectedCrash):
            with crash_at(victim, kill):
                victim.run(test, checkpoint_every=EVERY, checkpoint_path=ckpt)
        _assert_byte_identical(make().resume(test, ckpt), golden)


class _ChunkLog(Interceptor):
    """Records where each consumed chunk started and how long it was."""

    def __init__(self) -> None:
        self.chunks = []

    def after_chunk(self, ctx, recs) -> None:
        self.chunks.append((ctx.position - len(recs), len(recs)))


def _mid_chunk_kills(method, train, test, every, tmp_path):
    """One kill point in the middle of a predict/check (or ONLAD train)
    chunk and one in the middle of a reconstruction chunk, if any.

    The chunks are those of a checkpointed run at the pipeline's default
    chunk size, so each kill lands strictly inside a chunk the victim
    consumes in one call.
    """
    pipe = MAKERS[method](train)
    log = _ChunkLog()
    stack = default_stack(
        pipe, pipe.default_chunk_size,
        checkpoint_every=every, checkpoint_path=tmp_path / "layout.ckpt",
    )
    records = StreamEngine(pipe, test, stack + [log]).run()
    kills = {}
    for start, n in log.chunks:
        if start < every or n < 3:
            continue  # keep a checkpoint behind every kill
        recs = records[start : start + n]
        if all(not r.reconstructing for r in recs):
            kills.setdefault("run", start + n // 2)
        elif all(r.reconstructing and r.phase != "finish" for r in recs):
            kills.setdefault("reconstruction", start + n // 2)
    return kills


@pytest.mark.parametrize("method", sorted(MAKERS))
def test_crash_mid_chunk_kill_resume_byte_identical(method, tmp_path):
    """crash_at fires inside a chunk — in a run of predict/check records
    emitted as one block, and inside a reconstruction chunk — with no
    record at or past the kill step produced, and resuming is golden."""
    train, test = _streams("nslkdd")
    golden = _golden(method, "nslkdd")
    every = 50
    kills = _mid_chunk_kills(method, train, test, every, tmp_path)
    assert "run" in kills
    if method not in ("baseline", "onlad"):
        assert "reconstruction" in kills
    for where, kill in sorted(kills.items()):
        ckpt = tmp_path / f"{method}-{where}.ckpt"
        victim = MAKERS[method](train)
        with pytest.raises(InjectedCrash):
            with crash_at(victim, kill):
                victim.run(test, checkpoint_every=every, checkpoint_path=ckpt)
        assert victim._index == kill, where
        survivor = MAKERS[method](train)
        resumed = survivor.resume(test, ckpt)
        assert survivor.last_resumed_at <= kill
        _assert_byte_identical(resumed, golden)
