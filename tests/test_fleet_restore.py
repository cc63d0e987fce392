"""Restore from state alone: a device's checkpointed state is total.

``get_state()`` must carry everything a pipeline (and its guard) learned
from the initial-training data, so the state of device A, restored into
a pipeline assembled *without* A's data, continues exactly like A. Two
such targets are checked for every registered pipeline family, with and
without a guard: the untrained skeleton the fleet restores into
(:func:`repro.engine.restore_pipeline`), and a pipeline trained on
another dataset seed. The fleet half pins the cost side: evictions and
restores never synthesise a dataset or train a model, except for a
builder the registry has no assembly for.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.core import build_proposed
from repro.engine import (
    DATASET_FACTORIES,
    ExperimentSpec,
    StreamSession,
    build_experiment,
    default_stack,
    restore_pipeline,
)
from repro.fleet import FleetManager
from repro.oselm.ensemble import MultiInstanceModel
from repro.telemetry import configure, get_telemetry

#: every registered pipeline family, with small fast kwargs (windows of
#: 20 open often enough on this stream that the drift thresholds matter)
FAMILIES = {
    "proposed": {"window_size": 20},
    "baseline": {},
    "onlad": {"forgetting_factor": 0.95},
    "quanttree": {"batch_size": 100, "n_bins": 8},
    "spll": {"batch_size": 100},
    "hdddm": {"batch_size": 100},
}

N_TEST = 240
SPLIT = 40  # state taken here, mid-way through the first detector batch
CHUNK = 32
FAULT_AT = SPLIT + 5


def _spec(pipeline: str, seed: int, guard: bool = False) -> ExperimentSpec:
    return ExperimentSpec(
        name=f"{pipeline}-{seed}",
        pipeline=pipeline,
        dataset="blobs",
        seed=seed,
        model_seed=5,
        pipeline_kwargs=FAMILIES[pipeline],
        dataset_kwargs={"n_test": N_TEST, "drift_at": 150},
        guard_policy="impute_last_good" if guard else None,
    )


def _feed(pipeline, X, y, start: int) -> list:
    session = StreamSession(pipeline, default_stack(pipeline, CHUNK), start=start).open()
    records = session.feed(X[start:], y[start:])
    session.close()
    return records


def _assert_identical(a, b):
    assert len(a) == len(b)
    assert a == b
    sa = np.array([r.anomaly_score for r in a], dtype=np.float64)
    sb = np.array([r.anomaly_score for r in b], dtype=np.float64)
    assert sa.tobytes() == sb.tobytes()


def _stream(spec_a, spec_b):
    """A's test stream; guarded, with one sample only A's bounds reject
    (or only the other seed's do), so a restore keeping the wrong
    bounds sanitises differently."""
    exp_a = build_experiment(spec_a)
    X, y = exp_a.test.X.copy(), exp_a.test.y.copy()
    if spec_a.guard_policy is not None:
        hi_a = exp_a.guard.sanitizer.bounds.hi
        hi_b = build_experiment(spec_b).guard.sanitizer.bounds.hi
        j = int(np.argmax(np.abs(hi_a - hi_b)))
        assert hi_a[j] != hi_b[j]
        X[FAULT_AT, j] = 0.5 * (hi_a[j] + hi_b[j])
    return X, y


def _reference(spec, X, y):
    """A's standalone run split at SPLIT: (state, guard state, tail records)."""
    pipeline = build_experiment(spec).pipeline
    session = StreamSession(pipeline, default_stack(pipeline, CHUNK)).open()
    session.feed(X[:SPLIT], y[:SPLIT])
    state = copy.deepcopy(pipeline.get_state())
    guard_state = None if pipeline.guard is None else pipeline.guard.get_state()
    tail = session.feed(X[SPLIT:], y[SPLIT:])
    session.close()
    return state, guard_state, tail


@pytest.mark.parametrize("guard", [False, True], ids=["plain", "guarded"])
@pytest.mark.parametrize("family", sorted(FAMILIES))
class TestStateIsTotal:
    def test_skeleton_continues_like_the_device(self, family, guard):
        spec_a, spec_b = _spec(family, 20, guard), _spec(family, 21, guard)
        X, y = _stream(spec_a, spec_b)
        state, guard_state, tail = _reference(spec_a, X, y)
        pipeline = restore_pipeline(spec_a, state, guard_state)
        assert pipeline.model.is_fitted
        _assert_identical(_feed(pipeline, X, y, SPLIT), tail)

    def test_pipeline_of_another_seed_continues_like_the_device(self, family, guard):
        spec_a, spec_b = _spec(family, 20, guard), _spec(family, 21, guard)
        X, y = _stream(spec_a, spec_b)
        state, guard_state, tail = _reference(spec_a, X, y)
        other = build_experiment(spec_b).pipeline
        other.set_state(state)
        if guard:
            other.guard.set_state(guard_state)
        _assert_identical(_feed(other, X, y, SPLIT), tail)


def test_proposed_thresholds_are_in_the_state():
    a = build_experiment(_spec("proposed", 1)).pipeline
    b = build_experiment(_spec("proposed", 2)).pipeline
    assert a.detector.theta_error != b.detector.theta_error
    b.set_state(a.get_state())
    assert b.detector.theta_error == a.detector.theta_error
    assert b.detector.theta_drift == a.detector.theta_drift


def test_guard_bounds_are_in_the_state():
    a = build_experiment(_spec("baseline", 1, guard=True)).guard
    b = build_experiment(_spec("baseline", 2, guard=True)).guard
    b.set_state(a.get_state())
    assert b.sanitizer.bounds.lo.tobytes() == a.sanitizer.bounds.lo.tobytes()
    assert b.sanitizer.bounds.hi.tobytes() == a.sanitizer.bounds.hi.tobytes()


# --------------------------------------------------------------------------
# The fleet's restore path builds nothing
# --------------------------------------------------------------------------


def wrapped_proposed(X, y, **kwargs):
    """A user builder: the built-in wiring behind a path with no assembly."""
    return build_proposed(X, y, **kwargs)


FEED = 60


def _churn(specs, streams, tmp_path):
    """Alternate chunks between devices through one slot: every submit
    after the first round is an evict + restore."""
    with FleetManager(capacity=1, spool_dir=tmp_path / "spool") as fm:
        for dev, spec in specs.items():
            fm.add_device(dev, spec)
        for start in range(0, N_TEST, FEED):
            for dev, s in streams.items():
                fm.submit(dev, s.X[start : start + FEED], s.y[start : start + FEED])
        return fm.finish_all(), fm.stats


def _solo_and_streams(specs):
    exps = {dev: build_experiment(spec) for dev, spec in specs.items()}
    streams = {dev: exp.test for dev, exp in exps.items()}
    return {dev: exp.run() for dev, exp in exps.items()}, streams


def _count_builds(monkeypatch) -> dict:
    """From now on, count dataset syntheses and initial-phase trainings."""
    counts = {"datasets": 0, "fits": 0}
    real_factory = DATASET_FACTORIES["blobs"]
    real_fit = MultiInstanceModel.fit_initial

    def factory(**kwargs):
        counts["datasets"] += 1
        return real_factory(**kwargs)

    def fit_initial(self, X, y):
        counts["fits"] += 1
        return real_fit(self, X, y)

    monkeypatch.setitem(DATASET_FACTORIES, "blobs", factory)
    monkeypatch.setattr(MultiInstanceModel, "fit_initial", fit_initial)
    return counts


def test_restores_synthesise_no_dataset_and_train_nothing(tmp_path, monkeypatch):
    specs = {f"{name}-dev": _spec(name, 40 + i) for i, name in enumerate(sorted(FAMILIES))}
    specs["guarded-dev"] = _spec("proposed", 50, guard=True)
    solo, streams = _solo_and_streams(specs)
    counts = _count_builds(monkeypatch)
    per_device, stats = _churn(specs, streams, tmp_path)
    assert stats.restores >= len(specs) * (N_TEST // FEED - 1)
    assert counts == {"datasets": len(specs), "fits": len(specs)}
    for dev in specs:
        _assert_identical(per_device[dev], solo[dev])


def test_builder_without_assembly_rebuilds_on_restore(tmp_path, monkeypatch):
    """A ``module:callable`` builder has no assembly: its restores fall
    back to a full rebuild, still byte-identical."""
    specs = {
        f"dev{i}": _spec("proposed", 60 + i).replace(
            pipeline=f"{__name__}:wrapped_proposed"
        )
        for i in range(2)
    }
    solo, streams = _solo_and_streams(specs)
    counts = _count_builds(monkeypatch)
    per_device, stats = _churn(specs, streams, tmp_path)
    assert stats.restores > 0
    assert counts["datasets"] == len(specs) + stats.restores
    for dev in specs:
        _assert_identical(per_device[dev], solo[dev])


def test_evict_device_is_timed_and_gauged(tmp_path):
    spec = _spec("proposed", 70)
    test = build_experiment(spec).test
    configure(enabled=True, sinks=[], reset=True)
    try:
        with FleetManager(capacity=4, spool_dir=tmp_path / "spool") as fm:
            for dev in ("a", "b"):
                fm.add_device(dev, spec)
                fm.submit(dev, test.X[:FEED], test.y[:FEED])
            assert fm.evict_device("a")
            assert fm.stats.evictions == 1
            assert fm.stats.evict_seconds > 0
            assert fm.shed(1) == 1
            gauge = get_telemetry().registry.get("fleet.resident_sessions")
            assert gauge.samples()[0]["value"] == 0.0
    finally:
        configure(enabled=False, sinks=[], reset=True)
