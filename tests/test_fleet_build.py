"""A fleet device's first touch: one initial-training phase, nothing more.

:func:`repro.engine.build_pipeline` draws only a spec's training stream
and trains on it; the fleet's data arrives from its clients, so the
test stream :func:`repro.engine.build_experiment` also synthesises is
never needed there. These tests pin that the shortcut changes no bit:
every registered family on every built-in dataset gets the same state
(and guard state) as from a full build. They also pin that a fleet
first touch never draws a test stream, that a user-registered dataset
factory (which can only make both streams) still works, and that a
:class:`~repro.fleet.batching.BatchPlanner` hashes a model's random
layer once and again after a ``set_state`` that swaps it.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np
import pytest

import repro.datasets
from repro.engine import (
    DATASET_FACTORIES,
    PIPELINE_BUILDERS,
    ExperimentSpec,
    build_experiment,
    build_pipeline,
    build_streams,
)
from repro.fleet import FleetManager
from repro.fleet import batching
from repro.fleet.batching import BatchPlanner, model_signature

#: small, fast kwargs for every family (window and batches fit the streams)
FAMILY_KWARGS = {
    "proposed": {"window_size": 20},
    "baseline": {},
    "onlad": {"forgetting_factor": 0.95},
    "quanttree": {"batch_size": 60, "n_bins": 8},
    "spll": {"batch_size": 60},
    "hdddm": {"batch_size": 60},
}

#: each built-in dataset, shrunk; coolingfan with two normal modes so
#: the model has two instances
DATASETS = {
    "blobs": {"n_test": 200, "drift_at": 100},
    "nslkdd": {"n_train": 300, "n_test": 400, "drift_at": 200},
    "coolingfan": {"n_modes": 2, "n_test": 200, "drift_at": 100},
}


def _digest(obj, h=None) -> str:
    """A digest of ``obj`` by type and content; floats by their bits."""
    top = h is None
    h = hashlib.sha256() if top else h
    h.update(type(obj).__name__.encode())
    if isinstance(obj, dict):
        for key in sorted(obj):
            h.update(repr(key).encode())
            _digest(obj[key], h)
    elif isinstance(obj, (list, tuple)):
        h.update(b"[%d" % len(obj))
        for value in obj:
            _digest(value, h)
    elif isinstance(obj, np.ndarray):
        h.update(f"{obj.dtype}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, float):
        h.update(struct.pack("<d", obj))
    else:
        h.update(repr(obj).encode())
    return h.hexdigest() if top else ""


def _spec(family: str, dataset: str, seed: int = 3, **changes) -> ExperimentSpec:
    return ExperimentSpec(
        name=f"{family}-{dataset}",
        pipeline=family,
        dataset=dataset,
        seed=seed,
        model_seed=7,
        pipeline_kwargs=FAMILY_KWARGS[family],
        dataset_kwargs=DATASETS[dataset],
        **changes,
    )


def test_every_family_is_covered():
    assert set(FAMILY_KWARGS) == set(PIPELINE_BUILDERS)


@pytest.mark.parametrize("dataset", sorted(DATASETS))
def test_train_stream_alone_is_the_pairs_train_stream(dataset):
    factory = DATASET_FACTORIES[dataset]
    kwargs = dict(DATASETS[dataset], seed=11)
    alone = factory.train_stream(**kwargs)
    train, _ = factory(**kwargs)
    assert alone.X.tobytes() == train.X.tobytes()
    assert alone.y.tobytes() == train.y.tobytes()
    assert alone.name == train.name


@pytest.mark.parametrize("dataset", sorted(DATASETS))
@pytest.mark.parametrize("family", sorted(FAMILY_KWARGS))
def test_build_pipeline_state_matches_build_experiment(family, dataset):
    spec = _spec(family, dataset, guard_policy="clip")
    built = build_pipeline(spec)
    full = build_experiment(spec)
    assert _digest(built.get_state()) == _digest(full.pipeline.get_state())
    assert _digest(built.guard.get_state()) == _digest(full.guard.get_state())


def test_build_pipeline_without_guard_attaches_none():
    assert build_pipeline(_spec("proposed", "blobs")).guard is None


def test_build_streams_matches_build_experiment():
    spec = _spec("proposed", "blobs", n_test=150)
    train, test = build_streams(spec)
    full = build_experiment(spec)
    assert len(test) == 150
    assert test.X.tobytes() == full.test.X.tobytes()
    assert train.X.tobytes() == full.train.X.tobytes()


def _run_fleet(specs, streams, tmp_path, feed: int = 50) -> dict:
    with FleetManager(capacity=2, spool_dir=tmp_path / "spool") as fm:
        for dev, spec in specs.items():
            fm.add_device(dev, spec)
        n = len(next(iter(streams.values())))
        for lo in range(0, n, feed):
            for dev, s in streams.items():
                fm.submit(dev, s.X[lo : lo + feed], s.y[lo : lo + feed])
        assert fm.stats.builds == len(specs)
        return fm.finish_all()


def test_fleet_first_touch_never_synthesises_a_test_stream(tmp_path, monkeypatch):
    specs = {f"dev{i}": _spec("proposed", "blobs", seed=20 + i) for i in range(3)}
    streams = {dev: build_streams(spec)[1] for dev, spec in specs.items()}
    solo = {dev: build_experiment(spec).run() for dev, spec in specs.items()}

    def no_test_stream(*args, **kwargs):
        raise AssertionError("a fleet first touch synthesised a test stream")

    monkeypatch.setattr(repro.datasets, "make_sudden_drift_stream", no_test_stream)
    per_device = _run_fleet(specs, streams, tmp_path)
    for dev in specs:
        assert per_device[dev] == solo[dev]


def _user_pair(**kwargs):
    """A user factory: it can only make the ``(train, test)`` pair."""
    return DATASET_FACTORIES["blobs"](**kwargs)


def test_user_registered_pair_factory_builds_and_runs_in_a_fleet(tmp_path, monkeypatch):
    monkeypatch.setitem(DATASET_FACTORIES, "user-pair", _user_pair)
    specs = {
        f"dev{i}": _spec("proposed", "blobs", seed=30 + i).replace(dataset="user-pair")
        for i in range(3)
    }
    streams = {dev: build_streams(spec)[1] for dev, spec in specs.items()}
    solo = {dev: build_experiment(spec).run() for dev, spec in specs.items()}
    per_device = _run_fleet(specs, streams, tmp_path)
    for dev in specs:
        assert per_device[dev] == solo[dev]
    # The same rows as the built-in factory, which draws the train alone.
    ref = build_pipeline(specs["dev0"].replace(dataset="blobs"))
    assert _digest(build_pipeline(specs["dev0"]).get_state()) == _digest(ref.get_state())


def test_planner_hashes_a_model_once_and_again_after_set_state(monkeypatch):
    spec = _spec("proposed", "blobs")
    a = build_pipeline(spec)
    b = build_pipeline(spec.replace(model_seed=8))
    rows = build_streams(spec)[1].X[:10]
    planner = BatchPlanner()
    hashed = []
    monkeypatch.setattr(
        batching, "model_signature", lambda m: hashed.append(m) or model_signature(m)
    )

    def signature(pipeline):
        groups, _ = planner.plan([("dev", pipeline, rows)])
        return groups[0].signature

    first = signature(a)
    assert signature(a) == first
    assert len(hashed) == 1  # the second window reused the digest
    a.model.set_state(b.model.get_state())
    assert signature(a) == model_signature(b.model) != first
    assert len(hashed) == 2
