"""Fleet golden-equivalence: evict + restore must be byte-invisible.

The fleet's core promise mirrors the crash-safety golden suite: a device
whose session is LRU-evicted to a spool checkpoint and lazily restored
mid-stream produces a record list **byte-for-byte identical** to the
same spec running alone through ``Experiment.run`` — same predictions,
same float64 anomaly scores to the last bit. Enforced for every
registered pipeline family by pairing devices against a capacity-1
manager so *every* alternation is an evict + restore.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import ExperimentSpec, build_experiment
from repro.fleet import FleetManager

#: every pipeline family the registry knows, with small fast kwargs
PIPELINES = {
    "proposed": {"window_size": 60},
    "baseline": {},
    "onlad": {"forgetting_factor": 0.95},
    "quanttree": {"batch_size": 100, "n_bins": 8},
    "spll": {"batch_size": 100},
    "hdddm": {"batch_size": 100},
}

N_TEST = 240
FEED = 60  # four arrivals per device -> three evict/restore cycles each


def _spec(pipeline: str, seed: int, **extra) -> ExperimentSpec:
    return ExperimentSpec(
        name=f"{pipeline}-{seed}",
        pipeline=pipeline,
        dataset="blobs",
        seed=seed,
        model_seed=5,
        pipeline_kwargs=PIPELINES[pipeline],
        dataset_kwargs={"n_test": N_TEST, "drift_at": 150},
        **extra,
    )


def _assert_identical(a, b):
    assert len(a) == len(b)
    assert a == b
    sa = np.array([r.anomaly_score for r in a], dtype=np.float64)
    sb = np.array([r.anomaly_score for r in b], dtype=np.float64)
    assert sa.tobytes() == sb.tobytes()


def _churn(specs, tmp_path, capacity=1):
    """Alternate chunks between the devices so each submit is a miss."""
    streams = {dev: build_experiment(spec).test for dev, spec in specs.items()}
    with FleetManager(capacity=capacity, spool_dir=tmp_path / "spool") as fm:
        for dev, spec in specs.items():
            fm.add_device(dev, spec)
        for start in range(0, N_TEST, FEED):
            for dev in specs:
                s = streams[dev]
                fm.submit(dev, s.X[start : start + FEED], s.y[start : start + FEED])
        per_device = fm.finish_all()
        stats = fm.stats
    return per_device, stats


@pytest.mark.parametrize("pipeline", sorted(PIPELINES))
def test_evicted_device_matches_standalone_run(pipeline, tmp_path):
    specs = {f"dev{i}": _spec(pipeline, seed=20 + i) for i in range(2)}
    per_device, stats = _churn(specs, tmp_path)
    assert stats.evictions >= len(specs) * (N_TEST // FEED) - 2
    assert stats.restores >= stats.evictions - len(specs)
    for dev, spec in specs.items():
        _assert_identical(build_experiment(spec).run(), per_device[dev])


def test_guarded_device_round_trips_guard_state(tmp_path):
    specs = {
        f"dev{i}": _spec("proposed", seed=30 + i, guard_policy="impute_last_good")
        for i in range(2)
    }
    per_device, stats = _churn(specs, tmp_path)
    assert stats.restores > 0
    for dev, spec in specs.items():
        _assert_identical(build_experiment(spec).run(), per_device[dev])


def test_mixed_fleet_under_churn(tmp_path):
    """One device per family sharing a capacity-2 LRU."""
    specs = {
        f"{name}-dev": _spec(name, seed=40 + i)
        for i, name in enumerate(sorted(PIPELINES))
    }
    per_device, stats = _churn(specs, tmp_path, capacity=2)
    assert stats.max_resident == 2
    assert stats.evictions > 0
    for dev, spec in specs.items():
        _assert_identical(build_experiment(spec).run(), per_device[dev])
