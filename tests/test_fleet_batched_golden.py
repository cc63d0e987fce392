"""Differential golden suite: batched fleet == sequential fleet, in bytes.

The group-step path (``FleetManager(batch_scoring=True)`` +
``submit_many``) promises records **byte-identical** to the sequential
path for every pipeline family — whether a session takes a group step,
falls back, or flips between the two mid-stream. This suite runs the
same small fleet twice, sequentially and batched, across all five
pipeline families × both paper datasets × guard on/off, with capacity
below the device count so every case also crosses an LRU evict/restore
mid-soak (an eviction spools a pipeline between group steps; a restore
rebuilds it from the spool).

The per-sample floats are compared via ``tobytes`` — "close" is not a
pass. ``tests/test_fleet_batching.py`` covers the planner/kernel units;
the big churn soak (1000 devices) runs in ``benchmarks/bench_fleet.py``.

A hypothesis suite then generates window compositions for a mixed fleet
— two model seeds, a guarded and an ONLAD device beside the proposed
ones, 1–3 chunks of 1–150 rows per device per window, capacity below the
device count — so drifts and reconstruction ends fall mid-chunk and
evict/restore interleaves with the lockstep group steps. Each device's
records and final ``get_state()`` must equal its standalone run.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import ExperimentSpec, build_experiment
from repro.fleet import FleetManager

#: every registered pipeline family, with small fast kwargs
PIPELINES = {
    "proposed": {"window_size": 60},
    "baseline": {},
    "onlad": {"forgetting_factor": 0.95},
    "quanttree": {"batch_size": 100, "n_bins": 8},
    "spll": {"batch_size": 100},
}

#: the paper's two evaluation datasets, shrunk to unit-test size
DATASETS = {
    "nslkdd": {"n_train": 120, "n_test": 160, "drift_at": 100},
    "coolingfan": {"n_train": 120, "n_test": 160, "drift_at": 100},
}

N_TEST = 160
FEED = 40  # four interleaved arrival rounds per device
N_DEVICES = 3
CAPACITY = 2  # < N_DEVICES: every round crosses an evict + restore


def _specs(pipeline: str, dataset: str, guard: bool) -> dict:
    return {
        f"dev{i}": ExperimentSpec(
            name=f"{pipeline}-{dataset}-{i}",
            pipeline=pipeline,
            dataset=dataset,
            seed=40 + i,
            model_seed=5,  # one firmware image: shared random layer
            pipeline_kwargs=PIPELINES[pipeline],
            dataset_kwargs=dict(DATASETS[dataset]),
            guard_policy="impute_last_good" if guard else None,
        )
        for i in range(N_DEVICES)
    }


def _run_fleet(specs: dict, spool, *, batch_scoring: bool):
    streams = {dev: build_experiment(spec).test for dev, spec in specs.items()}
    with FleetManager(
        capacity=CAPACITY, spool_dir=spool, batch_scoring=batch_scoring
    ) as fm:
        for dev, spec in specs.items():
            fm.add_device(dev, spec)
        for start in range(0, N_TEST, FEED):
            fm.submit_many(
                [
                    (
                        dev,
                        streams[dev].X[start : start + FEED],
                        streams[dev].y[start : start + FEED],
                    )
                    for dev in specs
                ]
            )
        records = fm.finish_all()
        return records, fm.stats


def _assert_identical(a: list, b: list) -> None:
    assert len(a) == len(b)
    assert a == b
    scores_a = np.array([r.anomaly_score for r in a], dtype=np.float64)
    scores_b = np.array([r.anomaly_score for r in b], dtype=np.float64)
    assert scores_a.tobytes() == scores_b.tobytes()


@pytest.mark.parametrize("dataset", sorted(DATASETS))
@pytest.mark.parametrize("pipeline", sorted(PIPELINES))
@pytest.mark.parametrize("guard", [False, True], ids=["noguard", "guard"])
def test_batched_soak_matches_sequential(pipeline, dataset, guard, tmp_path):
    specs = _specs(pipeline, dataset, guard)
    sequential, _ = _run_fleet(specs, tmp_path / "seq", batch_scoring=False)
    batched, stats = _run_fleet(specs, tmp_path / "bat", batch_scoring=True)
    for dev in specs:
        _assert_identical(sequential[dev], batched[dev])
    # The churn axis really exercised the LRU mid-soak.
    assert stats.evictions > 0 and stats.restores > 0
    if guard or pipeline == "onlad":
        # Guarded sessions and per-sample trainers must stay sequential.
        assert stats.batched_samples == 0
        assert stats.fallback_samples == N_DEVICES * N_TEST
    else:
        # Everyone else shares stacked GEMMs for the bulk of the stream.
        assert stats.batched_samples > 0


# -- generated window compositions -----------------------------------------------------

#: proposed devices with a short window and reconstruction, so drifts
#: and reconstruction ends land inside chunks; two firmware images.
MIXED_N_TEST = 360
MIXED = {
    **{
        f"p{ms}-{seed}": dict(pipeline="proposed", model_seed=ms, seed=seed)
        for ms, seeds in ((5, range(1, 8)), (6, (1, 2, 3)))
        for seed in seeds
    },
    "guarded": dict(
        pipeline="proposed", model_seed=5, seed=8, guard_policy="impute_last_good"
    ),
    "onlad": dict(pipeline="onlad", model_seed=5, seed=9),
}
#: < 12 devices, so windows cross evict + restore; >= the lockstep sizes
#: of repro.core.lockstep, so a window's groups step in lockstep
MIXED_CAPACITY = 9


def _mixed_spec(dev: str) -> ExperimentSpec:
    cfg = dict(MIXED[dev])
    pipeline = cfg.pop("pipeline")
    kwargs = (
        {"forgetting_factor": 0.95}
        if pipeline == "onlad"
        else {"window_size": 20, "reconstruction_samples": 40}
    )
    return ExperimentSpec(
        name=dev,
        pipeline=pipeline,
        dataset="blobs",
        pipeline_kwargs=kwargs,
        dataset_kwargs={"n_test": MIXED_N_TEST, "drift_at": 120, "shift": 0.6},
        **cfg,
    )


_STANDALONE: dict = {}


def _standalone(dev: str):
    """``(test stream, records, final state)`` of one device run alone."""
    if dev not in _STANDALONE:
        exp = build_experiment(_mixed_spec(dev))
        records = exp.run()
        _STANDALONE[dev] = (exp.test, records, exp.pipeline.get_state())
    return _STANDALONE[dev]


def _assert_same_state(a, b, path="state") -> None:
    if isinstance(a, dict):
        assert a.keys() == b.keys(), path
        for key in a:
            _assert_same_state(a[key], b[key], f"{path}.{key}")
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), path
        for k, (x, y) in enumerate(zip(a, b)):
            _assert_same_state(x, y, f"{path}[{k}]")
    elif isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and a.shape == b.shape, path
        assert a.tobytes() == b.tobytes(), path
    else:
        assert type(a) is type(b) and a == b, path


@st.composite
def window_plans(draw):
    """Windows of ``(device, chunk length)`` in arrival order, covering
    every device's whole stream; 1–3 chunks per device per window."""
    left = dict.fromkeys(MIXED, MIXED_N_TEST)
    windows = []
    while any(left.values()):
        devices = draw(st.permutations(sorted(d for d, n in left.items() if n)))
        window = []
        for dev in devices:
            for _ in range(draw(st.integers(1, 3))):
                if not left[dev]:
                    break
                n = min(left[dev], draw(st.integers(1, 150)))
                window.append((dev, n))
                left[dev] -= n
        # Chunks of different devices interleave; a device keeps its order.
        order = draw(st.permutations(range(len(window))))
        by_dev: dict = {}
        for k in sorted(order, key=order.index):
            by_dev.setdefault(window[k][0], []).append(window[k][1])
        cursor = {dev: iter(lengths) for dev, lengths in by_dev.items()}
        windows.append([(window[k][0], next(cursor[window[k][0]])) for k in order])
    return windows


@given(window_plans())
@settings(
    max_examples=12,
    deadline=None,
    # The smallest plan is every stream in 1-row chunks: large by design.
    suppress_health_check=[HealthCheck.large_base_example, HealthCheck.too_slow],
)
def test_generated_windows_match_standalone_runs(tmp_path_factory, windows):
    streams = {dev: _standalone(dev)[0] for dev in MIXED}
    spool = tmp_path_factory.mktemp("mixed")
    pos = dict.fromkeys(MIXED, 0)
    got: dict = {dev: [] for dev in MIXED}
    with FleetManager(
        capacity=MIXED_CAPACITY, spool_dir=spool, batch_scoring=True
    ) as fm:
        for dev in MIXED:
            fm.add_device(dev, _mixed_spec(dev))
        for window in windows:
            batch = []
            for dev, n in window:
                lo = pos[dev]
                batch.append((dev, streams[dev].X[lo : lo + n], streams[dev].y[lo : lo + n]))
                pos[dev] = lo + n
            for (dev, _, _), records in zip(batch, fm.submit_many(batch)):
                got[dev].extend(records)
        states = {dev: fm._touch(dev).pipeline.get_state() for dev in MIXED}
        assert fm.stats.batch_groups > 0
        assert fm.stats.evictions > 0 and fm.stats.restores > 0
    for dev in MIXED:
        _, records, state = _standalone(dev)
        _assert_identical(records, got[dev])
        _assert_same_state(state, states[dev])
