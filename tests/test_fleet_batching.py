"""Units for the fleet's group step: signature, kernel, scoring, plan.

The differential end-to-end proof lives in
``tests/test_fleet_batched_golden.py``; this file pins the pieces the
batcher is assembled from — in particular the regression the planner
must never reintroduce: **grouping by shape alone**. Two devices with
identical dims but different model seeds draw different random-layer
weights, and stacking them into one forward pass scores one of them
against the other's hidden layer.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import ExperimentSpec, build_experiment
from repro.fleet import FleetManager, FleetStats
from repro.fleet.batching import BatchPlanner, model_signature
from repro.oselm import MultiInstanceModel
from repro.utils.exceptions import DeviceQuarantinedError


def _fitted_model(seed, n_features=6, n_hidden=12, n_labels=2, **kwargs):
    rng = np.random.default_rng(99)
    model = MultiInstanceModel(n_features, n_hidden, n_labels, seed=seed, **kwargs)
    X = rng.normal(0.5, 0.2, size=(40, n_features))
    y = np.arange(40) % n_labels
    return model.fit_initial(X, y)


def _pipeline(pipeline="proposed", seed=0, model_seed=5, **extra):
    spec = ExperimentSpec(
        name=f"{pipeline}-{seed}",
        pipeline=pipeline,
        dataset="blobs",
        seed=seed,
        model_seed=model_seed,
        dataset_kwargs={"n_test": 60, "drift_at": 40},
        **extra,
    )
    return build_experiment(spec).pipeline


class TestModelSignature:
    def test_same_seed_same_signature(self):
        assert model_signature(_fitted_model(7)) == model_signature(_fitted_model(7))

    def test_different_seed_different_signature(self):
        # The satellite regression: identical shapes, different RNG draws.
        a, b = _fitted_model(7), _fitted_model(8)
        assert (a.n_features, a.n_hidden, a.n_labels) == (
            b.n_features, b.n_hidden, b.n_labels,
        )
        assert model_signature(a) != model_signature(b)

    def test_shape_and_config_change_signature(self):
        base = model_signature(_fitted_model(7))
        assert model_signature(_fitted_model(7, n_hidden=13)) != base
        assert model_signature(_fitted_model(7, error_metric="mae")) != base

    def test_unfitted_and_foreign_models_are_unsigned(self):
        assert model_signature(MultiInstanceModel(6, 12, 2, seed=7)) is None
        assert model_signature(object()) is None

    def test_training_preserves_signature(self):
        # Sequential training moves beta, not the random layer: the device
        # keeps batching with its firmware siblings as it adapts.
        model = _fitted_model(7)
        before = model_signature(model)
        model.partial_fit_one(np.full(6, 0.4), 0)
        assert model_signature(model) == before


class TestScoreBatchMany:
    def test_bit_identical_to_per_device_scoring(self):
        rng = np.random.default_rng(3)
        models = [_fitted_model(7) for _ in range(5)]
        # Same seed -> same layer, but different data histories per model.
        for k, model in enumerate(models):
            for _ in range(k * 3):
                model.partial_fit_one(rng.normal(0.5, 0.2, size=6), rng.integers(2))
        rows = [rng.normal(0.5, 0.3, size=(n, 6)) for n in (4, 1, 7, 3, 2)]
        X = np.concatenate(rows)
        owners = np.repeat(np.arange(5), [len(r) for r in rows])
        labels, scores = MultiInstanceModel.score_batch_many(models, X, owners)
        offset = 0
        for model, chunk in zip(models, rows):
            want_labels, want_scores = model.predict_with_score_batch(chunk)
            n = len(chunk)
            assert np.array_equal(labels[offset : offset + n], want_labels)
            assert scores[offset : offset + n].tobytes() == want_scores.tobytes()
            offset += n

    def test_mixed_layers_scored_together_are_wrong(self):
        # Why the planner keys on weights: stacking different seeds uses
        # the first model's hidden layer for every row.
        rng = np.random.default_rng(4)
        a, b = _fitted_model(7), _fitted_model(8)
        X = rng.normal(0.5, 0.3, size=(6, 6))
        owners = np.array([0, 0, 0, 1, 1, 1])
        _, mixed = MultiInstanceModel.score_batch_many([a, b], X, owners)
        _, own = b.predict_with_score_batch(X[3:])
        assert not np.allclose(mixed[3:], own)

    def test_validates_owner_shape(self):
        model = _fitted_model(7)
        with pytest.raises(Exception):
            MultiInstanceModel.score_batch_many(
                [model], np.zeros((3, 6)), np.zeros(2, dtype=int)
            )


class TestScorePriming:
    """``BatchGroup.prime`` scores up front; ``step`` hands each member its
    slice of the scores as the ``scored`` argument of its chunk step."""

    def _primed(self, pipelines, rows):
        groups, _ = BatchPlanner().plan(
            [(f"d{k}", p, r) for k, (p, r) in enumerate(zip(pipelines, rows))]
        )
        (group,) = groups
        group.prime()
        seen = []

        def consume_for(pipe):
            def consume(X, y, scored=None):
                seen.append(scored)
                return pipe._process_chunk(X, y, scored)

            return consume

        def step(k, X):
            pipe = group.members[k][1]
            y = np.zeros(len(X), dtype=np.int64)
            return group.step([(k, consume_for(pipe), X, y)])[0].records()

        return step, seen

    def test_scalar_consume_is_bit_identical(self):
        rng = np.random.default_rng(5)
        X = rng.normal(0.5, 0.3, size=(8, 6))
        pipe = _pipeline("baseline", seed=1)
        want = [pipe.model.predict_with_score(x) for x in X]
        step, seen = self._primed([pipe], [X])
        for k in range(len(X)):
            recs = step(0, X[k : k + 1])
            labels, scores = seen[-1]
            assert (int(labels[0]), float(scores[0])) == want[k]
            assert (recs[0].predicted, recs[0].anomaly_score) == want[k]

    def test_batch_consume_is_bit_identical(self):
        rng = np.random.default_rng(6)
        X = rng.normal(0.5, 0.3, size=(10, 6))
        a = _pipeline("baseline", seed=1)
        b = _pipeline("baseline", seed=2)
        want_labels, want_scores = b.model.predict_with_score_batch(X)
        step, seen = self._primed([a, b], [X[:3], X])
        step(1, X[:4])
        step(1, X[4:])
        labels, scores = seen[-1]
        assert np.array_equal(labels, want_labels[4:])
        assert scores.tobytes() == want_scores[4:].tobytes()

class TestBatchPlanner:
    def test_groups_by_signature_not_shape(self):
        rng = np.random.default_rng(9)
        rows = rng.normal(0.5, 0.3, size=(5, 6))
        same_a = _pipeline("baseline", seed=1, model_seed=5)
        same_b = _pipeline("baseline", seed=2, model_seed=5)
        other = _pipeline("baseline", seed=3, model_seed=6)
        groups, fallback = BatchPlanner().plan(
            [("a", same_a, rows), ("b", same_b, rows), ("c", other, rows)]
        )
        assert not fallback
        sizes = sorted(g.n_devices for g in groups)
        assert sizes == [1, 2]
        paired = next(g for g in groups if g.n_devices == 2)
        assert paired.device_ids == ["a", "b"]

    def test_sequential_states_fall_back(self):
        rng = np.random.default_rng(10)
        rows = rng.normal(0.5, 0.3, size=(5, 6))
        onlad = _pipeline(
            "onlad", seed=1, pipeline_kwargs={"forgetting_factor": 0.95}
        )
        guarded = _pipeline("proposed", seed=2, guard_policy="impute_last_good")
        drifting = _pipeline("proposed", seed=3)
        drifting.detector.drift = True
        clean = _pipeline("proposed", seed=4)
        groups, fallback = BatchPlanner().plan(
            [
                ("onlad", onlad, rows),
                ("guarded", guarded, rows),
                ("drifting", drifting, rows),
                ("clean", clean, rows),
            ]
        )
        assert [dev for dev, _ in fallback] == ["onlad", "guarded", "drifting"]
        assert [g.device_ids for g in groups] == [["clean"]]

    def test_empty_rows_are_skipped(self):
        pipe = _pipeline("baseline", seed=1)
        groups, fallback = BatchPlanner().plan([("a", pipe, np.empty((0, 6)))])
        assert not groups and not fallback

    def test_group_prime_scores_every_scored_member(self):
        rng = np.random.default_rng(11)
        rows = rng.normal(0.5, 0.3, size=(5, 6))
        a = _pipeline("baseline", seed=1, model_seed=5)
        b = _pipeline("baseline", seed=2, model_seed=5)
        groups, _ = BatchPlanner().plan([("a", a, rows), ("b", b, rows[:3])])
        (group,) = groups
        assert group.n_samples == 8
        assert group.prime() == 8
        for (labels, scores, base), pipe, n in zip(group._scored, (a, b), (5, 3)):
            assert base == pipe._index and len(scores) == len(labels) == n

    def test_reconstructing_member_joins_unscored(self):
        rng = np.random.default_rng(12)
        rows = rng.normal(0.5, 0.3, size=(5, 6))
        clean = _pipeline("proposed", seed=1)
        drifting = _pipeline("proposed", seed=2)
        drifting.detector.drift = True
        groups, fallback = BatchPlanner().plan(
            [("clean", clean, rows), ("drifting", drifting, rows)]
        )
        (group,) = groups
        assert group.device_ids == ["clean"]
        assert group.unscored == [("drifting", drifting)]
        assert [dev for dev, _ in group.members] == ["clean", "drifting"]
        assert fallback == [("drifting", 5)]
        assert group.prime() == 5


class TestSubmitMany:
    def _specs(self, pipelines=("proposed", "baseline"), model_seed=5):
        specs = {}
        for k, pipeline in enumerate(pipelines):
            extra = (
                {"pipeline_kwargs": {"forgetting_factor": 0.95}}
                if pipeline == "onlad"
                else {}
            )
            specs[f"dev{k}"] = ExperimentSpec(
                name=f"dev{k}",
                pipeline=pipeline,
                dataset="blobs",
                seed=20 + k,
                model_seed=model_seed,
                dataset_kwargs={"n_test": 120, "drift_at": 80},
                **extra,
            )
        return specs

    def _streams(self, specs):
        return {dev: build_experiment(spec).test for dev, spec in specs.items()}

    def test_disabled_flag_matches_submit_loop(self, tmp_path):
        specs = self._specs()
        streams = self._streams(specs)
        with FleetManager(capacity=4, spool_dir=tmp_path / "a") as fm:
            for dev, spec in specs.items():
                fm.add_device(dev, spec)
            batch = [
                (dev, streams[dev].X[:60], streams[dev].y[:60]) for dev in specs
            ]
            out = fm.submit_many(batch)
            assert [len(recs) for recs in out] == [60, 60]
            assert fm.stats.batch_groups == 0

    def test_batched_records_match_sequential(self, tmp_path):
        specs = self._specs(("proposed", "baseline", "onlad", "proposed"))
        streams = self._streams(specs)

        def soak(batch_scoring):
            with FleetManager(
                capacity=4,
                spool_dir=tmp_path / f"bs{batch_scoring}",
                batch_scoring=batch_scoring,
            ) as fm:
                for dev, spec in specs.items():
                    fm.add_device(dev, spec)
                for start in range(0, 120, 40):
                    fm.submit_many(
                        [
                            (
                                dev,
                                streams[dev].X[start : start + 40],
                                streams[dev].y[start : start + 40],
                            )
                            for dev in specs
                        ]
                    )
                return fm.finish_all(), fm.stats

        (seq_records, _), (bat_records, stats) = soak(False), soak(True)
        for dev in specs:
            assert seq_records[dev] == bat_records[dev]
        assert stats.batched_samples > 0
        assert stats.fallback_samples > 0  # onlad always falls back

    def test_windows_respect_capacity(self, tmp_path):
        specs = self._specs(("baseline",) * 5)
        streams = self._streams(specs)
        with FleetManager(
            capacity=2, spool_dir=tmp_path / "w", batch_scoring=True
        ) as fm:
            for dev, spec in specs.items():
                fm.add_device(dev, spec)
            out = fm.submit_many(
                [(dev, streams[dev].X[:30], streams[dev].y[:30]) for dev in specs]
            )
            assert [len(recs) for recs in out] == [30] * 5
            assert len(fm.resident) <= 2
            # 5 devices through capacity-2 windows -> 3 windows of GEMMs
            assert fm.stats.batch_groups == 3
            assert fm.stats.batched_samples == 150


    def test_quarantined_device_is_refused_not_stepped(self, tmp_path):
        specs = self._specs(("proposed", "proposed", "baseline"))
        streams = self._streams(specs)
        batch = [(dev, streams[dev].X[:30], streams[dev].y[:30]) for dev in specs]
        with FleetManager(
            capacity=4, spool_dir=tmp_path / "q", batch_scoring=True
        ) as fm:
            for dev, spec in specs.items():
                fm.add_device(dev, spec)
            fm.submit_many(batch)
            fm.quarantine("dev1", "test")
            with pytest.raises(DeviceQuarantinedError):
                fm.submit_many(batch)
            out = fm.submit_many(batch, contain_errors=True)
            assert out[1] is None
            assert "dev1" not in fm.resident
            assert [len(out[0]), len(out[2])] == [30, 30]


class TestFleetStatsBatchFields:
    def test_json_roundtrip_and_merge(self):
        stats = FleetStats(batch_groups=2, batched_samples=100, fallback_samples=7)
        clone = FleetStats.from_json(stats.to_json())
        assert (clone.batch_groups, clone.batched_samples, clone.fallback_samples) == (
            2, 100, 7,
        )
        clone.merge(stats)
        assert clone.batched_samples == 200 and clone.fallback_samples == 14
