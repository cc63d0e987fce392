"""The declarative layer: registries, ExperimentSpec, layering, CLI specs.

Pins the refactor's contracts:

* registry lookups fail loudly, listing every registered key;
* ``ExperimentSpec`` JSON round-trips losslessly and hashes stably;
* building the same spec twice yields byte-identical record streams;
* the engine's import layering holds (``tools/check_layering.py``);
* ``python -m repro spec file.json`` runs experiments from a JSON file.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.engine import (
    DATASET_FACTORIES,
    PIPELINE_BUILDERS,
    ExperimentSpec,
    build_experiment,
    register_dataset,
    register_pipeline,
    resolve_dataset,
    resolve_detector,
    resolve_pipeline,
)
from repro.metrics import evaluate_method
from repro.utils.exceptions import ConfigurationError

REPO = Path(__file__).resolve().parent.parent

BLOBS_SPEC = dict(
    name="cell",
    pipeline="proposed",
    dataset="blobs",
    seed=0,
    model_seed=1,
    pipeline_kwargs={"window_size": 60},
    dataset_kwargs={"n_test": 600, "drift_at": 200},
)


class TestRegistry:
    def test_builtin_population(self):
        assert {"proposed", "baseline", "onlad", "quanttree", "spll", "hdddm"} <= set(
            PIPELINE_BUILDERS
        )
        assert {"nslkdd", "coolingfan", "blobs"} <= set(DATASET_FACTORIES)

    def test_unknown_pipeline_lists_registered_keys(self):
        with pytest.raises(ConfigurationError) as excinfo:
            resolve_pipeline("no-such-method")
        message = str(excinfo.value)
        assert "'no-such-method'" in message
        for key in sorted(PIPELINE_BUILDERS):
            assert key in message
        assert "module:callable" in message

    def test_unknown_dataset_lists_registered_keys(self):
        with pytest.raises(ConfigurationError) as excinfo:
            resolve_dataset("no-such-stream")
        for key in sorted(DATASET_FACTORIES):
            assert key in str(excinfo.value)

    def test_unknown_detector_lists_registered_keys(self):
        with pytest.raises(ConfigurationError) as excinfo:
            resolve_detector("no-such-detector")
        assert "sequential" in str(excinfo.value)

    def test_module_callable_fallback(self):
        builder = resolve_pipeline("repro.core.factory:build_proposed")
        from repro.core.factory import build_proposed

        assert builder is build_proposed

    def test_decorator_registration_and_duplicate_guard(self):
        @register_pipeline("_test_engine_spec_tmp")
        def _builder(X, y, *, seed=None):  # pragma: no cover - never built
            raise AssertionError

        try:
            assert resolve_pipeline("_test_engine_spec_tmp") is _builder
            # same object re-registration is idempotent
            register_pipeline("_test_engine_spec_tmp", _builder)
            with pytest.raises(ConfigurationError, match="already registered"):
                register_pipeline("_test_engine_spec_tmp", lambda X, y: None)
            register_pipeline("_test_engine_spec_tmp", _builder, overwrite=True)
        finally:
            PIPELINE_BUILDERS.pop("_test_engine_spec_tmp", None)


class TestExperimentSpec:
    def test_json_round_trip_is_lossless(self):
        spec = ExperimentSpec(**BLOBS_SPEC, n_test=500, chunk_size=64,
                              guard_policy="clip")
        # through an actual serialized string, not just dicts
        clone = ExperimentSpec.from_json(json.loads(json.dumps(spec.to_json())))
        assert clone == spec
        assert clone.config_hash() == spec.config_hash()
        assert clone.to_json() == spec.to_json()

    def test_round_trip_of_minimal_spec(self):
        spec = ExperimentSpec(name="m", pipeline="proposed", dataset="blobs")
        assert ExperimentSpec.from_json(spec.to_json()) == spec

    def test_from_json_rejects_unknown_fields(self):
        with pytest.raises(ConfigurationError, match="pipeline_kwargz"):
            ExperimentSpec.from_json(
                {"name": "x", "pipeline": "proposed", "dataset": "blobs",
                 "pipeline_kwargz": {}}
            )

    def test_from_json_requires_identity_fields(self):
        with pytest.raises(ConfigurationError, match="dataset"):
            ExperimentSpec.from_json({"name": "x", "pipeline": "proposed"})

    def test_hash_ignores_name_but_not_params(self):
        a = ExperimentSpec(**BLOBS_SPEC)
        b = a.replace(name="other display name")
        c = a.replace(pipeline_kwargs={"window_size": 61})
        assert a.config_hash() == b.config_hash()
        assert a.config_hash() != c.config_hash()

    def test_model_seed_defaults_to_seed(self):
        assert ExperimentSpec(name="x", pipeline="p", dataset="d",
                              seed=7).effective_model_seed == 7
        assert ExperimentSpec(name="x", pipeline="p", dataset="d", seed=7,
                              model_seed=3).effective_model_seed == 3


class TestBuildExperiment:
    def test_same_spec_twice_is_byte_identical(self):
        spec = ExperimentSpec(**BLOBS_SPEC)
        runs = []
        for _ in range(2):
            experiment = build_experiment(spec)
            result = evaluate_method(experiment.pipeline, experiment.test,
                                     name=spec.name)
            runs.append(result.records)
        assert runs[0] == runs[1]

    def test_n_test_truncates_stream(self):
        spec = ExperimentSpec(**{**BLOBS_SPEC, "n_test": 250})
        assert len(build_experiment(spec).test) == 250

    def test_guard_policy_attaches_guard(self):
        spec = ExperimentSpec(**BLOBS_SPEC).replace(guard_policy="clip")
        experiment = build_experiment(spec)
        assert experiment.guard is not None
        assert experiment.pipeline.guard is experiment.guard

    def test_custom_registered_dataset_runs(self):
        @register_dataset("_test_engine_spec_ds")
        def _tiny(**kwargs):
            return DATASET_FACTORIES["blobs"](n_test=300, drift_at=100,
                                              seed=kwargs.get("seed", 0))

        try:
            spec = ExperimentSpec(name="c", pipeline="baseline",
                                  dataset="_test_engine_spec_ds")
            records = build_experiment(spec).run()
            assert len(records) == 300
        finally:
            DATASET_FACTORIES.pop("_test_engine_spec_ds", None)


class TestCliModelSeed:
    def test_model_seed_flag_threads_into_specs(self):
        import argparse

        from repro.cli import _spec

        args = argparse.Namespace(seed=3, model_seed=9, guard_policy=None)
        spec = _spec(args, name="x", pipeline="proposed", dataset="blobs")
        assert spec.seed == 3
        assert spec.model_seed == 9
        assert spec.effective_model_seed == 9

    def test_model_seed_default_is_one(self):
        # the paper tables fix the model seed at 1 while --seed moves data
        import argparse

        from repro.cli import main

        parser_default = None

        def fake_table4(args):
            nonlocal parser_default
            parser_default = args.model_seed

        from repro import cli

        original = cli.COMMANDS["table4"]
        cli.COMMANDS["table4"] = fake_table4
        try:
            assert main(["table4"]) == 0
        finally:
            cli.COMMANDS["table4"] = original
        assert parser_default == 1


class TestLayering:
    def test_check_layering_passes(self):
        proc = subprocess.run(
            [sys.executable, str(REPO / "tools" / "check_layering.py")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "layering check OK" in proc.stdout


class TestCliSpecCommand:
    def _write_spec(self, tmp_path: Path) -> Path:
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"experiments": [
            {"name": "Tiny proposed", "pipeline": "proposed",
             "dataset": "blobs", "seed": 0, "model_seed": 1,
             "pipeline_kwargs": {"window_size": 60},
             "dataset_kwargs": {"n_test": 500, "drift_at": 150}},
        ]}))
        return path

    def test_spec_file_runs_via_cli(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["spec", str(self._write_spec(tmp_path))]) == 0
        out = capsys.readouterr().out
        assert "Spec run" in out and "Tiny proposed" in out
        assert "proposed @ blobs" in out

    def test_single_object_spec_file(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "one.json"
        path.write_text(json.dumps(
            {"name": "Solo", "pipeline": "baseline", "dataset": "blobs",
             "dataset_kwargs": {"n_test": 300, "drift_at": 100}}
        ))
        assert main(["spec", str(path)]) == 0
        assert "Solo" in capsys.readouterr().out

    def test_spec_command_requires_path(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["spec"])

    def test_spec_path_rejected_for_table_commands(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["table4", "whatever.json"])

    def test_bad_spec_field_fails_loudly(self, tmp_path):
        from repro.cli import main

        path = tmp_path / "bad.json"
        path.write_text(json.dumps(
            {"name": "x", "pipeline": "proposed", "dataset": "blobs",
             "pipline_kwargs": {}}
        ))
        with pytest.raises(ConfigurationError, match="pipline_kwargs"):
            main(["spec", str(path)])
