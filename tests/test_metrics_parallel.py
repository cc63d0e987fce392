"""Unit tests for the ParallelRunner experiment grid."""

from __future__ import annotations

import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core import build_baseline, build_proposed
from repro.engine import DATASET_FACTORIES, PIPELINE_BUILDERS, ExperimentSpec
from repro.metrics import (
    ParallelExecutionError,
    ParallelRunner,
    compare_methods,
    make_grid,
    run_cell,
)
from repro.utils.exceptions import ConfigurationError

#: One small, fast grid reused across tests (stream seed pinned so the
#: cell seed only drives the models).
BLOBS_KWARGS = {"seed": 3, "n_test": 400, "drift_at": 150}
METHODS = {
    "Proposed": ("proposed", {"window_size": 30}),
    "Baseline": ("baseline", {}),
}
STREAMS = {"blobs": ("blobs", dict(BLOBS_KWARGS))}


def small_cells(seeds=(1,)):
    return make_grid(METHODS, STREAMS, seeds=list(seeds))


class TestCellSpec:
    def test_hash_ignores_display_name(self):
        a = ExperimentSpec(name="A", pipeline="baseline", dataset="blobs", seed=1)
        b = ExperimentSpec(name="B", pipeline="baseline", dataset="blobs", seed=1)
        assert a.config_hash() == b.config_hash()

    def test_hash_sensitive_to_config(self):
        base = ExperimentSpec(name="x", pipeline="baseline", dataset="blobs", seed=1)
        variants = [
            ExperimentSpec(name="x", pipeline="proposed", dataset="blobs", seed=1),
            ExperimentSpec(name="x", pipeline="baseline", dataset="blobs", seed=2),
            ExperimentSpec(name="x", pipeline="baseline", dataset="blobs", seed=1,
                           pipeline_kwargs={"n_hidden": 8}),
            ExperimentSpec(name="x", pipeline="baseline", dataset="blobs", seed=1, n_test=99),
            ExperimentSpec(name="x", pipeline="baseline", dataset="blobs", seed=1, chunk_size=1),
        ]
        hashes = {v.config_hash() for v in variants}
        assert base.config_hash() not in hashes
        assert len(hashes) == len(variants)

    def test_make_grid_shape_and_names(self):
        cells = make_grid(METHODS, STREAMS, seeds=[1, 2])
        assert len(cells) == 4
        assert {c.name for c in cells} == {"Proposed", "Baseline"}  # one stream
        two = make_grid(METHODS, {**STREAMS, "b2": ("blobs", {"seed": 9})}, seeds=[1])
        assert "Proposed @ b2" in {c.name for c in two}

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigurationError):
            run_cell(ExperimentSpec(name="x", pipeline="nope", dataset="blobs", seed=1))
        with pytest.raises(ConfigurationError):
            run_cell(ExperimentSpec(name="x", pipeline="baseline", dataset="nope", seed=1))


class TestEquivalence:
    def test_reproduces_compare_methods_cell_for_cell(self):
        """Acceptance: same seeds → the grid runner returns exactly what a
        serial compare_methods run produces, record for record."""
        train, test = DATASET_FACTORIES["blobs"](**BLOBS_KWARGS)
        builders = {
            "Proposed": lambda: build_proposed(train.X, train.y, window_size=30, seed=1),
            "Baseline": lambda: build_baseline(train.X, train.y, seed=1),
        }
        direct = compare_methods(builders, test)

        runner = ParallelRunner(max_workers=1, keep_records=True)
        for res in runner.run(small_cells(seeds=[1])):
            ref = direct[res.name]
            assert res.accuracy == ref.accuracy
            assert tuple(res.detections) == ref.delay.detections
            assert tuple(res.delays) == ref.delay.delays
            assert res.to_method_result().records == ref.records

    def test_deterministic_across_max_workers(self):
        cells = small_cells(seeds=[1, 2])
        inline = ParallelRunner(max_workers=1, keep_records=True).run(cells)
        pooled = ParallelRunner(max_workers=2, keep_records=True, timeout=300).run(cells)
        for a, b in zip(inline, pooled):
            assert a.accuracy == b.accuracy
            assert a.delays == b.delays
            assert a.records == b.records


class TestCache:
    def test_second_invocation_served_from_cache(self, tmp_path):
        cells = small_cells()
        runner = ParallelRunner(cache_dir=tmp_path, max_workers=1, keep_records=True)
        first = runner.run(cells)
        assert all(not r.from_cache for r in first)
        second = runner.run(cells)
        assert all(r.from_cache for r in second)
        for a, b in zip(first, second):
            assert a.accuracy == b.accuracy
            assert a.records == b.records
            assert a.to_method_result().records == b.to_method_result().records

    def test_changed_config_misses_cache(self, tmp_path):
        runner = ParallelRunner(cache_dir=tmp_path, max_workers=1)
        runner.run(small_cells(seeds=[1]))
        fresh = runner.run(small_cells(seeds=[2]))
        assert all(not r.from_cache for r in fresh)

    def test_records_requested_but_not_cached_recomputes(self, tmp_path):
        cells = small_cells()
        ParallelRunner(cache_dir=tmp_path, max_workers=1, keep_records=False).run(cells)
        upgraded = ParallelRunner(
            cache_dir=tmp_path, max_workers=1, keep_records=True
        ).run(cells)
        assert all(not r.from_cache for r in upgraded)
        assert all(r.records is not None for r in upgraded)

    def test_no_records_means_no_method_result(self):
        (res,) = ParallelRunner(max_workers=1).run(small_cells(seeds=[1]))[:1]
        assert res.records is None
        with pytest.raises(ConfigurationError):
            res.to_method_result()


class TestCacheVersionStamp:
    def test_cache_files_carry_package_version(self, tmp_path):
        import json

        import repro

        ParallelRunner(cache_dir=tmp_path, max_workers=1).run(small_cells())
        payloads = [json.loads(p.read_text()) for p in tmp_path.glob("*.json")]
        assert payloads
        assert all(p["repro_version"] == repro.__version__ for p in payloads)

    def test_version_mismatch_is_cache_miss(self, tmp_path, monkeypatch):
        runner = ParallelRunner(cache_dir=tmp_path, max_workers=1)
        runner.run(small_cells())
        monkeypatch.setattr("repro.__version__", "0.0.0-stale")
        rerun = runner.run(small_cells())
        assert all(not r.from_cache for r in rerun)  # stale stamp ignored
        third = runner.run(small_cells())  # re-stamped on the re-run
        assert all(r.from_cache for r in third)


class TestRetry:
    def test_transient_failure_is_retried(self, monkeypatch):
        calls = {"n": 0}

        def flaky(X, y, *, seed=None, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("transient worker failure")
            return build_baseline(X, y, seed=seed)

        monkeypatch.setitem(PIPELINE_BUILDERS, "flaky", flaky)
        cells = [
            ExperimentSpec(name="flaky", pipeline="flaky", dataset="blobs", seed=1,
                           dataset_kwargs=dict(BLOBS_KWARGS))
        ]
        (res,) = ParallelRunner(max_workers=1, retries=1).run(cells)
        assert res.attempts == 2
        assert calls["n"] == 2

    def test_persistent_failure_raises_after_retries(self, monkeypatch):
        def broken(X, y, *, seed=None, **kwargs):
            raise RuntimeError("always broken")

        monkeypatch.setitem(PIPELINE_BUILDERS, "broken", broken)
        cells = [
            ExperimentSpec(name="broken", pipeline="broken", dataset="blobs", seed=1,
                           dataset_kwargs=dict(BLOBS_KWARGS))
        ]
        with pytest.raises(ParallelExecutionError, match="always broken"):
            ParallelRunner(max_workers=1, retries=2).run(cells)

    def test_failures_do_not_poison_other_cells(self, monkeypatch):
        def broken(X, y, *, seed=None, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setitem(PIPELINE_BUILDERS, "broken", broken)
        good = small_cells(seeds=[1])
        bad = ExperimentSpec(name="broken", pipeline="broken", dataset="blobs", seed=1,
                             dataset_kwargs=dict(BLOBS_KWARGS))
        with pytest.raises(ParallelExecutionError) as excinfo:
            ParallelRunner(max_workers=1, retries=0).run([*good, bad])
        assert "broken" in str(excinfo.value)
        assert "Proposed" not in str(excinfo.value)  # the good cells ran


class TestPooledWorkerFaults:
    """A hung or dying worker costs only its own cell, and no worker
    outlives ``run()``."""

    def test_hung_cell_times_out_and_leaves_no_workers(self):
        hung = ExperimentSpec(
            name="Hangs",
            pipeline="tests._resilience_helpers:hanging_builder",
            dataset="blobs",
            seed=1,
            pipeline_kwargs={"hang_seconds": 30.0, "window_size": 30},
            dataset_kwargs=dict(BLOBS_KWARGS),
        )
        before = set(multiprocessing.active_children())
        start = time.monotonic()
        with pytest.raises(ParallelExecutionError) as excinfo:
            ParallelRunner(max_workers=2, timeout=1, retries=1).run(
                [hung, *small_cells()]
            )
        # Two 1 s attempts plus worker start-up and kills: far below the
        # builder's 30 s sleep, which no worker may be left to finish.
        assert time.monotonic() - start < 10.0
        assert set(multiprocessing.active_children()) - before == set()
        message = str(excinfo.value)
        assert "1 cell(s) failed after 2 attempt(s)" in message
        assert "'Hangs': timed out after 1s" in message

    @staticmethod
    def _grid_with_dying_cell(tmp_path):
        cells = small_cells(seeds=[1, 2, 3])  # six cells
        cells[2] = cells[2].replace(
            name="Dies once",
            pipeline="tests._resilience_helpers:exiting_builder",
            pipeline_kwargs={
                **cells[2].pipeline_kwargs,
                "exit_marker": str(tmp_path / "exited.marker"),
            },
        )
        return cells

    def test_dead_worker_retries_only_its_cell(self, tmp_path):
        cells = self._grid_with_dying_cell(tmp_path)
        pooled = ParallelRunner(max_workers=2, retries=1, keep_records=True).run(cells)
        assert [r.attempts for r in pooled] == [1, 1, 2, 1, 1, 1]
        # The marker now exists, so the inline reference run never exits.
        inline = ParallelRunner(max_workers=1, keep_records=True).run(cells)
        for a, b in zip(pooled, inline):
            assert a.name == b.name
            assert a.accuracy == b.accuracy
            assert a.delays == b.delays
            assert a.records == b.records

    def test_dead_worker_without_retries_fails_only_its_cell(self, tmp_path):
        cells = self._grid_with_dying_cell(tmp_path)
        with pytest.raises(ParallelExecutionError) as excinfo:
            ParallelRunner(max_workers=2, retries=0).run(cells)
        message = str(excinfo.value)
        assert message.startswith("1 cell(s) failed after 1 attempt(s)")
        assert "'Dies once'" in message
        assert "Proposed" not in message
        assert "Baseline" not in message


class TestPackageImport:
    def test_import_repro_loads_no_process_pool(self):
        """``import repro`` stays light: the process pool is loaded only
        when a pooled grid actually runs."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        )}
        code = (
            "import sys, repro; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('multiprocessing', 'concurrent')))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestRunGrid:
    def test_keys_are_method_stream_seed(self):
        runner = ParallelRunner(max_workers=1)
        out = runner.run_grid(METHODS, STREAMS, seeds=[1, 2])
        assert set(out) == {
            (m, "blobs", s) for m in METHODS for s in (1, 2)
        }
        for (method, _stream, _seed), res in out.items():
            assert res.name == method

    def test_cell_seed_changes_results(self):
        runner = ParallelRunner(max_workers=1)
        out = runner.run_grid(
            {"Baseline": ("baseline", {})},
            # no stream seed pinned: the cell seed drives data + model
            {"blobs": ("blobs", {"n_test": 400, "drift_at": 150})},
            seeds=[1, 2],
        )
        a = out[("Baseline", "blobs", 1)]
        b = out[("Baseline", "blobs", 2)]
        assert a.accuracy != b.accuracy


class TestJsonRoundTrip:
    def test_float_scores_survive_cache_bitwise(self, tmp_path):
        cells = small_cells()
        runner = ParallelRunner(cache_dir=tmp_path, max_workers=1, keep_records=True)
        live = runner.run(cells)
        cached = runner.run(cells)
        for a, b in zip(live, cached):
            sa = np.array(a.records["anomaly_score"])
            sb = np.array(b.records["anomaly_score"])
            np.testing.assert_array_equal(sa, sb)  # exact, not approx


class TestCacheIntegrity:
    """The cache key must cover every result-affecting spec field, and
    store/load must agree on both the path and the spec comparison."""

    def test_distinct_paths_for_each_identity_field(self, tmp_path):
        runner = ParallelRunner(cache_dir=tmp_path, max_workers=1)
        base = ExperimentSpec(name="x", pipeline="baseline", dataset="blobs", seed=1)
        variants = [
            base.replace(model_seed=9),
            base.replace(chunk_size=32),
            base.replace(n_test=50),
            base.replace(guard_policy="clip"),
            base.replace(dataset_kwargs={"n_test": 80}),
            base.replace(pipeline_kwargs={"n_hidden": 8}),
        ]
        paths = {runner._cache_path(v) for v in [base, *variants]}
        assert len(paths) == len(variants) + 1

    def test_store_lands_exactly_where_load_looks(self, tmp_path):
        runner = ParallelRunner(cache_dir=tmp_path, max_workers=1)
        (cell,) = small_cells(seeds=[1])[:1]
        runner.run([cell])
        assert runner._cache_path(cell).is_file()
        assert runner._cache_load(cell) is not None

    def test_tuple_valued_kwargs_hit_cache_on_rerun(self, tmp_path):
        # Regression: the stored spec goes through a JSON round trip
        # (tuple -> list), so the loader's equality check used to report
        # a permanent mismatch and silently recompute every run.
        spec = ExperimentSpec(
            name="tuple-cell",
            pipeline="tests._resilience_helpers:tuple_kwarg_builder",
            dataset="blobs",
            seed=1,
            pipeline_kwargs={"widths": (8, 4), "window_size": 30},
            dataset_kwargs=dict(BLOBS_KWARGS),
        )
        runner = ParallelRunner(cache_dir=tmp_path, max_workers=1)
        (first,) = runner.run([spec])
        assert not first.from_cache
        (second,) = runner.run([spec])
        assert second.from_cache

    def test_display_name_change_still_hits(self, tmp_path):
        (cell,) = small_cells(seeds=[1])[:1]
        runner = ParallelRunner(cache_dir=tmp_path, max_workers=1)
        runner.run([cell])
        (renamed,) = runner.run([cell.replace(name="Renamed Cell")])
        assert renamed.from_cache
        assert renamed.name == "Renamed Cell"


class TestCellTelemetry:
    """Worker-hub metrics ride back with each cell and merge losslessly."""

    def with_hub(self, fn):
        from repro.telemetry import RingBufferSink, configure, get_telemetry

        configure(enabled=True, sinks=[RingBufferSink()], reset=True)
        try:
            return fn(get_telemetry())
        finally:
            configure(enabled=False, sinks=[], reset=True)

    def test_pooled_workers_metrics_land_in_parent_hub(self):
        def go(tel):
            ParallelRunner(max_workers=2, timeout=300).run(small_cells(seeds=[1]))
            c = tel.registry.get("pipeline.samples")
            assert c is not None
            # Two cells x 400 test samples, every one counted exactly once.
            assert c.total == float(2 * BLOBS_KWARGS["n_test"])
            assert tel.registry.get("parallel.cells_run").total == 2.0

        self.with_hub(go)

    def test_pooled_totals_equal_inline_totals(self):
        def inline(tel):
            ParallelRunner(max_workers=1).run(small_cells(seeds=[1]))
            return tel.registry.get("pipeline.samples").total

        def pooled(tel):
            ParallelRunner(max_workers=2, timeout=300).run(small_cells(seeds=[1]))
            return tel.registry.get("pipeline.samples").total

        assert self.with_hub(inline) == self.with_hub(pooled)

    def test_cached_cells_do_not_replay_worker_metrics(self, tmp_path):
        def go(tel):
            runner = ParallelRunner(cache_dir=tmp_path, max_workers=2, timeout=300)
            runner.run(small_cells(seeds=[1]))
            before = tel.registry.get("pipeline.samples").total
            again = runner.run(small_cells(seeds=[1]))
            assert all(r.from_cache for r in again)
            assert tel.registry.get("pipeline.samples").total == before

        self.with_hub(go)

    def test_disabled_hub_attaches_no_cell_telemetry(self):
        results = ParallelRunner(max_workers=2, timeout=300).run(
            small_cells(seeds=[1])
        )
        assert all(r.telemetry is None for r in results)
