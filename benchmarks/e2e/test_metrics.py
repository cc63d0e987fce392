"""Every metric of BENCHMARK.json is emitted, with its unit, on every workload."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import bench
import workloads

SPEC = json.loads(bench.BENCHMARK_JSON.read_text())


def _run(*args: str, cwd=bench.ROOT, script=bench.HERE / "bench.py"):
    return subprocess.run(
        [sys.executable, str(script), *args],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )


def _results(stdout: str) -> dict:
    """Workload name -> the JSON result line printed after its header."""
    out, current = {}, None
    for line in stdout.splitlines():
        if line.startswith("== "):
            current = line[3:].split(" ", 1)[0]
        elif line.startswith("{"):
            out[current] = json.loads(line)
    return out


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_metric_is_emitted_with_its_unit_on_every_workload(trace, section):
    done = _run("--tiny", "--seconds", "0.1", "--trace", trace, "--seed", "1")
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    results = _results(done.stdout)
    assert set(results) == set(workloads.WORKLOADS)
    assert json.loads(done.stdout.splitlines()[-1]) == results[list(workloads.WORKLOADS)[-1]]
    wanted = {m["name"]: m["unit"] for m in SPEC[section]}
    for name, result in results.items():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0, name
        assert result["attempted"] >= 1
        got = {m: v["unit"] for m, v in result["metrics"].items()}
        assert got == wanted, name
        assert all(isinstance(v["value"], float) for v in result["metrics"].values())
        if section == "end_to_end":
            assert all(v["value"] > 0 for v in result["metrics"].values()), name


def test_benchmark_json_names_the_workloads_the_benchmark_runs():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_without_the_package_it_fails_fast_and_prints_no_result(tmp_path):
    shutil.copy(bench.BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    shutil.copytree(bench.HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("--workload", "fleet-resident", "--seed", "0", "--seconds", "12",
                "--trace", "0", cwd=tmp_path,
                script=tmp_path / "benchmarks" / "e2e" / "bench.py")
    assert done.returncode not in (0, None)
    assert not any(line.startswith("{") for line in done.stdout.splitlines())
