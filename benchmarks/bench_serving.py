"""Serving benchmark: sustained ingest throughput and tail latency.

The serving acceptance scenario drives the full network path — seeded
load generator over HTTP into the asyncio front-end, through the
admission controller and per-device lanes, dispatched in arrival windows
to a batched-scoring fleet manager — and reports sustained samples/sec,
admission-to-completion p50/p99 latency, and the byte-identity verdict
for a sample of devices against standalone runs. Results land in
``BENCH_serving.json`` plus the shared perf trajectory
(``BENCH_history.jsonl``, gated by ``tools/check_bench_regression.py``).

Two entry points:

* pytest-benchmark (regression tracking)::

      PYTHONPATH=src python -m pytest benchmarks/bench_serving.py --benchmark-only

* standalone run for CI / the acceptance soak (exits non-zero if any
  sampled device's records diverge, or if chunks were lost)::

      PYTHONPATH=src python benchmarks/bench_serving.py --smoke   # 24 devices
      PYTHONPATH=src python benchmarks/bench_serving.py           # 1000 devices
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

from repro.engine import build_experiment
from repro.fleet.soak import make_fleet_specs, verify_device
from repro.serving import ServingStack, run_load

#: The acceptance-scale serving soak (full mode).
FULL = dict(
    n_devices=1000, capacity=64, n_test=120, feed_chunk=60,
    queue_capacity=64, verify=8,
)
#: CI smoke: same shape (devices >> capacity), seconds not minutes.
SMOKE = dict(
    n_devices=24, capacity=4, n_test=120, feed_chunk=60,
    queue_capacity=16, verify=4,
)


def run_serving(
    params: dict, *, seed: int = 0, http: bool = True, reorder: float = 0.2,
    n_shards=None, progress=None,
):
    """One served soak -> (LoadReport, mismatched device ids)."""
    specs = make_fleet_specs(
        params["n_devices"], seed=seed, n_test=params["n_test"]
    )
    streams = {dev: build_experiment(spec).test for dev, spec in specs.items()}
    with tempfile.TemporaryDirectory(prefix="repro-serving-bench-") as tmp:
        stack = ServingStack(
            capacity=params["capacity"],
            spool_dir=tmp,
            batch_scoring=True,
            n_shards=n_shards,
            queue_capacity=params["queue_capacity"],
            gap_window=8,
        )
        for dev, spec in specs.items():
            stack.register(dev, spec)
        stack.core.start()
        if http:
            stack.server.start()
        try:
            report = run_load(
                stack,
                streams,
                feed_chunk=params["feed_chunk"],
                seed=seed,
                reorder=reorder,
                retry_scale=0.05,
                progress=progress,
            )
            per_device = stack.finish_all()
        finally:
            stack.server.stop()
            stack.core.close()
    mismatches = [
        dev
        for dev in list(specs)[: params["verify"]]
        if not verify_device(specs[dev], per_device[dev])
    ]
    return report, mismatches


# --------------------------------------------------------------------------
# pytest-benchmark entry points
# --------------------------------------------------------------------------


def test_serving_ingest_throughput(benchmark):
    """Wall time of a small served soak over HTTP (verification excluded)."""
    params = dict(SMOKE, verify=0)
    report, _ = benchmark(lambda: run_serving(params))
    assert report.undelivered == 0 and report.completed == report.admitted


# --------------------------------------------------------------------------
# standalone entry point
# --------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="24-device / capacity-4 variant for CI (same shape)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--shards", type=int, default=None, metavar="N",
        help="serve a ShardedFleetManager over N worker processes "
             "(default: one in-process manager)",
    )
    parser.add_argument(
        "--direct", action="store_true",
        help="skip HTTP: drive the ingestion core in-process (isolates "
             "the lane/dispatch overhead from socket + JSON costs)",
    )
    parser.add_argument(
        "--reorder", type=float, default=0.2, metavar="P",
        help="probability a chunk is delivered out of order (default 0.2)",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="where to write the JSON report (default: ./BENCH_serving.json; "
             "with --smoke, the untracked .bench_out/BENCH_serving_smoke.json)",
    )
    parser.add_argument(
        "--history", default=None, metavar="PATH",
        help="perf-trajectory JSONL to append to "
             "(default: ./BENCH_history.jsonl at the repo root)",
    )
    parser.add_argument(
        "--no-history", action="store_true",
        help="skip the trajectory append (exploratory runs)",
    )
    args = parser.parse_args(argv)
    params = SMOKE if args.smoke else FULL
    sharded = args.shards is not None and args.shards > 0

    transport = "direct" if args.direct else "http"
    shard_note = f", {args.shards} shards" if sharded else ""
    print(
        f"serving soak ({transport}): {params['n_devices']} devices, "
        f"capacity {params['capacity']}, {params['n_test']} samples/device, "
        f"reorder {args.reorder}{shard_note}"
    )
    report, mismatches = run_serving(
        params,
        seed=args.seed,
        http=not args.direct,
        reorder=args.reorder,
        n_shards=args.shards if sharded else None,
        progress=print,
    )
    mode = "smoke" if args.smoke else "full"
    if sharded:
        mode += f"-sharded{args.shards}"
    if args.direct:
        mode += "-direct"
    data = report.to_json()
    data["mode"] = mode
    data["seed"] = args.seed
    data["verified_devices"] = params["verify"]
    data["mismatches"] = mismatches

    if args.out is None:
        args.out = (
            ".bench_out/BENCH_serving_smoke.json" if args.smoke else "BENCH_serving.json"
        )
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(data, indent=2) + "\n")
    if not args.no_history:
        from bench_history import DEFAULT_HISTORY, append_history

        append_history(
            args.history or DEFAULT_HISTORY,
            "serving",
            mode,
            {
                "samples_per_sec": report.samples_per_sec,
                "p50_latency_ms": report.p50_latency_ms,
                "p99_latency_ms": report.p99_latency_ms,
                "admitted": report.admitted,
                "retries": report.retries,
            },
        )

    print(
        f"  {report.samples_per_sec:.0f} samples/s over {transport}, "
        f"p50 {report.p50_latency_ms:.1f} ms, p99 {report.p99_latency_ms:.1f} ms"
    )
    print(
        f"  {report.admitted}/{report.chunks} chunks admitted, "
        f"{report.retries} retries, statuses {report.statuses}"
    )
    print(f"  report -> {args.out}")
    if report.undelivered or report.completed != report.admitted:
        print(
            f"FAIL: {report.undelivered} undelivered chunk(s), "
            f"{report.admitted - report.completed} admitted without "
            "completion",
            file=sys.stderr,
        )
        return 1
    if mismatches:
        print(
            f"FAIL: served records diverged from standalone runs for "
            f"{mismatches}",
            file=sys.stderr,
        )
        return 1
    print(
        f"OK: {params['verify']} sampled device(s) byte-identical to "
        "standalone runs."
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
