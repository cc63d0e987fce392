"""Fleet benchmark: multiplexing throughput under LRU evict/restore churn.

The fleet's acceptance scenario is a 1000-device soak through one
:class:`repro.fleet.FleetManager` with LRU capacity 64 — far more
devices than resident slots, so the manager spends the whole run
spooling sessions to checkpoints and lazily restoring them. The bench
reports sessions/sec and samples/sec, the eviction/restore counts, mean
restore latency, and the byte-identity verdict for a sample of devices,
and writes everything to ``BENCH_fleet.json``.

Two entry points:

* pytest-benchmark (regression tracking)::

      PYTHONPATH=src python -m pytest benchmarks/bench_fleet.py --benchmark-only

* standalone run for CI / the acceptance soak (no pytest needed; exits
  non-zero if any sampled device's records diverge from its standalone
  run)::

      PYTHONPATH=src python benchmarks/bench_fleet.py --smoke   # 24 devices
      PYTHONPATH=src python benchmarks/bench_fleet.py           # 1000 devices
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

from repro.fleet import run_fleet_soak

#: The acceptance-scale soak (full mode).
FULL = dict(n_devices=1000, capacity=64, n_test=120, feed_chunk=60, verify=8)
#: CI smoke: same churn shape (devices >> capacity), seconds not minutes.
SMOKE = dict(n_devices=24, capacity=4, n_test=120, feed_chunk=60, verify=8)

#: Shape-homogeneous resident fleets (devices == capacity, shared
#: model_seed) for the batched-vs-sequential A/B: no LRU churn, so the
#: measured ratio is the scoring path itself.
FULL_AB = dict(n_devices=64, capacity=64, n_test=240, feed_chunk=60, verify=0)
SMOKE_AB = dict(n_devices=12, capacity=12, n_test=120, feed_chunk=60, verify=0)


def run_soak(
    params: dict, *, seed: int = 0, n_shards=None, batch_scoring=False,
    supervise=None, chaos=None, progress=None,
):
    with tempfile.TemporaryDirectory(prefix="repro-fleet-bench-") as tmp:
        return run_fleet_soak(
            params["n_devices"],
            params["capacity"],
            spool_dir=tmp,
            seed=seed,
            n_test=params["n_test"],
            feed_chunk=params["feed_chunk"],
            n_shards=n_shards,
            batch_scoring=batch_scoring,
            supervise=supervise,
            chaos=chaos,
            verify=params["verify"],
            progress=progress,
        )


def homogeneous_ab(params: dict, *, seed: int = 0) -> dict:
    """Sequential-vs-batched samples/sec on a resident homogeneous fleet."""
    sequential = run_soak(params, seed=seed, batch_scoring=False)
    batched = run_soak(params, seed=seed, batch_scoring=True)
    speedup = (
        batched.samples_per_sec / sequential.samples_per_sec
        if sequential.samples_per_sec > 0
        else 0.0
    )
    return {
        "n_devices": params["n_devices"],
        "capacity": params["capacity"],
        "sequential_samples_per_sec": sequential.samples_per_sec,
        "batched_samples_per_sec": batched.samples_per_sec,
        "batch_groups": batched.batch_groups,
        "batched_samples": batched.batched_samples,
        "fallback_samples": batched.fallback_samples,
        "speedup": speedup,
    }


# --------------------------------------------------------------------------
# pytest-benchmark entry points
# --------------------------------------------------------------------------


def test_fleet_churn_throughput(benchmark):
    """Wall time of a small high-churn soak (verification excluded)."""
    params = dict(SMOKE, verify=0)
    report = benchmark(lambda: run_soak(params))
    assert report.evictions > 0 and report.restores > 0


# --------------------------------------------------------------------------
# standalone entry point
# --------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="24-device / capacity-4 variant for CI (same churn shape)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--shards", type=int, default=None, metavar="N",
        help="partition the fleet over N worker processes "
             "(ShardedFleetManager; default: one in-process manager)",
    )
    parser.add_argument(
        "--batch-scoring", action="store_true",
        help="run the soak through the cross-session batched scoring "
             "path and add a sequential-vs-batched A/B on a resident "
             "shape-homogeneous fleet",
    )
    parser.add_argument(
        "--chaos", type=int, default=None, metavar="N",
        help="supervised chaos soak: inject N seeded faults "
             "(kill/hang/corrupt) and record recovery metrics "
             "(respawns, replayed samples, recovery seconds); "
             "requires --shards",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="where to write the JSON report (default: ./BENCH_fleet.json; "
             "with --smoke, the untracked .bench_out/BENCH_fleet_smoke.json)",
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

    supervise = None
    if args.chaos is not None:
        from repro.fleet import SupervisorConfig

        if not sharded:
            parser.error("--chaos requires --shards N (faults hit workers)")
        # A tight deadline keeps hang-escalation fast in CI; the chaos
        # hang sleeps 4x this, so it is always caught, never waited out.
        supervise = SupervisorConfig(request_timeout=2.0, seed=args.seed)

    shard_note = f", {args.shards} shards" if sharded else ""
    chaos_note = f", {args.chaos} chaos events" if args.chaos is not None else ""
    print(
        f"fleet soak: {params['n_devices']} devices, "
        f"capacity {params['capacity']}, {params['n_test']} samples/device"
        f"{shard_note}{chaos_note}"
    )
    report = run_soak(
        params,
        seed=args.seed,
        n_shards=args.shards if sharded else None,
        batch_scoring=args.batch_scoring,
        supervise=supervise,
        chaos=args.chaos,
        progress=print,
    )
    mode = "smoke" if args.smoke else "full"
    if sharded:
        mode += f"-sharded{args.shards}"
    if args.batch_scoring:
        mode += "-batched"
    if args.chaos is not None:
        mode += "-chaos"
    data = report.to_json()
    data["mode"] = mode
    data["seed"] = args.seed

    ab = None
    if args.batch_scoring:
        ab_params = SMOKE_AB if args.smoke else FULL_AB
        print(
            f"homogeneous A/B: {ab_params['n_devices']} resident devices, "
            "sequential vs batched"
        )
        ab = homogeneous_ab(ab_params, seed=args.seed)
        data["homogeneous_ab"] = ab
        print(
            f"  sequential {ab['sequential_samples_per_sec']:.0f} samples/s, "
            f"batched {ab['batched_samples_per_sec']:.0f} samples/s "
            f"-> {ab['speedup']:.2f}x"
        )

    if args.out is None:
        args.out = (
            ".bench_out/BENCH_fleet_smoke.json" if args.smoke else "BENCH_fleet.json"
        )
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(data, indent=2) + "\n")
    if not args.no_history:
        from bench_history import DEFAULT_HISTORY, append_history

        metrics = {
            "samples_per_sec": report.samples_per_sec,
            "sessions_per_sec": report.sessions_per_sec,
            "evictions": report.evictions,
            "restores": report.restores,
            "drifts": report.drifts,
        }
        if ab is not None:
            metrics["ab_batched_samples_per_sec"] = ab["batched_samples_per_sec"]
            metrics["ab_speedup"] = ab["speedup"]
        if supervise is not None:
            metrics["respawns"] = report.respawns
            metrics["replayed_samples"] = report.replayed_samples
            metrics["recovery_seconds"] = report.recovery_seconds
        append_history(args.history or DEFAULT_HISTORY, "fleet", mode, metrics)

    print(
        f"  {report.sessions_per_sec:.1f} sessions/s, "
        f"{report.samples_per_sec:.0f} samples/s"
    )
    print(
        f"  {report.evictions} evictions, {report.restores} restores "
        f"(mean restore {data['restore_ms_mean']:.2f} ms), "
        f"max resident {report.max_resident}"
    )
    if args.batch_scoring:
        print(
            f"  {report.batched_samples} batched / "
            f"{report.fallback_samples} fallback samples "
            f"in {report.batch_groups} group GEMMs"
        )
    if supervise is not None:
        print(
            f"  chaos: {len(report.chaos_events or [])} faults, "
            f"{report.respawns} respawns, "
            f"{report.replayed_samples} samples replayed in "
            f"{report.recovery_seconds:.2f} s, "
            f"quarantined {report.quarantined}"
        )
        if report.failed_recoveries:
            print(
                f"FAIL: {report.failed_recoveries} shard(s) unrecoverable",
                file=sys.stderr,
            )
            return 1
    print(f"  report -> {args.out}")
    if report.mismatches:
        print(
            f"FAIL: fleet records diverged from standalone runs for "
            f"{report.mismatches}",
            file=sys.stderr,
        )
        return 1
    print(
        f"OK: {report.verified} sampled device(s) byte-identical to "
        "standalone runs."
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
