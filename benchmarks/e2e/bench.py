"""End-to-end benchmark of the fleet stack: two workloads, one command.

Run from the repository root (no ``PYTHONPATH`` needed; the script
puts ``src`` on the path itself)::

    python3 benchmarks/e2e/bench.py                       # every workload, seed 0
    python3 benchmarks/e2e/bench.py --workload serve-paced --seed 1 --seconds 45
    python3 benchmarks/e2e/bench.py --trace               # per-layer run
    python3 benchmarks/e2e/bench.py calibrate --sets 10 --out DIR [--seed N] [--write]
    python3 benchmarks/e2e/bench.py compare PARENT_DIR CHANGE_DIR \\
        [--claim samples_per_sec@fleet-resident]
    python3 benchmarks/e2e/bench.py fingerprint --seeds 0-31

A run prints every metric by name with its unit, then the correctness
gates, and as its last line one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the ``end_to_end``
metrics of ``BENCHMARK.json`` untraced (``--trace 0``), its
``per_layer`` metrics with ``--trace 1``; names and units come from
there. It exits 1 when a gate fails
and 2 when the checkout has no ``src/repro`` to benchmark. Outputs
(spans JSONL, eviction spool) go to ``.bench_out/e2e/`` at the root.
See ``benchmarks/e2e/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out" / "e2e"
FINGERPRINTS = HERE / "fingerprints.json"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

#: Each run sets the system up at least this often (``setup_s`` is the
#: median), and repeats until ``--seconds`` of load were measured, to
#: within half a repetition.
MIN_REPS = 5
MAX_REPS = 40

#: Correctness gates for the open-loop generator itself.
MAX_LAG_P99_S = 0.010
MIN_COMPLETION_SHARE = 0.95


def _median(values) -> float:
    return float(statistics.median(values))


def _pct(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) if len(values) else 0.0


def _spec() -> dict:
    return json.loads(BENCHMARK_JSON.read_text())


def _units(section: str) -> dict:
    """``name -> unit`` of a ``BENCHMARK.json`` metric section, in order."""
    return {m["name"]: m["unit"] for m in _spec()[section]}


def _load_fingerprints() -> dict:
    if FINGERPRINTS.is_file():
        return json.loads(FINGERPRINTS.read_text())
    return {}


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------


def end_to_end_metrics(reps: list, kind: str) -> dict:
    """The ``end_to_end`` metrics of untraced repetitions.

    Throughput, set-up and memory are medians over repetitions. Every
    closed-loop (``fleet``) repetition replays the same windows, so
    latency percentiles are over the chunks of all of them: 40–80 chunks
    lie beyond p99 instead of one repetition's 6–16. Every open-loop
    repetition draws its own arrival schedule, whose few tightest bursts
    set its tail, so latency is the median over repetitions of each
    one's percentile: pooled, the worst schedule of the run would set p99.
    """
    if kind == "fleet":
        pooled = [v for r in reps for v in r["latencies"]]
        p50, p99 = _pct(pooled, 50), _pct(pooled, 99)
    else:
        p50 = _median([_pct(r["latencies"], 50) for r in reps])
        p99 = _median([_pct(r["latencies"], 99) for r in reps])
    q = reps[0]["quality"]
    return {
        "samples_per_sec": _median([r["samples"] / r["wall_s"] for r in reps]),
        "latency_p50_ms": 1000.0 * p50,
        "latency_p99_ms": 1000.0 * p99,
        "setup_s": _median([r["setup_s"] for r in reps]),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in reps]),
        "accuracy": q["correct"] / q["samples"] if q["samples"] else 0.0,
    }


def per_layer_metrics(untraced: list, traced: list, names) -> dict:
    """The ``per_layer`` metrics: medians over the traced repetitions.

    ``trace.overhead_frac`` compares the median measured wall of the
    traced repetitions with that of the untraced ones between them.
    """
    import layers

    rows = []
    for rep in traced:
        trace = rep["layers"]
        m = dict(trace["metrics"])
        offers = trace.get("offers", {})
        posts = [
            {"rtt": p["rtt"], "offer": offers.get(p["key"])}
            for p in rep.get("posts", ())
        ]
        m.update(layers.server_metrics(posts, rep.get("requests", 0)))
        m["serving.admission.retries"] = float(rep["retries"])
        m["trace.unaccounted_frac"] = trace.get(
            "unaccounted_frac", rep.get("driver_unaccounted", 0.0)
        )
        rows.append(m)
    out = {name: _median([row[name] for row in rows]) for name in names
           if name != "trace.overhead_frac"}
    out["trace.overhead_frac"] = (
        _median([r["wall_s"] for r in traced])
        / _median([r["wall_s"] for r in untraced]) - 1.0
    )
    return out


def gates(workload, reps: list, fingerprint: str, seed: int, tiny: bool) -> list:
    """``(name, ok, detail)`` for every correctness gate of the run."""
    out = []
    verified = reps[0]["verified"]
    need = min(4, workload.devices)
    out.append((
        "byte identity",
        len(verified) >= need and all(verified.values()),
        f"{sum(verified.values())}/{len(verified)} sampled devices match standalone runs",
    ))
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    out.append((
        "every chunk completed", failed == 0,
        f"{attempted - failed}/{attempted} chunks completed without error",
    ))
    same = all(r["quality"] == reps[0]["quality"] for r in reps)
    out.append(("records repeat across reps", same, json.dumps(reps[0]["quality"])))
    if not tiny:
        known = _load_fingerprints().get(workload.name, {}).get(str(seed))
        if known is None:
            out.append(("input fingerprint", True, f"seed {seed} not in fingerprints.json"))
        else:
            out.append((
                "input fingerprint", known["inputs"] == fingerprint,
                f"sha256 {fingerprint[:16]}… vs recorded {known['inputs'][:16]}…",
            ))
            out.append((
                "quality equals standalone", known["quality"] == reps[0]["quality"],
                f"recorded {json.dumps(known['quality'])}",
            ))
    # A --tiny schedule lasts half a second, so a single late wake-up of
    # the driver, or the last chunk's latency, decides these two gates.
    if workload.kind == "paced" and not tiny:
        lag = _pct([v for r in reps for v in r["lags"]], 99)
        out.append((
            "generator lag p99", lag <= MAX_LAG_P99_S,
            f"{1000 * lag:.2f} ms (limit {1000 * MAX_LAG_P99_S:.0f} ms)",
        ))
        share = min(r["samples"] / r["wall_s"] / r["offered_rate"] for r in reps)
        out.append((
            "completion keeps up", share >= MIN_COMPLETION_SHARE,
            f"completion rate ≥ {100 * share:.1f}% of offered "
            f"(limit {100 * MIN_COMPLETION_SHARE:.0f}%)",
        ))
    return out


def run_workload(name: str, *, seed: int, seconds: float, trace: bool, tiny: bool):
    """Run one workload; returns ``(result_json, printable_lines, ok)``."""
    import driver
    import workloads

    workload = workloads.get(name, tiny=tiny)
    inputs = workloads.make_inputs(workload, seed)
    verify = workloads.verify_sample(inputs.specs, seed)
    plan = driver.prepare(workload, inputs, seed, 0)
    OUT.mkdir(parents=True, exist_ok=True)
    spans_path = OUT / f"spans-{name}.jsonl"
    if trace and spans_path.exists():
        spans_path.unlink()
    reps = []
    measured = 0.0
    min_reps = MIN_REPS + 1 if trace else MIN_REPS
    while len(reps) < MAX_REPS and (
        len(reps) < min_reps or seconds - measured > 0.5 * measured / len(reps)
    ):
        k = len(reps)
        if k and workload.kind == "paced":
            plan = driver.prepare(workload, inputs, seed, k)
        # Traced runs alternate with untraced ones, the overhead baseline.
        traced = trace and k % 2 == 1
        rep = driver.run_rep(
            workload, inputs, plan,
            spool=OUT / f"spool-{os.getpid()}-{k}",
            trace=traced,
            verify=verify if k == 0 else [],
            spans_path=spans_path if traced and k == 1 else None,
        )
        reps.append(rep)
        measured += rep["wall_s"]

    checks = gates(workload, reps, inputs.fingerprint, seed, tiny)
    ok = all(passed for _, passed, _ in checks)
    if trace:
        units = _units("per_layer")
        values = per_layer_metrics(reps[0::2], reps[1::2], units)
    else:
        units = _units("end_to_end")
        values = end_to_end_metrics(reps, workload.kind)
    q = reps[0]["quality"]
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    delay = q["delay_sum"] / q["detected"] if q["detected"] else float("nan")
    lines = [
        f"== {name} (seed {seed}, {len(reps)} reps, {measured:.1f} s measured, "
        f"{len(inputs.chunks)} chunks in {len(plan)} "
        f"{'windows' if workload.kind == 'fleet' else 'requests'} and "
        f"{inputs.samples} samples per rep{', traced' if trace else ''})",
    ]
    lines += [f"  {m:<44} {values[m]:>14.6g} {units[m]}" for m in units]
    lines.append("  per rep: " + ", ".join(
        f"{r['samples'] / r['wall_s']:.0f} samples/s in {r['wall_s']:.2f} s"
        f"{' (traced)' if trace and k % 2 else ''}"
        for k, r in enumerate(reps)
    ))
    lines.append(
        f"  quality: accuracy {q['correct'] / max(1, q['samples']):.6f}, "
        f"drift_delay_samples {delay:.1f}, drift_missed {q['missed']}, "
        f"drift_false {q['false']}, ops_failed_frac {failed / max(1, attempted):.6f}"
    )
    for gate, passed, detail in checks:
        lines.append(f"  [{'ok' if passed else 'FAIL'}] {gate}: {detail}")
    if trace:
        lines.append(f"  spans: {spans_path}")
    result = {
        "correct": ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": values[m], "unit": units[m]} for m in units},
    }
    return result, lines, ok


def cmd_run(argv) -> int:
    import driver
    import workloads

    parser = argparse.ArgumentParser(description="Run the end-to-end benchmark.")
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=_spec()["run_seconds"],
                        help="load measured per run, summed over repetitions "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", nargs="?", const=1, default=0, type=int,
                        choices=(0, 1), help="1 (or bare --trace): per-layer run")
    parser.add_argument("--tiny", action="store_true",
                        help="seconds-sized inputs of the same shapes (tests); "
                             "skips the fingerprint and generator gates")
    parser.add_argument("--out", type=Path,
                        help="append this run's record to a JSONL file")
    args = parser.parse_args(argv)
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    status = 0
    for name in names:
        started = time.perf_counter()
        try:
            result, lines, ok = run_workload(
                name, seed=args.seed, seconds=args.seconds,
                trace=bool(args.trace), tiny=args.tiny,
            )
        except driver.HarnessError as exc:
            print(f"bench.py: {name}: {exc}", file=sys.stderr)
            return 1
        print("\n".join(lines), flush=True)
        if args.out is not None:
            record = {"workload": name, "seed": args.seed, "trace": args.trace,
                      "seconds": args.seconds,
                      "elapsed_s": time.perf_counter() - started, **result}
            with open(args.out, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(record) + "\n")
        print(json.dumps(result), flush=True)
        status = status or (0 if ok else 1)
    return status


# ---------------------------------------------------------------------------
# calibrate / compare / fingerprint
# ---------------------------------------------------------------------------


def _records(directory: Path) -> list:
    out = []
    for path in sorted(Path(directory).glob("*.jsonl")):
        out += [json.loads(line) for line in path.read_text().splitlines() if line]
    return [r for r in out if not r.get("trace")]


def _dump_spec(spec: dict) -> str:
    """``BENCHMARK.json`` text: one workload or metric per line."""
    lines = []
    for key, value in spec.items():
        if isinstance(value, list) and value and isinstance(value[0], dict):
            rows = ",\n".join("    " + json.dumps(v) for v in value)
            lines.append(f'  "{key}": [\n{rows}\n  ]')
        else:
            lines.append(f'  "{key}": {json.dumps(value)}')
    return "{\n" + ",\n".join(lines) + "\n}\n"


def cmd_calibrate(argv) -> int:
    import verdict
    import workloads

    parser = argparse.ArgumentParser(prog="bench.py calibrate")
    parser.add_argument("--sets", type=int, default=10, help="runs per workload (>= 5)")
    parser.add_argument("--seed", type=int,
                        help="run every set on this seed (default: set k on seed k)")
    parser.add_argument("--out", type=Path, required=True, help="results directory")
    parser.add_argument("--write", action="store_true",
                        help="write the derived bounds into BENCHMARK.json")
    args = parser.parse_args(argv)
    if args.sets < 5:
        parser.error("calibration needs at least 5 sets")
    names = list(workloads.WORKLOADS)
    args.out.mkdir(parents=True, exist_ok=True)
    for k in range(args.sets):
        seed = k if args.seed is None else args.seed
        for name in names:
            cmd = [sys.executable, str(HERE / "bench.py"), "--workload", name,
                   "--seed", str(seed), "--trace", "0",
                   "--out", str(args.out / "results.jsonl")]
            done = subprocess.run(cmd, capture_output=True, text=True)
            (args.out / f"{name}-set{k}.txt").write_text(done.stdout + done.stderr)
            print(f"set {k} {name} seed {seed}: exit {done.returncode}", flush=True)
            if done.returncode != 0:
                print(done.stdout[-2000:] + done.stderr[-2000:], file=sys.stderr)
                return 1
    records = _records(args.out)
    spec = _spec()
    for name in names:
        elapsed = [r["elapsed_s"] for r in records if r["workload"] == name]
        if elapsed:
            print(f"{name}: {len(elapsed)} runs, {_median(elapsed):.1f} s median and "
                  f"{max(elapsed):.1f} s longest wall per run")
    print("| metric | workload | n | min | median | max | IQR/median | range/median |")
    print("|---|---|---|---|---|---|---|---|")
    bounds = {}
    for m in spec["end_to_end"]:
        per_workload = []
        for name in names:
            values = [r["metrics"][m["name"]]["value"] for r in records
                      if r["workload"] == name]
            if not values:
                continue
            d = verdict.describe(values)
            per_workload.append(d)
            print(f"| {m['name']} | {name} | {d['n']} | {d['min']:.6g} | "
                  f"{d['median']:.6g} | {d['max']:.6g} | {100 * d['iqr_rel']:.2f}% | "
                  f"{100 * d['range_rel']:.2f}% |")
        bounds[m["name"]] = verdict.derive_bound(
            per_workload, setup=m["name"] == "setup_s"
        )
    print("\nderived bounds: " + json.dumps(bounds))
    if args.write:
        for m in spec["end_to_end"]:
            m["bound"] = bounds[m["name"]]
        BENCHMARK_JSON.write_text(_dump_spec(spec))
        print(f"wrote {BENCHMARK_JSON}")
    return 0


def cmd_compare(argv) -> int:
    import verdict

    parser = argparse.ArgumentParser(prog="bench.py compare")
    parser.add_argument("parent", type=Path, help="directory of the parent's run records")
    parser.add_argument("change", type=Path, help="directory of the change's run records")
    parser.add_argument("--claim", action="append", default=[],
                        metavar="METRIC@WORKLOAD", help="a gain the change claims")
    args = parser.parse_args(argv)
    claims = {tuple(c.split("@", 1)) for c in args.claim}
    try:
        table = verdict.compare_runs(
            _records(args.parent), _records(args.change), _spec()["end_to_end"], claims
        )
    except ValueError as exc:
        parser.error(str(exc))
    bad = False
    for workload, row in table.items():
        print(f"== {workload}")
        for name, v in row.items():
            print(f"  {name:<18} parent {v['parent']:>12.6g}  change {v['change']:>12.6g}"
                  f"  worse {100 * v['worse_rel']:+7.2f}%  wins {v['wins']}/{v['pairs']}"
                  f"  {v['verdict']}")
            bad = bad or v["verdict"] in ("regressed", "not met")
    return 1 if bad else 0


def _seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def cmd_fingerprint(argv) -> int:
    """Record input hashes and standalone quality counts per seed."""
    import workloads
    from repro.engine import build_experiment

    parser = argparse.ArgumentParser(prog="bench.py fingerprint")
    parser.add_argument("--seeds", default="0-31", help="inclusive range, e.g. 0-31")
    args = parser.parse_args(argv)
    table = _load_fingerprints()
    for name in workloads.WORKLOADS:
        workload = workloads.get(name)
        for seed in _seed_range(args.seeds):
            inputs = workloads.make_inputs(workload, seed)
            solo = {dev: workloads.tally(build_experiment(spec).run())
                    for dev, spec in inputs.specs.items()}
            table.setdefault(name, {})[str(seed)] = {
                "inputs": inputs.fingerprint,
                "quality": workloads.quality(inputs.specs, solo),
            }
            print(f"{name} seed {seed}: {inputs.fingerprint[:16]}…", flush=True)
            FINGERPRINTS.write_text(_dump_fingerprints(table))
    return 0


def _dump_fingerprints(table: dict) -> str:
    """``fingerprints.json`` text: one seed per line."""
    blocks = []
    for name in sorted(table):
        seeds = sorted(table[name], key=int)
        rows = ",\n".join(
            f'    "{s}": {json.dumps(table[name][s], sort_keys=True)}' for s in seeds
        )
        blocks.append(f'  "{name}": {{\n{rows}\n  }}')
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"bench.py: no package to benchmark at {SRC / 'repro'}; run it from a "
              "full checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Unwind on SIGTERM too, so every system process started is stopped.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    commands = {"calibrate": cmd_calibrate, "compare": cmd_compare,
                "fingerprint": cmd_fingerprint}
    if argv and argv[0] in commands:
        return commands[argv[0]](argv[1:])
    return cmd_run(argv)


if __name__ == "__main__":
    sys.exit(main())
