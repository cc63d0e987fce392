"""Command-line experiment runner: ``python -m repro <experiment>``.

Reproduces any of the paper's tables/figures from the shell without
touching pytest:

.. code-block:: bash

    python -m repro table2 --reduced      # five-method NSL-KDD comparison
    python -m repro table3                # fan window-size matrix
    python -m repro table4                # memory accounts + Pico feasibility
    python -m repro table5                # fan-stream execution time
    python -m repro table6                # Pico latency breakdown
    python -m repro fig1                  # the four drift archetypes
    python -m repro all --reduced         # everything
    python -m repro spec my_experiments.json   # run declarative spec file(s)

``--reduced`` shrinks the NSL-KDD stream ~4× for quick runs; ``--tiny``
shrinks every stream much further (seconds end-to-end — for smoke tests,
not faithful numbers). The fan experiments are small either way. Every
command prints a reproduced-vs-paper table through
:mod:`repro.metrics.tables`.

The streaming tables are declarative: each cell is an
:class:`repro.engine.ExperimentSpec` naming a registered pipeline builder
and dataset factory (see ``docs/architecture.md``). ``--seed`` moves the
dataset seed, ``--model-seed`` the builder seed (default 1, the paper's
fixed model seed). The ``spec`` command runs arbitrary cells from a JSON
file — either one spec object or ``{"experiments": [...]}``:

.. code-block:: bash

    python -m repro spec examples/specs/quickstart.json

Observability flags (see ``docs/telemetry.md``)::

    python -m repro table2 --tiny --telemetry trace.jsonl
    python -m repro table3 --telemetry-summary

``--telemetry PATH`` streams every event (drifts, reconstructions,
spans, parallel cells, ``drift_audit`` provenance) as JSON lines to
``PATH``; ``--telemetry-summary`` prints an ASCII metrics digest after
the run. ``python -m repro audit PATH`` summarises the ``drift_audit``
events in such a trace (top drifting devices, recovery percentiles).
``repro --version`` prints the package version.

Fleet observability (see ``docs/fleet.md``)::

    python -m repro fleet --tiny --shards 4 --serve-metrics 9100

``--shards N`` partitions the device fleet over N worker processes
(their telemetry merges back into this process, labelled by shard);
``--serve-metrics PORT`` serves ``/metrics`` (Prometheus text),
``/health`` and ``/fleet`` on ``127.0.0.1:PORT`` while the soak runs
(port 0 = any free port).

Self-healing flags (see ``docs/robustness.md``)::

    python -m repro table2 --tiny --guard-policy impute_last_good --guard-report

``--guard-policy`` attaches a :class:`repro.guard.RuntimeGuard` (bounds
learned from each experiment's training set) to every evaluated
pipeline; ``--guard-report`` prints each guard's intervention summary
after its run.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path
from typing import Callable, Dict, List

import numpy as np

from .datasets import NSLKDDConfig
from .device import (
    RASPBERRY_PI_4,
    RASPBERRY_PI_PICO,
    StageCostModel,
    estimate_stream_seconds,
    fits_on,
    proposed_memory,
    quanttree_batch_ops,
    quanttree_memory,
    spll_batch_ops,
    spll_memory,
    stage_latency_table,
)
from .engine import Experiment, ExperimentSpec, build_experiment
from .metrics import detection_delay, evaluate_method, format_table
from .resilience import remove_run_checkpoint
from .telemetry import JsonlSink, render_summary
from .telemetry import configure as configure_telemetry
from .utils.exceptions import ConfigurationError
from .utils.validation import validate_checkpoint_config

__all__ = ["main"]


def _nslkdd(args):
    """NSL-KDD sizing for the active fidelity tier → (dataset_kwargs, batch, cfg)."""
    if getattr(args, "tiny", False):
        cfg = NSLKDDConfig(n_train=300, n_test=1500, drift_at=500)
        batch = 150
    elif args.reduced:
        cfg = NSLKDDConfig(n_train=800, n_test=6000, drift_at=2000)
        batch = 300
    else:
        cfg = NSLKDDConfig()
        batch = 480
    kwargs = {"n_train": cfg.n_train, "n_test": cfg.n_test, "drift_at": cfg.drift_at}
    return kwargs, batch, cfg


def _fan_kwargs(args) -> dict:
    """Cooling-fan stream sizing: default paper shape, or ``--tiny``."""
    if getattr(args, "tiny", False):
        return {"n_test": 300, "gradual_end": 260}
    return {}


def _slug(text: str) -> str:
    return "-".join(re.findall(r"[a-z0-9]+", text.lower()))


def _spec(args, **fields) -> ExperimentSpec:
    """An :class:`ExperimentSpec` carrying the CLI's global knobs."""
    fields.setdefault("seed", args.seed)
    fields.setdefault("model_seed", args.model_seed)
    fields.setdefault("guard_policy", getattr(args, "guard_policy", None))
    return ExperimentSpec(**fields)


def _eval_experiment(args, experiment: Experiment, *, label=None):
    """``evaluate_method`` with the CLI's crash-safety and guard flags.

    With ``--checkpoint-dir`` (or ``--resume-from``) each evaluation
    checkpoints under a stable per-cell filename; ``--resume-from``
    additionally picks up any checkpoint left by an interrupted run.
    Spent checkpoints are removed once the cell completes. The guard (if
    the spec carries a ``guard_policy``) was already attached by
    :func:`repro.engine.build_experiment`.
    """
    spec = experiment.spec
    ckpt_dir = args.resume_from or args.checkpoint_dir
    if ckpt_dir is None:
        result = evaluate_method(
            experiment.pipeline, experiment.test,
            name=spec.name, chunk_size=spec.chunk_size,
        )
    else:
        path = Path(ckpt_dir) / f"{_slug(label or spec.name)}.ckpt"
        path.parent.mkdir(parents=True, exist_ok=True)
        result = evaluate_method(
            experiment.pipeline,
            experiment.test,
            name=spec.name,
            chunk_size=spec.chunk_size,
            checkpoint_every=args.checkpoint_every or 256,
            checkpoint_path=path,
            resume=args.resume_from is not None,
        )
        remove_run_checkpoint(path)
    if experiment.guard is not None and getattr(args, "guard_report", False):
        print(f"\n[guard] {label or spec.name}")
        print(experiment.guard.report_text())
        print()
    return result


def _run_spec(args, spec: ExperimentSpec, *, label=None):
    """Build ``spec`` and evaluate it → (result, built experiment)."""
    experiment = build_experiment(spec)
    return _eval_experiment(args, experiment, label=label), experiment


def cmd_table2(args) -> None:
    dataset_kwargs, batch, cfg = _nslkdd(args)
    methods = {
        "Quant Tree": ("quanttree", {"batch_size": batch, "n_bins": 32}),
        "SPLL": ("spll", {"batch_size": batch}),
        "Baseline (no detection)": ("baseline", {}),
        "ONLAD": ("onlad", {"forgetting_factor": 0.90}),
        "Proposed (W=100)": ("proposed", {"window_size": 100}),
        "Proposed (W=250)": ("proposed", {"window_size": 250}),
        "Proposed (W=1000)": ("proposed", {"window_size": 1000}),
    }
    rows = []
    stream_len = cfg.n_test
    for name, (pipeline, pipeline_kwargs) in methods.items():
        spec = _spec(
            args, name=name, pipeline=pipeline, dataset="nslkdd",
            pipeline_kwargs=pipeline_kwargs, dataset_kwargs=dataset_kwargs,
        )
        res, ex = _run_spec(args, spec, label=f"table2-{name}")
        stream_len = len(ex.test)
        rows.append([name, round(100 * res.accuracy, 1), res.first_delay])
    print(format_table(
        ["method", "accuracy %", "delay"],
        rows,
        title=f"Table 2 reproduction (stream {stream_len}, drift @{cfg.drift_at})",
    ))
    print("\nPaper: QT 96.8/296, SPLL 96.3/296, baseline 83.5, ONLAD 65.7, "
          "proposed 96.0/843 (W=100), 95.5/993 (W=250), 92.5/1263 (W=1000).")


def cmd_table3(args) -> None:
    rows = []
    for W in (10, 50, 150):
        row: list[object] = [f"Window size = {W}"]
        for scenario in ("sudden", "gradual", "reoccurring"):
            spec = _spec(
                args,
                name=f"Proposed (W={W}) @ {scenario}",
                pipeline="proposed",
                dataset="coolingfan",
                pipeline_kwargs={"window_size": W},
                dataset_kwargs={"scenario": scenario, **_fan_kwargs(args)},
            )
            res, _ = _run_spec(args, spec, label=f"table3-w{W}-{scenario}")
            row.append(detection_delay(res.delay.detections, 120))
        rows.append(row)
    print(format_table(
        ["", "Sudden", "Gradual", "Reoccurring"],
        rows,
        title="Table 3 reproduction (cooling-fan stream, drift @120)",
    ))
    print("\nPaper: sudden 53/60/160, gradual 161/157/257, reoccurring 22/62/-.")


def cmd_table4(args) -> None:
    reports = {
        "Quant Tree": quanttree_memory(235, 511, 16),
        "SPLL": spll_memory(235, 511, 3),
        "Proposed method": proposed_memory(2, 511),
    }
    paper = {"Quant Tree": 619, "SPLL": 1933, "Proposed method": 69}
    rows = [
        [name, round(rep.total_kb, 1), paper[name],
         "yes" if fits_on(rep, RASPBERRY_PI_PICO) else "NO"]
        for name, rep in reports.items()
    ]
    print(format_table(
        ["method", "reproduced kB", "paper kB", "fits Pico?"],
        rows,
        title="Table 4 reproduction (fan config: D=511, batch=235)",
    ))


def cmd_table5(args) -> None:
    batch = 100 if getattr(args, "tiny", False) else 235
    geometry = StageCostModel(2, 511, 22)
    dataset_kwargs = {"scenario": "sudden", "n_modes": 2, **_fan_kwargs(args)}
    methods = {
        "Quant Tree": (
            ("quanttree", {"batch_size": batch, "n_bins": 16}),
            quanttree_batch_ops(batch, 16),
        ),
        "SPLL": (("spll", {"batch_size": batch}), spll_batch_ops(batch, 511, 3)),
        "Baseline": (("baseline", {}), None),
        "Proposed method": (("proposed", {"window_size": 50}), None),
    }
    paper = {"Quant Tree": 1.52, "SPLL": 9.28, "Baseline": 1.05, "Proposed method": 1.50}
    rows = []
    stream_len = dataset_kwargs.get("n_test", 0)
    for name, ((pipeline, pipeline_kwargs), ops) in methods.items():
        spec = _spec(
            args, name=name, pipeline=pipeline, dataset="coolingfan",
            pipeline_kwargs=pipeline_kwargs, dataset_kwargs=dataset_kwargs,
        )
        res, ex = _run_spec(args, spec, label=f"table5-{name}")
        stream_len = len(ex.test)
        est = estimate_stream_seconds(
            res.phase_tally, geometry, RASPBERRY_PI_4,
            per_batch_ops=ops,
            n_batches=stream_len // batch if ops is not None else 0,
        )
        rows.append([name, round(est, 2), paper[name], round(res.wall_seconds, 2)])
    print(format_table(
        ["method", "estimated Pi4 s", "paper s", "host wall s"],
        rows,
        title=f"Table 5 reproduction ({stream_len}-sample fan stream)",
    ))


def cmd_table6(args) -> None:
    paper = {
        "Label prediction": 148.87,
        "Distance computation": 10.58,
        "Model retraining without label prediction": 25.42,
        "Model retraining with label prediction": 166.65,
        "Label coordinates initialization": 25.59,
        "Label coordinates update": 6.05,
    }
    ours = stage_latency_table(StageCostModel(2, 511, 22), RASPBERRY_PI_PICO)
    rows = [[k, round(ours[k], 2), v] for k, v in paper.items()]
    print(format_table(
        ["stage", "reproduced ms", "paper ms"],
        rows,
        title="Table 6 reproduction (Raspberry Pi Pico, C=2, D=511, H=22)",
    ))


def cmd_fig1(args) -> None:
    from .datasets import (
        GaussianConcept,
        make_gradual_drift_stream,
        make_incremental_drift_stream,
        make_reoccurring_drift_stream,
        make_sudden_drift_stream,
    )

    old = GaussianConcept(np.array([[0.2] * 6, [0.8] * 6]), 0.05)
    new = GaussianConcept(np.array([[0.2] * 6, [0.8] * 6]) + 0.5, 0.05)
    streams = {
        "sudden": make_sudden_drift_stream(old, new, n_samples=1200, drift_at=400, seed=args.seed),
        "gradual": make_gradual_drift_stream(old, new, n_samples=1200, drift_start=400, drift_end=900, seed=args.seed),
        "incremental": make_incremental_drift_stream(old, new, n_samples=1200, drift_start=400, drift_end=900, seed=args.seed),
        "reoccurring": make_reoccurring_drift_stream(old, new, n_samples=1200, drift_at=400, reoccur_at=700, seed=args.seed),
    }
    rows = []
    for name, stream in streams.items():
        bounds = np.linspace(0, len(stream), 13).astype(int)
        series = [float(stream.X[a:b].mean()) for a, b in zip(bounds, bounds[1:])]
        lo, hi = min(series), max(series)
        glyphs = "".join(
            "▁▂▃▄▅▆▇█"[int(7 * (v - lo) / (hi - lo + 1e-12))] for v in series
        )
        rows.append([name, glyphs, str(stream.drift_points)])
    print(format_table(
        ["drift type", "concept level over time", "drift points"],
        rows,
        title="Figure 1 reproduction: the four concept-drift types",
    ))


def _load_specs(path: Path) -> List[ExperimentSpec]:
    """Parse a spec file: one JSON spec object, or ``{"experiments": [...]}``."""
    try:
        data = json.loads(path.read_text())
    except OSError as exc:
        raise ConfigurationError(f"cannot read spec file {str(path)!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"spec file {str(path)!r} is not valid JSON: {exc}") from exc
    if isinstance(data, dict):
        entries = data["experiments"] if "experiments" in data else [data]
    elif isinstance(data, list):
        entries = data
    else:
        raise ConfigurationError(
            f"spec file {str(path)!r} must hold a spec object, a list of "
            "them, or {\"experiments\": [...]}."
        )
    return [ExperimentSpec.from_json(entry) for entry in entries]


def cmd_spec(args) -> None:
    """Run the experiments declared in a JSON spec file (``spec`` command)."""
    specs = _load_specs(Path(args.spec_path))
    rows = []
    for spec in specs:
        if spec.guard_policy is None and getattr(args, "guard_policy", None):
            spec = spec.replace(guard_policy=args.guard_policy)
        res, _ = _run_spec(args, spec, label=f"spec-{spec.name}")
        rows.append([
            spec.name,
            f"{spec.pipeline} @ {spec.dataset}",
            round(100 * res.accuracy, 1),
            res.first_delay,
        ])
    print(format_table(
        ["experiment", "cell", "accuracy %", "delay"],
        rows,
        title=f"Spec run: {args.spec_path} ({len(specs)} experiment(s))",
    ))


def cmd_fleet(args) -> None:
    """Multiplex a device fleet through one engine (``fleet`` command)."""
    import tempfile

    from .fleet import run_fleet_soak

    sharded = args.shards is not None and args.shards > 0
    supervise_cfg = None
    if args.supervise or args.fleet_chaos is not None:
        from .fleet import SupervisorConfig

        if not sharded:
            raise ConfigurationError(
                "--supervise/--fleet-chaos require --shards N (supervision "
                "recovers worker processes; there is none to recover in-process)."
            )
        supervise_cfg = SupervisorConfig(
            request_timeout=args.request_timeout, seed=args.seed
        )
    live: dict = {}

    def _hook(fm) -> None:
        live["manager"] = fm

    server = None
    if args.serve_metrics is not None:
        from .serving.server import IngestServer

        def _fleet_stats() -> dict:
            fm = live.get("manager")
            if fm is None:
                return {"status": "starting", "devices": args.devices}
            if sharded:
                # Worker pipes are owned by the soak thread, but shards
                # piggyback stats deltas on every reply — live_stats()
                # reads the parent-side fold, no pipe access needed.
                return {
                    "sharded": True,
                    "shards": int(args.shards),
                    "devices": args.devices,
                    "live": fm.live_stats(),
                }
            return fm.stats.to_json(include_devices=True)

        def _health() -> dict:
            fm = live.get("manager")
            if supervise_cfg is not None and fm is not None:
                # Supervisor health is pure parent-side state — safe to
                # read while the soak thread owns the worker pipes.
                return fm.health()
            return {"status": "ok", "devices": args.devices}

        server = IngestServer(
            None,
            port=args.serve_metrics,
            health_provider=_health,
            fleet_provider=_fleet_stats,
        ).start()
        print(f"serving metrics on {server.url} (/metrics /health /fleet)")

    def _soak(spool: str):
        return run_fleet_soak(
            args.devices,
            args.capacity,
            spool_dir=spool,
            seed=args.seed,
            n_test=args.fleet_samples,
            feed_chunk=args.fleet_chunk,
            guard_policy=args.guard_policy,
            n_shards=args.shards if sharded else None,
            batch_scoring=args.batch_scoring,
            supervise=supervise_cfg,
            chaos=args.fleet_chaos,
            verify=args.fleet_verify,
            progress=print,
            manager_hook=_hook,
        )

    shard_note = f", {args.shards} shards" if sharded else ""
    print(
        f"fleet soak: {args.devices} devices, LRU capacity {args.capacity}, "
        f"{args.fleet_samples} samples/device{shard_note}"
    )
    try:
        if args.spool_dir is not None:
            report = _soak(args.spool_dir)
        else:
            with tempfile.TemporaryDirectory(prefix="repro-fleet-") as tmp:
                report = _soak(tmp)
    finally:
        if server is not None:
            server.stop()
    rows = [
        [k, v]
        for k, v in report.to_json().items()
        if k != "mismatches" and v is not None
    ]
    print(format_table(["metric", "value"], rows, title="Fleet soak report"))
    if report.mismatches:
        raise ConfigurationError(
            f"fleet records diverged from standalone runs for {report.mismatches}."
        )
    if report.verified:
        print(f"\n{report.verified} device(s) verified byte-identical to standalone runs.")


def cmd_serve(args) -> None:
    """Serve a fleet over HTTP (``serve`` command; see docs/serving.md)."""
    import tempfile
    import time as _time

    from .datasets.fleet import ReplayPace
    from .engine import build_experiment as _build
    from .fleet.soak import make_fleet_specs, verify_device
    from .serving import ServingStack, run_load

    specs = make_fleet_specs(
        args.devices, seed=args.seed, n_test=args.fleet_samples
    )

    def _serve(spool: str) -> None:
        stack = ServingStack(
            capacity=args.capacity,
            spool_dir=spool,
            batch_scoring=args.batch_scoring,
            n_shards=args.shards,
            queue_capacity=args.queue_capacity,
            gap_window=args.gap_window,
            port=args.port,
        )
        for dev, spec in specs.items():
            stack.register(dev, spec)
        stack.start()
        print(
            f"serving {args.devices} device(s) on {stack.url} "
            "(POST /v1/devices/{id}/chunks; /metrics /health /fleet)"
        )
        try:
            if not args.loadgen:
                # Foreground server: run until interrupted.
                while True:  # pragma: no cover — interactive mode
                    _time.sleep(1.0)
            streams = {dev: _build(spec).test for dev, spec in specs.items()}
            pace = None
            if args.rate is not None:
                pace = ReplayPace(rate=args.rate, jitter=args.jitter)
            report = run_load(
                stack.url,
                streams,
                feed_chunk=args.fleet_chunk,
                seed=args.seed,
                pace=pace,
                reorder=args.reorder,
                progress=print,
            )
            rows = [
                [k, v if not isinstance(v, float) else round(v, 3)]
                for k, v in report.to_json().items()
                if k != "statuses"
            ]
            rows += [[f"status: {k}", v] for k, v in sorted(report.statuses.items())]
            print(format_table(["metric", "value"], rows, title="Load report"))
            per_device = stack.finish_all()
            if args.fleet_verify:
                targets = list(specs)[: args.fleet_verify]
                mismatches = [
                    dev for dev in targets
                    if not verify_device(specs[dev], per_device[dev])
                ]
                if mismatches:
                    raise ConfigurationError(
                        f"served records diverged from standalone runs "
                        f"for {mismatches}."
                    )
                print(
                    f"\n{len(targets)} device(s) verified byte-identical "
                    "to standalone runs."
                )
        except KeyboardInterrupt:  # pragma: no cover — interactive mode
            print("\nshutting down.")
        finally:
            stack.close()

    if args.spool_dir is not None:
        _serve(args.spool_dir)
    else:
        with tempfile.TemporaryDirectory(prefix="repro-serve-") as tmp:
            _serve(tmp)


def cmd_audit(args) -> None:
    """Summarise a ``drift_audit`` JSONL trace (``audit`` command)."""
    from .telemetry import audit_report, load_audit, render_audit

    records = load_audit(Path(args.spec_path))
    print(render_audit(audit_report(records)))


COMMANDS: Dict[str, Callable] = {
    "table2": cmd_table2,
    "table3": cmd_table3,
    "table4": cmd_table4,
    "table5": cmd_table5,
    "table6": cmd_table6,
    "fig1": cmd_fig1,
    "fleet": cmd_fleet,
    "serve": cmd_serve,
    "audit": cmd_audit,
}


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``python -m repro``."""
    from . import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the paper's tables and figures from the shell.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    parser.add_argument(
        "experiment",
        choices=[*COMMANDS, "all", "spec"],
        help="which table/figure to reproduce, or 'spec' to run a JSON spec file",
    )
    parser.add_argument(
        "spec_path", nargs="?", default=None,
        help="JSON experiment-spec file ('spec' command) or drift-audit "
             "JSONL trace ('audit' command)",
    )
    parser.add_argument("--reduced", action="store_true",
                        help="shrink the NSL-KDD stream for quick runs")
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every stream to smoke-test size "
                             "(fast, not faithful to the paper's numbers)")
    parser.add_argument("--seed", type=int, default=0, help="dataset seed")
    parser.add_argument("--model-seed", type=int, default=1,
                        help="model/builder seed for the table pipelines "
                             "(default 1, the paper's fixed model seed)")
    parser.add_argument("--telemetry", metavar="PATH", default=None,
                        help="write a JSONL telemetry event trace to PATH")
    parser.add_argument("--telemetry-summary", action="store_true",
                        help="print an ASCII telemetry digest after the run")
    parser.add_argument("--checkpoint-every", metavar="N", type=int, default=None,
                        help="checkpoint pipeline state every N samples "
                             "(needs --checkpoint-dir or --resume-from; default 256)")
    parser.add_argument("--checkpoint-dir", metavar="DIR", default=None,
                        help="write per-evaluation crash-recovery checkpoints to DIR")
    parser.add_argument("--resume-from", metavar="DIR", default=None,
                        help="like --checkpoint-dir, but also resume any "
                             "checkpoints an interrupted run left in DIR")
    parser.add_argument("--guard-policy", metavar="POLICY", default=None,
                        choices=["reject", "clip", "impute_last_good", "quarantine"],
                        help="attach a self-healing runtime guard with this "
                             "input-fault policy to every evaluated pipeline")
    parser.add_argument("--guard-report", action="store_true",
                        help="print each guard's intervention summary after "
                             "its run (needs --guard-policy)")
    parser.add_argument("--devices", type=int, default=100,
                        help="fleet command: number of device streams")
    parser.add_argument("--capacity", type=int, default=16,
                        help="fleet command: LRU capacity (max resident sessions)")
    parser.add_argument("--fleet-samples", type=int, default=300, metavar="N",
                        help="fleet command: test samples per device")
    parser.add_argument("--fleet-chunk", type=int, default=100, metavar="N",
                        help="fleet command: samples arriving per submit")
    parser.add_argument("--fleet-verify", type=int, default=0, metavar="K",
                        help="fleet command: byte-compare the first K devices "
                             "against standalone runs")
    parser.add_argument("--spool-dir", metavar="DIR", default=None,
                        help="fleet command: eviction spool directory "
                             "(default: a temporary directory)")
    parser.add_argument("--shards", type=int, default=None, metavar="N",
                        help="fleet command: partition the fleet over N "
                             "worker processes; their telemetry merges back "
                             "into this process labelled by shard")
    parser.add_argument("--serve-metrics", type=int, default=None, metavar="PORT",
                        help="fleet command: serve /metrics, /health and "
                             "/fleet on 127.0.0.1:PORT during the soak "
                             "(0 = any free port; implies telemetry)")
    parser.add_argument("--batch-scoring", action="store_true",
                        help="fleet command: score same-signature sessions "
                             "in stacked cross-session GEMMs (records stay "
                             "byte-identical; see docs/fleet.md)")
    parser.add_argument("--supervise", action="store_true",
                        help="fleet command: self-healing shards — journal "
                             "feeds, respawn dead/hung workers, restore "
                             "sessions byte-identically (needs --shards)")
    parser.add_argument("--fleet-chaos", type=int, default=None, metavar="N",
                        help="fleet command: inject N seeded faults "
                             "(kill/hang/corrupt) during the soak to prove "
                             "recovery (implies --supervise)")
    parser.add_argument("--request-timeout", type=float, default=30.0,
                        metavar="SEC",
                        help="fleet command: per-request deadline before a "
                             "worker counts as hung (with --supervise)")
    parser.add_argument("--port", type=int, default=8099,
                        help="serve command: HTTP port for the ingestion "
                             "front-end (0 = any free port; default 8099)")
    parser.add_argument("--queue-capacity", type=int, default=64, metavar="N",
                        help="serve command: per-device inbound lane bound")
    parser.add_argument("--gap-window", type=int, default=32, metavar="N",
                        help="serve command: how far ahead of the expected "
                             "sequence a chunk may arrive and be buffered")
    parser.add_argument("--loadgen", action="store_true",
                        help="serve command: self-drive the server with the "
                             "seeded load generator, print the load report, "
                             "then shut down (instead of serving foreground)")
    parser.add_argument("--rate", type=float, default=None, metavar="R",
                        help="serve command: pace the load generator at R x "
                             "real time (default: as fast as admitted)")
    parser.add_argument("--jitter", type=float, default=0.0, metavar="J",
                        help="serve command: seeded inter-arrival jitter "
                             "fraction for the paced load generator")
    parser.add_argument("--reorder", type=float, default=0.0, metavar="P",
                        help="serve command: probability the load generator "
                             "delivers a chunk out of order (within the "
                             "gap window)")
    args = parser.parse_args(argv)
    try:
        # Same pairing rule as StreamPipeline.run; the CLI additionally
        # defaults the cadence (256) when only a directory is given.
        validate_checkpoint_config(
            args.checkpoint_every,
            args.resume_from or args.checkpoint_dir,
            allow_default_every=True,
        )
    except ConfigurationError as exc:
        parser.error(str(exc))
    if args.guard_report and args.guard_policy is None:
        parser.error("--guard-report requires --guard-policy")
    if args.experiment == "spec" and args.spec_path is None:
        parser.error("the 'spec' command needs a JSON spec file path")
    if args.experiment == "audit" and args.spec_path is None:
        parser.error("the 'audit' command needs a drift-audit JSONL file path")
    if args.experiment not in ("spec", "audit") and args.spec_path is not None:
        parser.error(
            "a file path only makes sense with the 'spec' or 'audit' command"
        )
    if args.serve_metrics is not None and args.experiment != "fleet":
        parser.error("--serve-metrics only applies to the 'fleet' command")

    telemetry_on = bool(
        args.telemetry
        or args.telemetry_summary
        or args.serve_metrics is not None
        or args.experiment == "serve"  # /metrics needs a live hub
    )
    sink = None
    if telemetry_on:
        sinks = []
        if args.telemetry:
            sink = JsonlSink(args.telemetry)
            sinks.append(sink)
        configure_telemetry(enabled=True, sinks=sinks, reset=True)
    try:
        if args.experiment == "spec":
            cmd_spec(args)
        else:
            if args.experiment == "all":
                # 'all' reproduces the paper artifacts; the fleet soak and
                # audit report are infrastructure, run them explicitly.
                targets = [n for n in COMMANDS if n not in ("fleet", "audit")]
            else:
                targets = [args.experiment]
            for i, name in enumerate(targets):
                if i:
                    print("\n" + "=" * 72 + "\n")
                COMMANDS[name](args)
        if args.telemetry_summary:
            print("\n" + "=" * 72 + "\n")
            print(render_summary())
    finally:
        if telemetry_on:
            if sink is not None:
                sink.close()
            # Leave the process-wide hub as main() found it so repeated
            # in-process calls (tests, notebooks) stay isolated.
            configure_telemetry(enabled=False, sinks=[], reset=True)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
