"""Proof that disabled telemetry is (near-)free on the streaming hot path.

The instrumentation contract (``repro.telemetry``) is that every hot-path
probe hides behind a single ``tel.enabled`` attribute check, so a pipeline
with telemetry *off* — the default — must run within 5 % of the pre-
instrumentation code. This bench measures that directly by racing

* the real, instrumented ``StreamPipeline.run`` (telemetry disabled)

against

* a hand-rolled replica of the shipped chunk path with its telemetry
  probes removed — the same batched scoring, the same
  :class:`~repro.core.records.RecordBlock` per chunk and the same
  ``StepRecord`` list built from the blocks at the end, but no
  telemetry touch point, span or interceptor

on a pure-predict stream (frozen baseline model: no drifts, no
reconstruction — the worst case for relative overhead, since there is no
heavy adaptation work to hide behind).

The replica must track the shipped path: when the shipped record path
changes, so must the replica, or the smoke measures the difference
between two record paths instead of the probes.
``test_planted_cost_fails`` checks that the statistic sees a cost: a
replica run's first 15% added to every shipped run must read over the
bound.

Two entry points:

* pytest-benchmark (regression tracking)::

      PYTHONPATH=src python -m pytest benchmarks/bench_telemetry_overhead.py --benchmark-only

* standalone smoke check for CI (no pytest needed; exits non-zero when
  the overhead bound is violated)::

      PYTHONPATH=src python benchmarks/bench_telemetry_overhead.py --smoke
"""

from __future__ import annotations

import argparse
import sys
from typing import List

import numpy as np
from overhead import PAIRS, overhead_of, paired_runs, report

from repro.core.pipeline import NoDetectionPipeline, StepRecord
from repro.core.records import RecordBlock, phase_code, records_of
from repro.datasets import DataStream
from repro.oselm import MultiInstanceModel
from repro.telemetry import RingBufferSink, configure

#: Relative CPU overhead allowed for disabled telemetry.
OVERHEAD_BOUND = 0.05

D, H, C = 128, 22, 2


def make_fixture(n_samples: int = 8192, seed: int = 0):
    """A frozen baseline pipeline + a pure-predict stream (no drift)."""
    rng = np.random.default_rng(seed)
    X0 = rng.random((80, D))
    y0 = (np.arange(80) % C).astype(np.int64)
    model = MultiInstanceModel(D, H, C, seed=seed).fit_initial(X0, y0)
    X = rng.random((n_samples, D))
    y = (rng.random(n_samples) < 0.5).astype(np.int64)
    stream = DataStream(X, y, name="bench")
    return model, stream


def uninstrumented_run(
    model: MultiInstanceModel, stream: DataStream, chunk: int = 256
) -> List[StepRecord]:
    """The shipped chunked pure-predict path with the telemetry probes removed.

    What ``NoDetectionPipeline.run`` does per chunk — batched row-stable
    scoring and one :class:`RecordBlock` of the chunk's columns — and
    the one ``StepRecord`` list built from the blocks at the end; no
    interceptor stack, no span, no ``tel.enabled`` check.
    """
    blocks: List[RecordBlock] = []
    X, y = stream.X, stream.y
    predict = phase_code("predict")
    for i in range(0, len(stream), chunk):
        Xc, yc = X[i : i + chunk], y[i : i + chunk]
        S = model.scores_rowwise(Xc)
        labels = S.argmin(axis=1)
        scores = S[np.arange(len(S)), labels]
        n = len(labels)
        blocks.append(RecordBlock(
            i,
            np.array(labels, dtype=np.int64),
            yc.astype(np.int64),
            None,
            np.array(scores, dtype=np.float64),
            np.full(n, predict, dtype=np.uint8),
            np.zeros(n, dtype=np.bool_),
            np.zeros(n, dtype=np.bool_),
        ))
    return records_of(blocks)


# --------------------------------------------------------------------------
# pytest-benchmark entry points
# --------------------------------------------------------------------------


def test_uninstrumented_baseline(benchmark):
    """Reference: the pre-telemetry loop (what 'zero overhead' means)."""
    model, stream = make_fixture()
    benchmark(lambda: uninstrumented_run(model, stream))


def test_instrumented_disabled(benchmark):
    """The shipped ``run`` with telemetry off — must track the baseline."""
    model, stream = make_fixture()

    def go():
        return NoDetectionPipeline(model).run(stream)

    benchmark(go)


def test_instrumented_enabled_ring(benchmark):
    """For scale: telemetry on with a ring sink (not bound by the 5 %)."""
    model, stream = make_fixture()
    configure(enabled=True, sinks=[RingBufferSink()], reset=True)
    try:
        benchmark(lambda: NoDetectionPipeline(model).run(stream))
    finally:
        configure(enabled=False, sinks=[], reset=True)


def test_overhead_within_bound():
    """Plain assertion (runs in the default suite, no --benchmark-only)."""
    overhead = measure_overhead(n_samples=4096, pairs=PAIRS)
    assert overhead < OVERHEAD_BOUND, (
        f"disabled-telemetry overhead {overhead:+.2%} exceeds {OVERHEAD_BOUND:.0%}"
    )


def test_planted_cost_fails():
    """Power check: a planted +15% cost must read over the bound."""
    overhead = _measure(n_samples=4096, pairs=PAIRS, plant=0.15)[0]
    assert overhead > OVERHEAD_BOUND, (
        f"a planted +15% cost read {overhead:+.2%}, within {OVERHEAD_BOUND:.0%}"
    )


# --------------------------------------------------------------------------
# Standalone smoke mode (CI)
# --------------------------------------------------------------------------


def _measure(*, n_samples: int, pairs: int, plant: float = 0.0) -> tuple:
    """Alternated A/B pairs → (overhead, fastest instrumented CPU seconds).

    ``plant`` adds that fraction of a replica run (its first
    ``plant * n_samples`` samples) to every instrumented run. See
    ``overhead.py`` for the statistic.
    """
    configure(enabled=False, sinks=[], reset=True)
    model, stream = make_fixture(n_samples=n_samples)
    head = int(plant * n_samples)
    planted = DataStream(stream.X[:head], stream.y[:head], name="planted")

    def instrumented():
        records = NoDetectionPipeline(model).run(stream)
        if head:
            uninstrumented_run(model, planted)
        return records

    def plain():
        return uninstrumented_run(model, stream)

    # Warm-up + sanity: both paths must produce identical records.
    a, b = instrumented(), plain()
    assert [r._asdict() for r in a] == [r._asdict() for r in b], (
        "instrumented and uninstrumented runs disagree"
    )
    plain_times, inst_times = paired_runs(plain, instrumented, pairs=pairs)
    return overhead_of(plain_times, inst_times), min(inst_times)


def measure_overhead(*, n_samples: int, pairs: int) -> float:
    """Relative CPU overhead of the instrumented loop."""
    return _measure(n_samples=n_samples, pairs=pairs)[0]


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="fast bounded check (CI): fewer samples")
    parser.add_argument("--samples", type=int, default=None,
                        help="stream length (default 16384; 4096 with --smoke)")
    parser.add_argument("--rounds", type=int, default=PAIRS,
                        help=f"alternated A/B pairs (default {PAIRS})")
    parser.add_argument("--history", default=None, metavar="PATH",
                        help="perf-trajectory JSONL to append to "
                             "(default: ./BENCH_history.jsonl at the repo root)")
    parser.add_argument("--no-history", action="store_true",
                        help="skip the trajectory append (exploratory runs)")
    args = parser.parse_args(argv)

    n_samples = args.samples or (4096 if args.smoke else 16384)
    overhead, best_inst = _measure(n_samples=n_samples, pairs=args.rounds)
    if not args.no_history:
        from bench_history import DEFAULT_HISTORY, append_history

        append_history(
            args.history or DEFAULT_HISTORY,
            "telemetry_overhead",
            "smoke" if args.smoke else "full",
            {
                "samples_per_sec": n_samples / best_inst,
                "overhead_ratio": overhead,
            },
        )
    return report(
        f"disabled-telemetry ({n_samples} samples)",
        overhead, OVERHEAD_BOUND, args.rounds,
        "instrumentation is free when disabled.",
    )


if __name__ == "__main__":
    sys.exit(main())
