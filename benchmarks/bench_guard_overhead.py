"""Proof that an attached guard is (near-)free on clean streams.

The self-healing contract (``repro.guard``) is that while the ladder is
``HEALTHY`` and a chunk screens clean, :class:`RuntimeGuard` delegates to
the pipeline's own vectorized chunk path verbatim — so a guarded run over
fault-free data must cost within 5 % of an unguarded one, and produce
byte-identical records. This bench measures that directly by racing

* the shipped ``StreamPipeline.run`` with a guard attached
  (``impute_last_good`` policy, bounds learned from the init set, stock
  numeric-health sentinel)

against

* the same pipeline with no guard

on a pure-predict stream (frozen baseline model: no drifts, no
reconstruction — the worst case for relative overhead, since the only
per-chunk work is the vectorized scoring the guard's cleanliness screen
rides on top of).

Two entry points:

* pytest-benchmark (regression tracking)::

      PYTHONPATH=src python -m pytest benchmarks/bench_guard_overhead.py --benchmark-only

* standalone smoke check for CI (no pytest needed; exits non-zero when
  the overhead bound is violated)::

      PYTHONPATH=src python benchmarks/bench_guard_overhead.py --smoke
"""

from __future__ import annotations

import argparse
import sys
from typing import List

import numpy as np
from overhead import PAIRS, paired_overhead, report

from repro.core.pipeline import NoDetectionPipeline
from repro.datasets import DataStream
from repro.guard import RuntimeGuard
from repro.oselm import MultiInstanceModel
from repro.telemetry import configure

#: Relative CPU overhead allowed for a guard on a clean stream.
OVERHEAD_BOUND = 0.05

D, H, C = 128, 22, 2


def make_fixture(n_samples: int = 8192, seed: int = 0):
    """A frozen baseline pipeline + a clean pure-predict stream."""
    rng = np.random.default_rng(seed)
    X0 = rng.random((80, D))
    y0 = (np.arange(80) % C).astype(np.int64)
    model = MultiInstanceModel(D, H, C, seed=seed).fit_initial(X0, y0)
    X = rng.random((n_samples, D))
    y = (rng.random(n_samples) < 0.5).astype(np.int64)
    stream = DataStream(X, y, name="bench")
    return model, stream, X0


def unguarded_run(model, stream):
    return NoDetectionPipeline(model).run(stream)


def guarded_run(model, stream, X0):
    pipe = NoDetectionPipeline(model)
    pipe.attach_guard(RuntimeGuard.from_init_data(X0))
    return pipe.run(stream)


# --------------------------------------------------------------------------
# pytest-benchmark entry points
# --------------------------------------------------------------------------


def test_unguarded_baseline(benchmark):
    """Reference: the plain pipeline (what 'zero overhead' means)."""
    model, stream, _ = make_fixture()
    benchmark(lambda: unguarded_run(model, stream))


def test_guarded_clean_stream(benchmark):
    """The guarded fast path — must track the unguarded baseline."""
    model, stream, X0 = make_fixture()
    benchmark(lambda: guarded_run(model, stream, X0))


def test_overhead_within_bound():
    """Plain assertion (runs in the default suite, no --benchmark-only)."""
    overhead = measure_overhead(n_samples=4096, pairs=PAIRS)
    assert overhead < OVERHEAD_BOUND, (
        f"clean-stream guard overhead {overhead:+.2%} exceeds {OVERHEAD_BOUND:.0%}"
    )


# --------------------------------------------------------------------------
# Standalone smoke mode (CI)
# --------------------------------------------------------------------------


def measure_overhead(*, n_samples: int, pairs: int) -> float:
    """Relative CPU overhead of the guarded run (see ``overhead.py``)."""
    configure(enabled=False, sinks=[], reset=True)
    model, stream, X0 = make_fixture(n_samples=n_samples)

    def guarded():
        return guarded_run(model, stream, X0)

    def plain():
        return unguarded_run(model, stream)

    # Warm-up + sanity: the guarded fast path must be byte-identical.
    a, b = guarded(), plain()
    assert a == b, "guarded and unguarded runs disagree on a clean stream"
    return paired_overhead(plain, guarded, pairs=pairs)


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="fast bounded check (CI): fewer samples")
    parser.add_argument("--samples", type=int, default=None,
                        help="stream length (default 16384; 4096 with --smoke)")
    parser.add_argument("--rounds", type=int, default=PAIRS,
                        help=f"alternated A/B pairs (default {PAIRS})")
    args = parser.parse_args(argv)

    n_samples = args.samples or (4096 if args.smoke else 16384)
    overhead = measure_overhead(n_samples=n_samples, pairs=args.rounds)
    return report(
        f"clean-stream guard ({n_samples} samples)",
        overhead, OVERHEAD_BOUND, args.rounds,
        "the guard is free when the stream is clean.",
    )


if __name__ == "__main__":
    sys.exit(main())
