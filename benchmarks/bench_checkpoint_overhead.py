"""Proof that periodic checkpointing is cheap on the streaming hot path.

Crash safety is only deployable if its cost is marginal: the acceptance
bound is that ``StreamPipeline.run`` with ``checkpoint_every=256`` stays
within 10 % of the plain (non-checkpointed) run on a pure-predict stream
— the worst case for relative overhead, since there is no adaptation
work to hide the serialisation behind. Records must also be identical:
checkpointing may cost time, never fidelity.

The bounded quantity is process *CPU* time (``time.process_time``,
which charges the background checkpoint-writer thread to us — nothing
is hidden by offloading). CPU time is the honest proxy for the cost
the paper cares about — compute on a busy edge device — and unlike
wall time it is insensitive to noisy-neighbour drift on shared CI
runners, whose round-to-round wall variance alone can exceed the 10 %
bound. The pytest-benchmark entries still record wall time for trend
tracking.

Two entry points:

* pytest-benchmark (regression tracking)::

      PYTHONPATH=src python -m pytest benchmarks/bench_checkpoint_overhead.py --benchmark-only

* standalone smoke check for CI (no pytest needed; exits non-zero when
  the overhead bound is violated)::

      PYTHONPATH=src python benchmarks/bench_checkpoint_overhead.py --smoke
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, List

import numpy as np

from repro.core.pipeline import NoDetectionPipeline
from repro.datasets import DataStream
from repro.oselm import MultiInstanceModel

#: Relative process-CPU overhead allowed for checkpointing every 256 samples.
OVERHEAD_BOUND = 0.10
CHECKPOINT_EVERY = 256

D, H, C = 128, 22, 2


def make_fixture(n_samples: int = 8192, seed: int = 0):
    """A frozen baseline model + a pure-predict stream (no drift)."""
    rng = np.random.default_rng(seed)
    X0 = rng.random((80, D))
    y0 = (np.arange(80) % C).astype(np.int64)
    model = MultiInstanceModel(D, H, C, seed=seed).fit_initial(X0, y0)
    X = rng.random((n_samples, D))
    y = (rng.random(n_samples) < 0.5).astype(np.int64)
    stream = DataStream(X, y, name="bench")
    return model, stream


# --------------------------------------------------------------------------
# pytest-benchmark entry points
# --------------------------------------------------------------------------


def test_plain_baseline(benchmark):
    """Reference: the ordinary chunked run, no checkpoints."""
    model, stream = make_fixture()
    benchmark(lambda: NoDetectionPipeline(model).run(stream))


def test_checkpointed_every_256(benchmark):
    """The checkpointed run — must track the baseline within 10 %."""
    model, stream = make_fixture()
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "bench.ckpt"
        benchmark(
            lambda: NoDetectionPipeline(model).run(
                stream, checkpoint_every=CHECKPOINT_EVERY, checkpoint_path=path
            )
        )


def test_overhead_within_bound():
    """Plain assertion (runs in the default suite, no --benchmark-only)."""
    ratios = []
    for _ in range(3):  # re-measure on noise: any clean attempt passes
        ratios.append(measure_overhead(n_samples=8192, rounds=7))
        if ratios[-1] < OVERHEAD_BOUND:
            return
    joined = ", ".join(f"{r:+.2%}" for r in ratios)
    raise AssertionError(
        f"checkpoint overhead exceeded {OVERHEAD_BOUND:.0%} in every "
        f"attempt: {joined}"
    )


# --------------------------------------------------------------------------
# Standalone smoke mode (CI)
# --------------------------------------------------------------------------


def _cpu_seconds(fn: Callable[[], object]) -> float:
    """Process CPU time of one call (all threads, kernel time included)."""
    t0 = time.process_time()
    fn()
    return time.process_time() - t0


def measure_overhead(*, n_samples: int, rounds: int) -> float:
    """Best-of-``rounds`` relative CPU overhead of the checkpointed run.

    Variants are timed in interleaved rounds (A/B, A/B, ...) so slow host
    drift cancels out of the best-of comparison. Each timing call uses a
    *fresh* pipeline — ``run`` advances ``_index``, so reuse would make
    later rounds measure a different code path.
    """
    model, stream = make_fixture(n_samples=n_samples)

    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "bench.ckpt"

        def plain():
            return NoDetectionPipeline(model).run(stream)

        def checkpointed():
            return NoDetectionPipeline(model).run(
                stream, checkpoint_every=CHECKPOINT_EVERY, checkpoint_path=path
            )

        # Warm-up + sanity: checkpointing must not change the records
        # (StepRecord is a named tuple — field-wise equality).
        assert plain() == checkpointed(), "plain and checkpointed runs disagree"

        best_plain = float("inf")
        best_ckpt = float("inf")
        for _ in range(rounds):
            best_ckpt = min(best_ckpt, _cpu_seconds(checkpointed))
            best_plain = min(best_plain, _cpu_seconds(plain))
    return best_ckpt / best_plain - 1.0


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="fast bounded check (CI): fewer samples/rounds")
    parser.add_argument("--samples", type=int, default=None,
                        help="stream length (default 16384; 8192 with --smoke)")
    parser.add_argument("--rounds", type=int, default=None,
                        help="timing rounds per variant (default 15; 7 with --smoke)")
    parser.add_argument("--attempts", type=int, default=3,
                        help="re-measure up to this many times before failing")
    args = parser.parse_args(argv)

    n_samples = args.samples or (8192 if args.smoke else 16384)
    rounds = args.rounds or (7 if args.smoke else 15)

    ratio = float("inf")
    for attempt in range(1, args.attempts + 1):
        ratio = measure_overhead(n_samples=n_samples, rounds=rounds)
        print(
            f"attempt {attempt}: checkpoint-every-{CHECKPOINT_EVERY} overhead "
            f"{ratio:+.2%} (bound {OVERHEAD_BOUND:.0%}, {n_samples} samples, "
            f"best of {rounds})"
        )
        if ratio < OVERHEAD_BOUND:
            print("OK: checkpointing is cheap on the hot path.")
            return 0
    print(f"FAIL: overhead {ratio:+.2%} exceeds {OVERHEAD_BOUND:.0%}.")
    return 1


if __name__ == "__main__":
    sys.exit(main())
