"""Proof that periodic checkpointing is cheap on the streaming hot path.

Crash safety is only deployable if its cost is marginal: the acceptance
bound is that ``StreamPipeline.run`` with ``checkpoint_every=256`` stays
within 10 % of the plain (non-checkpointed) run on a pure-predict stream
— the worst case for relative overhead, since there is no adaptation
work to hide the serialisation behind. Records must also be identical:
checkpointing may cost time, never fidelity.

The bounded quantity is process *CPU* time (``time.process_time``,
which charges the background checkpoint-writer thread to us — nothing
is hidden by offloading), as the median over alternated A/B pairs of
the per-pair ratio (``benchmarks/overhead.py``). CPU time is the honest proxy for the cost
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
from pathlib import Path
from typing import List

import numpy as np
from overhead import PAIRS, paired_overhead, report

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
    overhead = measure_overhead(n_samples=8192, pairs=PAIRS)
    assert overhead < OVERHEAD_BOUND, (
        f"checkpoint overhead {overhead:+.2%} exceeds {OVERHEAD_BOUND:.0%}"
    )


# --------------------------------------------------------------------------
# Standalone smoke mode (CI)
# --------------------------------------------------------------------------


def measure_overhead(*, n_samples: int, pairs: int) -> float:
    """Relative CPU overhead of the checkpointed run (see ``overhead.py``).

    Each timing call uses a *fresh* pipeline — ``run`` advances
    ``_index``, so reuse would make later pairs measure a different code
    path.
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
        return paired_overhead(plain, checkpointed, pairs=pairs)


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="fast bounded check (CI): fewer samples")
    parser.add_argument("--samples", type=int, default=None,
                        help="stream length (default 16384; 8192 with --smoke)")
    parser.add_argument("--rounds", type=int, default=PAIRS,
                        help=f"alternated A/B pairs (default {PAIRS})")
    args = parser.parse_args(argv)

    n_samples = args.samples or (8192 if args.smoke else 16384)
    overhead = measure_overhead(n_samples=n_samples, pairs=args.rounds)
    return report(
        f"checkpoint-every-{CHECKPOINT_EVERY} ({n_samples} samples)",
        overhead, OVERHEAD_BOUND, args.rounds,
        "checkpointing is cheap on the hot path.",
    )


if __name__ == "__main__":
    sys.exit(main())
