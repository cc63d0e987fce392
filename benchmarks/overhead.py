"""Paired A/B overhead measurement shared by the overhead smokes.

The telemetry, guard and checkpoint smokes each bound the relative CPU
cost of a variant ``B`` (instrumented, guarded, checkpointed) over a
base run ``A``. :func:`paired_overhead` measures it one way for all
three: ``pairs`` alternated in-process A/B pairs, each run timed with
``time.process_time`` (all threads, kernel time included), and the
median over pairs of ``B / A − 1``. A slow stretch of the host inflates
both halves of the pairs it touches, so it moves a pair's ratio far
less than it moves either time; and the median ignores the few pairs
that a burst hits in one half only. The order inside a pair alternates,
so running first or second favours neither side.

Self-test of the statistic (the same busy loop on both sides, then with
15 % more iterations of it planted in ``B``)::

    PYTHONPATH=src python benchmarks/overhead.py --self-test

It passes when the A/A run stays under the tightest bound (5 %) in at
least 19 of 20 invocations and the planted run exceeds the loosest
bound (10 %) in at least 19 of 20.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from typing import Callable, List, Optional, Tuple

#: smoke bounds the statistic must separate: A/A under the tightest,
#: a planted +15 % over the loosest
TIGHTEST_BOUND = 0.05
LOOSEST_BOUND = 0.10
PLANTED = 0.15

#: A/B pairs per smoke measurement
PAIRS = 21


def cpu_seconds(fn: Callable[[], object]) -> float:
    """Process CPU time of one call."""
    t0 = time.process_time()
    fn()
    return time.process_time() - t0


def paired_runs(
    base: Callable[[], object],
    variant: Callable[[], object],
    *,
    pairs: int,
    clock: Callable[[Callable[[], object]], float] = cpu_seconds,
) -> Tuple[List[float], List[float]]:
    """``pairs`` alternated A/B pairs: ``(base times, variant times)``."""
    a_times, b_times = [], []
    for k in range(pairs):
        if k % 2:
            b = clock(variant)
            a = clock(base)
        else:
            a = clock(base)
            b = clock(variant)
        a_times.append(a)
        b_times.append(b)
    return a_times, b_times


def overhead_of(a_times: List[float], b_times: List[float]) -> float:
    """Median over pairs of ``b / a − 1``."""
    return statistics.median(b / a for a, b in zip(a_times, b_times)) - 1.0


def paired_overhead(base, variant, *, pairs: int, clock=cpu_seconds) -> float:
    """Median over ``pairs`` alternated A/B pairs of ``variant / base − 1``."""
    return overhead_of(*paired_runs(base, variant, pairs=pairs, clock=clock))


def report(what: str, overhead: float, bound: float, pairs: int, ok_line: str) -> int:
    """Print the smoke verdict; returns the process exit code."""
    print(
        f"{what} overhead {overhead:+.2%} (bound {bound:.0%}, median of "
        f"{pairs} alternated pairs, process CPU)"
    )
    if overhead < bound:
        print(f"OK: {ok_line}")
        return 0
    print(f"FAIL: overhead {overhead:+.2%} exceeds {bound:.0%}.")
    return 1


# -- self-test -------------------------------------------------------------------------


def _busy_loop(n: int) -> float:
    """``n`` iterations of pure-Python CPU work."""
    total = 0.0
    for i in range(n):
        total += i * 0.5
    return total


def self_test(invocations: int = 20, pairs: int = PAIRS, n: int = 150_000) -> int:
    extra = int(PLANTED * n)

    def base() -> None:
        _busy_loop(n)

    def planted() -> None:
        # The planted cost is the same loop, so it tracks the host's speed.
        _busy_loop(n)
        _busy_loop(extra)

    aa = [paired_overhead(base, base, pairs=pairs) for _ in range(invocations)]
    ab = [paired_overhead(base, planted, pairs=pairs) for _ in range(invocations)]
    aa_pass = sum(r < TIGHTEST_BOUND for r in aa)
    ab_fail = sum(r >= LOOSEST_BOUND for r in ab)
    print(
        f"A/A: passed {aa_pass}/{invocations} under {TIGHTEST_BOUND:.0%} "
        f"(readings {min(aa):+.2%} .. {max(aa):+.2%})"
    )
    print(
        f"planted +{PLANTED:.0%}: failed {ab_fail}/{invocations} over "
        f"{LOOSEST_BOUND:.0%} (readings {min(ab):+.2%} .. {max(ab):+.2%})"
    )
    need = invocations - invocations // 20
    if aa_pass >= need and ab_fail >= need:
        print("OK: the paired statistic separates A/A from a planted cost.")
        return 0
    print(f"FAIL: each rate must reach {need}/{invocations}.")
    return 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--self-test", action="store_true",
                        help="check the statistic on A/A and planted-cost runs")
    args = parser.parse_args(argv)
    if not args.self_test:
        parser.print_help()
        return 2
    return self_test()


if __name__ == "__main__":
    sys.exit(main())
