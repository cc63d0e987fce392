"""The paired overhead statistic of ``benchmarks/overhead.py``, on a fake clock.

The smokes' real timings are host-dependent; these tests pin what the
statistic computes — alternated pairs, the per-pair ratio, the median —
with scripted timings, so they are exact and fast.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))

from overhead import overhead_of, paired_overhead, paired_runs  # noqa: E402


def _scripted(times):
    """A clock that returns the next scripted time and logs who ran."""
    order, it = [], iter(times)

    def clock(fn):
        order.append(fn.__name__)
        return next(it)

    return clock, order


def base():
    pass


def variant():
    pass


def test_pairs_alternate_which_side_runs_first():
    clock, order = _scripted([1.0] * 8)
    paired_runs(base, variant, pairs=4, clock=clock)
    assert order == ["base", "variant", "variant", "base"] * 2


def test_overhead_is_the_median_of_per_pair_ratios():
    # pairs (a, b): (1, 1.1), (2, 2.4), (1, 1.05): ratios 1.1, 1.2, 1.05
    clock, _ = _scripted([1.0, 1.1, 2.4, 2.0, 1.0, 1.05])
    a, b = paired_runs(base, variant, pairs=3, clock=clock)
    assert a == [1.0, 2.0, 1.0] and b == [1.1, 2.4, 1.05]
    assert abs(overhead_of(a, b) - 0.1) < 1e-12


def test_one_slow_pair_does_not_move_the_median():
    # A burst makes one pair's variant 3x slower; the median ignores it.
    times = []
    for k in range(7):
        a, b = 1.0, (3.0 if k == 3 else 1.02)
        times += [b, a] if k % 2 else [a, b]
    clock, _ = _scripted(times)
    assert abs(paired_overhead(base, variant, pairs=7, clock=clock) - 0.02) < 1e-12
