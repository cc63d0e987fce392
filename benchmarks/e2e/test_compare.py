"""The parent-vs-change rule and bound derivation on hand-made samples."""

from __future__ import annotations

import pytest

from verdict import compare_metric, compare_runs, derive_bound, describe

PARENT = [100.0 + d for d in [-2, -1, 0, 1, 2, -1.5, 0.5, 1.5, -0.5, 0]]


def _shift(values: list, by: float) -> list:
    return [v + by for v in values]


def test_claim_wins_only_with_nine_of_ten_pairs_and_a_gap_beyond_the_iqr():
    change = _shift(PARENT, 10.0)
    v = compare_metric(PARENT, change, better="higher", bound=0.05, claimed=True)
    assert (v["verdict"], v["wins"], v["pairs"]) == ("win", 10, 10)

    # One lost pair still wins (9/10); two lose it (8/10).
    one_loss = [PARENT[0] - 1] + change[1:]
    assert compare_metric(PARENT, one_loss, better="higher", bound=0.05,
                          claimed=True)["verdict"] == "win"
    two_losses = [PARENT[0] - 1, PARENT[1] - 1] + change[2:]
    assert compare_metric(PARENT, two_losses, better="higher", bound=0.05,
                          claimed=True)["verdict"] == "not met"


def test_claim_needs_the_median_gap_to_exceed_the_parent_iqr():
    # Every pair wins by a hair: 10/10, but inside the parent's spread.
    change = _shift(PARENT, 0.1)
    v = compare_metric(PARENT, change, better="higher", bound=0.05, claimed=True)
    assert v["wins"] == 10 and v["verdict"] == "not met"


def test_claim_needs_ten_pairs():
    few = PARENT[:5]
    v = compare_metric(few, _shift(few, 10.0), better="higher", bound=0.05,
                       claimed=True)
    assert v["verdict"] == "not met"


def test_lower_is_better_metrics_win_by_going_down():
    change = _shift(PARENT, -10.0)
    assert compare_metric(PARENT, change, better="lower", bound=0.05,
                          claimed=True)["verdict"] == "win"
    assert compare_metric(PARENT, change, better="higher", bound=0.05)[
        "verdict"] == "regressed"


def test_unclaimed_metric_within_bound_is_ok_and_beyond_is_regressed():
    assert compare_metric(PARENT, _shift(PARENT, -4.0), better="higher",
                          bound=0.05)["verdict"] == "ok"
    v = compare_metric(PARENT, _shift(PARENT, -6.0), better="higher", bound=0.05)
    assert v["verdict"] == "regressed"
    assert v["worse_rel"] == pytest.approx(0.06)


def test_spread_wider_than_the_bound_is_unresolved_unless_every_run_is_better():
    noisy = [100.0 + 10 * d for d in [-2, -1, 0, 1, 2, -1.5, 0.5, 1.5, -0.5, 0]]
    assert compare_metric(noisy, _shift(noisy, -30.0), better="higher",
                          bound=0.05)["verdict"] == "unresolved"
    assert compare_metric(noisy, [200.0] * len(noisy), better="higher",
                          bound=0.05)["verdict"] == "better"


METRICS = [{"name": "samples_per_sec", "better": "higher", "bound": 0.05}]


def _runs(workload, values, failed=0, seeds=None):
    seeds = range(len(values)) if seeds is None else seeds
    return [
        {"workload": workload, "seed": s, "failed": failed,
         "metrics": {"samples_per_sec": {"value": v}}}
        for s, v in zip(seeds, values)
    ]


def test_each_workload_gets_its_own_row_and_failures_void_a_claim():
    parent = _runs("a", PARENT) + _runs("b", PARENT)
    change = _runs("a", _shift(PARENT, 10.0)) + _runs("b", _shift(PARENT, -8.0))
    table = compare_runs(parent, change, METRICS, {("samples_per_sec", "a")})
    assert table["a"]["samples_per_sec"]["verdict"] == "win"
    assert table["b"]["samples_per_sec"]["verdict"] == "regressed"

    failing = _runs("a", _shift(PARENT, 10.0), failed=1)
    table = compare_runs(_runs("a", PARENT), failing, METRICS, {("samples_per_sec", "a")})
    assert table["a"]["samples_per_sec"]["verdict"] == "not met"


def test_runs_of_one_seed_pair_in_recorded_order():
    # Ten alternating pairs all on seed 0: every run counts, none overwrites.
    same = [0] * len(PARENT)
    parent = _runs("a", PARENT, seeds=same)
    change = _runs("a", _shift(PARENT, 10.0), seeds=same)
    v = compare_runs(parent, change, METRICS, {("samples_per_sec", "a")})["a"][
        "samples_per_sec"]
    assert (v["verdict"], v["wins"], v["pairs"]) == ("win", 10, 10)
    # A regression in the later runs of the seed is seen, not dropped.
    late_drop = _runs("a", PARENT[:5] + _shift(PARENT[5:], -30.0), seeds=same)
    v = compare_runs(parent, late_drop, METRICS)["a"]["samples_per_sec"]
    assert v["pairs"] == 10 and v["change"] < v["parent"]


def test_pairs_must_run_the_same_seeds():
    parent = _runs("a", PARENT)
    with pytest.raises(ValueError, match="seed"):
        compare_runs(parent, _runs("a", PARENT, seeds=range(1, 11)), METRICS)
    with pytest.raises(ValueError, match="runs"):
        compare_runs(parent, _runs("a", PARENT[:9]), METRICS)


def test_bounds_come_from_the_widest_spread_with_floor_and_cap():
    calm = describe([100, 100.5, 101, 99.5, 100.2])
    assert derive_bound([calm]) == 0.05
    wide = describe([100, 104, 108, 96, 100])
    assert derive_bound([calm, wide]) == pytest.approx(0.24)   # 3 x IQR 8%
    assert derive_bound([describe([50, 150, 100, 100, 100])]) == 0.25
    assert derive_bound([calm], setup=True) == 0.25
