"""Calibration statistics and the parent-vs-change comparison rule.

Pure functions over lists of per-run metric values, so the tests can
feed them hand-made samples. Spreads use ``statistics.quantiles(values,
n=4)`` (the exclusive method).
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Optional, Sequence

#: Bounds never go below this share of the parent's median...
BOUND_FLOOR = 0.05
#: ...nor above this one: a wider bound would let a real regression
#: pass as noise.
BOUND_CAP = 0.25
#: A claimed gain must win this share of the alternating pairs.
WIN_SHARE = 0.9
MIN_PAIRS = 10


def quartiles(values: Sequence[float]):
    """``(q1, median, q3)``; a single value is its own quartiles."""
    if len(values) < 2:
        v = float(values[0])
        return v, v, v
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def describe(values: Sequence[float]) -> dict:
    """min / median / max plus IQR and range as shares of the median."""
    q1, med, q3 = quartiles(values)
    scale = abs(med) or 1.0
    return {
        "n": len(values),
        "min": min(values),
        "median": med,
        "max": max(values),
        "iqr_rel": (q3 - q1) / scale,
        "range_rel": (max(values) - min(values)) / scale,
    }


def derive_bound(per_workload: Sequence[dict], *, setup: bool = False) -> float:
    """Regression bound for one metric from its calibration spreads.

    1.5x the largest range and 3x the largest IQR seen on any workload
    (so a run-to-run spread stays under a third of the bound), floored
    at 5% and capped at 25%; ``setup_s`` always takes the cap, the
    largest bound, because process start-up is the noisiest time.
    """
    if setup:
        return BOUND_CAP
    need = max(
        max(1.5 * d["range_rel"], 3.0 * d["iqr_rel"]) for d in per_workload
    )
    # Round up to whole percent (the epsilon keeps 0.24000000000000002 at 24).
    return min(BOUND_CAP, max(BOUND_FLOOR, math.ceil(need * 100 - 1e-9) / 100))


def _better(a: float, b: float, higher: bool) -> bool:
    return a > b if higher else a < b


def compare_metric(
    parent: Sequence[float],
    change: Sequence[float],
    *,
    better: str,
    bound: float,
    claimed: bool = False,
) -> dict:
    """Verdict for one metric on one workload.

    ``parent[k]`` and ``change[k]`` are the values of the *k*-th pair of
    runs. A claimed metric is a ``win`` only if the change is better in
    at least 9/10 of at least ten pairs (ties count for neither) and the
    medians differ by more than the parent's IQR; otherwise ``not met``.
    An unclaimed metric is ``ok`` unless its median worsened by more than
    ``bound`` (``regressed``); when the parent's own IQR is wider than
    the bound it is ``unresolved``, or ``better`` if every change run
    beats every parent run.
    """
    higher = better == "higher"
    q1, med_p, q3 = quartiles(parent)
    _, med_c, _ = quartiles(change)
    pairs = min(len(parent), len(change))
    wins = sum(1 for p, c in zip(parent, change) if _better(c, p, higher))
    scale = abs(med_p) or 1.0
    worse = (med_p - med_c) / scale if higher else (med_c - med_p) / scale
    out = {
        "parent": med_p, "change": med_c, "pairs": pairs, "wins": wins,
        "worse_rel": worse, "parent_iqr": q3 - q1,
    }
    if claimed:
        ok = (
            pairs >= MIN_PAIRS
            and wins >= WIN_SHARE * pairs
            and _better(med_c, med_p, higher)
            and abs(med_c - med_p) > q3 - q1
        )
        out["verdict"] = "win" if ok else "not met"
        return out
    if (q3 - q1) / scale > bound:
        all_better = all(_better(c, p, higher) for c in change for p in parent)
        out["verdict"] = "better" if all_better else "unresolved"
    elif worse > bound:
        out["verdict"] = "regressed"
    else:
        out["verdict"] = "ok"
    return out


def compare_runs(
    parent: List[dict],
    change: List[dict],
    metrics: List[dict],
    claims: Optional[set] = None,
) -> Dict[str, Dict[str, dict]]:
    """Verdicts per workload and metric from two lists of run records.

    ``metrics`` are the ``end_to_end`` entries of ``BENCHMARK.json``;
    ``claims`` holds ``(metric, workload)`` pairs the change claims. A
    claim cannot be met when the change failed more operations.

    Each side's runs of a workload pair up in the order they were
    recorded, so a seed may repeat; a pair whose seeds differ, or a side
    with more runs than the other, raises :class:`ValueError`.
    """
    claims = claims or set()
    out: Dict[str, Dict[str, dict]] = {}
    workloads = sorted({r["workload"] for r in parent} & {r["workload"] for r in change})
    for w in workloads:
        p_runs = [r for r in parent if r["workload"] == w]
        c_runs = [r for r in change if r["workload"] == w]
        if len(p_runs) != len(c_runs):
            raise ValueError(
                f"{w}: {len(p_runs)} parent runs but {len(c_runs)} change runs"
            )
        for k, (p, c) in enumerate(zip(p_runs, c_runs)):
            if p["seed"] != c["seed"]:
                raise ValueError(
                    f"{w}: pair {k} ran seed {p['seed']} for the parent "
                    f"but seed {c['seed']} for the change"
                )
        more_failed = (
            sum(r["failed"] for r in c_runs) > sum(r["failed"] for r in p_runs)
        )
        row = {}
        for m in metrics:
            name = m["name"]
            verdict = compare_metric(
                [r["metrics"][name]["value"] for r in p_runs],
                [r["metrics"][name]["value"] for r in c_runs],
                better=m["better"],
                bound=m["bound"],
                claimed=(name, w) in claims,
            )
            if verdict["verdict"] == "win" and more_failed:
                verdict["verdict"] = "not met"
            row[name] = verdict
        out[w] = row
    return out
