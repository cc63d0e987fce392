"""Serializable point-in-time captures of a :class:`MetricsRegistry`.

A :class:`TelemetrySnapshot` is plain data — nested builtins only — so it
pickles across process boundaries (:class:`~repro.fleet.pool.ShardPool`
workers, including the ones that run ``ParallelRunner`` cells) and
round-trips through JSON unchanged. The registry produces one
via :meth:`~repro.telemetry.metrics.MetricsRegistry.snapshot` and consumes
one via :meth:`~repro.telemetry.metrics.MetricsRegistry.merge`; the
:meth:`diff` method turns two successive captures into a *delta* snapshot
so workers can ship only what changed since their last flush.

Per-metric payload shape (the ``metrics`` mapping)::

    {
        "kind": "counter" | "gauge" | "histogram",
        "help": str,
        "labels": [...],          # full label names, in key order
        "explicit": [...],        # labels declared at registration time
        "buckets": [...],         # histograms only: fixed upper edges
        "series": [
            {"labels": {...}, "value": float},                 # counter/gauge
            {"labels": {...}, "counts": [...], "sum": float,
             "count": int},                                    # histogram
        ],
    }
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = ["TelemetrySnapshot"]


def _series_key(labels: Dict[str, str]):
    return tuple(sorted(labels.items()))


def _indexed(series: List[dict]) -> Dict[tuple, dict]:
    return {_series_key(s["labels"]): s for s in series}


@dataclass
class TelemetrySnapshot:
    """A picklable, JSON-round-trippable capture of every metric series."""

    metrics: Dict[str, dict] = field(default_factory=dict)

    def is_empty(self) -> bool:
        """True when no metric carries any series (nothing to merge)."""
        return not any(m.get("series") for m in self.metrics.values())

    # -- (de)serialisation -----------------------------------------------------

    def to_json(self) -> dict:
        return {"metrics": self.metrics}

    @classmethod
    def from_json(cls, data: dict) -> "TelemetrySnapshot":
        return cls(metrics=dict(data.get("metrics", {})))

    # -- deltas ----------------------------------------------------------------

    def diff(self, baseline: Optional["TelemetrySnapshot"]) -> "TelemetrySnapshot":
        """What changed since ``baseline`` (an earlier capture).

        Counters and histogram series subtract bucket-wise; a counter that
        went *backwards* (registry reset between captures) is treated as a
        fresh start and shipped whole, mirroring Prometheus counter-reset
        semantics. Gauges are last-write-wins, so a gauge series is kept
        only when its value differs from the baseline's. Metrics left with
        no changed series are dropped entirely.
        """
        if baseline is None:
            return TelemetrySnapshot(metrics=self.metrics)
        out: Dict[str, dict] = {}
        for name, data in self.metrics.items():
            base = baseline.metrics.get(name)
            base_series = _indexed(base["series"]) if base else {}
            kind = data["kind"]
            changed: List[dict] = []
            for s in data["series"]:
                prev = base_series.get(_series_key(s["labels"]))
                if kind == "counter":
                    prev_v = prev["value"] if prev else 0.0
                    delta = (
                        s["value"] if s["value"] < prev_v else s["value"] - prev_v
                    )
                    if delta != 0.0:
                        changed.append({"labels": dict(s["labels"]), "value": delta})
                elif kind == "gauge":
                    if prev is None or prev["value"] != s["value"]:
                        changed.append(
                            {"labels": dict(s["labels"]), "value": s["value"]}
                        )
                else:  # histogram
                    prev_counts = prev["counts"] if prev else [0] * len(s["counts"])
                    if prev and s["count"] < prev["count"]:
                        prev_counts = [0] * len(s["counts"])
                        prev = None
                    counts = [c - p for c, p in zip(s["counts"], prev_counts)]
                    count = s["count"] - (prev["count"] if prev else 0)
                    if count:
                        changed.append(
                            {
                                "labels": dict(s["labels"]),
                                "counts": counts,
                                "sum": s["sum"] - (prev["sum"] if prev else 0.0),
                                "count": count,
                            }
                        )
            if changed:
                entry = {k: v for k, v in data.items() if k != "series"}
                entry["series"] = changed
                out[name] = entry
        return TelemetrySnapshot(metrics=out)
