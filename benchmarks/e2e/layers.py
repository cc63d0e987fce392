"""Per-layer tracing: wrap public ``repro`` calls, reduce spans to metrics.

:func:`install` replaces each call in :data:`TARGETS` with a
:class:`~spans.Tracer` wrapper. It runs in the system's process before
the stack is built, so every object the stack creates calls the
wrappers. The layer of a call is its module name without ``repro.``.

:func:`layer_metrics` turns one repetition's spans into the per-layer
metrics listed in ``BENCHMARK.json`` (``per_layer``); the README maps
each metric to the end-to-end metric it should move.
"""

from __future__ import annotations

import importlib
import inspect
import os
from typing import Dict, List, Optional

import numpy as np

from spans import Span, Tracer, calls, self_by_layer

#: Layers whose work happens inside the system's process. Each gets a
#: ``<layer>.self_ms`` metric except where a named metric already is
#: that layer's self time (``fleet.manager.submit_many_self_ms``,
#: ``engine.session.feed_self_ms``).
SELF_TIME_LAYERS = (
    "serving.ingest",
    "serving.admission",
    "fleet.batching",
    "engine.spec",
    "core.pipeline",
    "core.detector",
    "core.reconstruction",
    "oselm.ensemble",
    "resilience.checkpoint",
)


def _rows_tags(args, kwargs, result):
    # ``X`` is the second argument of both scoring calls (after ``self``
    # for the method, after ``models`` for the static kernel).
    return {"rows": len(args[1])}


def _submit_many_tags(args, kwargs, result):
    return {"devices": [str(entry[0]) for entry in args[1]]}


def _offer_tags(args, kwargs, result):
    return {"device": str(args[1]), "seq": int(args[2]), "status": result.status.value}


def _admit_tags(args, kwargs, result):
    return {"accepted": bool(result.accepted)}


def _save_tags(args, kwargs, result):
    return {"bytes": os.path.getsize(result)}


def _prime_tags(args, kwargs, result):
    return {"rows": int(result)}


#: (layer, module, class or None for a module function, attribute, tagger)
TARGETS = (
    ("serving.ingest", "repro.serving.ingest", "IngestCore", "offer", _offer_tags),
    ("serving.ingest", "repro.serving.ingest", "IngestCore", "results", None),
    ("serving.admission", "repro.serving.admission", "AdmissionController",
     "admit", _admit_tags),
    ("fleet.manager", "repro.fleet.manager", "FleetManager", "submit_many",
     _submit_many_tags),
    ("fleet.manager", "repro.fleet.manager", "FleetManager", "submit", None),
    ("fleet.manager", "repro.fleet.manager", "FleetManager", "finish_all", None),
    ("fleet.batching", "repro.fleet.batching", "BatchGroup", "prime", _prime_tags),
    # The manager imports build_experiment and the resilience helpers at
    # call time, so replacing the module attributes reaches it.
    ("engine.spec", "repro.engine.spec", None, "build_experiment", None),
    ("engine.session", "repro.engine.session", "StreamSession", "feed", None),
    ("core.pipeline", "repro.core.pipeline", "ProposedPipeline", "process_one", None),
    ("core.detector", "repro.core.detector", "SequentialDriftDetector", "update",
     None),
    ("core.reconstruction", "repro.core.reconstruction", "ModelReconstructor",
     "process", None),
    ("oselm.ensemble", "repro.oselm.ensemble", "MultiInstanceModel",
     "predict_with_score", None),
    ("oselm.ensemble", "repro.oselm.ensemble", "MultiInstanceModel",
     "predict_with_score_batch", _rows_tags),
    ("oselm.ensemble", "repro.oselm.ensemble", "MultiInstanceModel",
     "score_batch_many", _rows_tags),
    ("oselm.ensemble", "repro.oselm.ensemble", "MultiInstanceModel",
     "partial_fit_one", None),
    ("resilience.checkpoint", "repro.resilience", None, "save_checkpoint",
     _save_tags),
    ("resilience.checkpoint", "repro.resilience", None, "load_checkpoint", None),
    ("resilience.checkpoint", "repro.resilience", None, "encode_records", None),
    ("resilience.checkpoint", "repro.resilience", None, "decode_records", None),
)


def install(tracer: Tracer) -> None:
    """Wrap every call in :data:`TARGETS` (once per process)."""
    for layer, module_name, cls_name, attr, tagger in TARGETS:
        module = importlib.import_module(module_name)
        if cls_name is None:
            setattr(module, attr, tracer.wrap(layer, attr, getattr(module, attr), tagger))
            continue
        cls = getattr(module, cls_name)
        raw = inspect.getattr_static(cls, attr)
        if isinstance(raw, staticmethod):
            wrapped = tracer.wrap(layer, attr, raw.__func__, tagger)
            setattr(cls, attr, staticmethod(wrapped))
        else:
            setattr(cls, attr, tracer.wrap(layer, attr, raw, tagger))


def _ms(seconds: float) -> float:
    return 1000.0 * seconds


def _pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def _durations(spans: List[Span], layer: str, name: str) -> List[float]:
    return [s.duration for s in calls(spans, layer, name)]


def lane_waits(spans: List[Span]) -> List[float]:
    """Seconds from each admitted offer's return to its dispatch window.

    Lanes release each device's chunks strictly in sequence, so the
    *k*-th appearance of a device across the dispatcher's windows is its
    chunk ``seq = k``; a stashed chunk's wait includes its stash time.
    """
    offered = {}
    for s in calls(spans, "serving.ingest", "offer"):
        tags = s.tags or {}
        if tags.get("status") in ("accepted", "buffered"):
            offered[(tags["device"], tags["seq"])] = s.t1
    windows = sorted(
        (s for s in spans if s.name == "submit_many" and s.parent is None),
        key=lambda s: s.t0,
    )
    seen: Dict[str, int] = {}
    waits = []
    for window in windows:
        for device in (window.tags or {}).get("devices", ()):
            seq = seen.get(device, 0)
            seen[device] = seq + 1
            admitted = offered.get((device, seq))
            if admitted is not None:
                waits.append(window.t0 - admitted)
    return waits


def layer_metrics(
    spans: List[Span],
    *,
    stats: Optional[dict],
    samples: int,
) -> Dict[str, float]:
    """System-side per-layer metrics for one measured repetition.

    ``spans`` started inside the measured interval; ``stats`` is the
    fleet's :class:`FleetStats` JSON (or ``None``), ``samples`` the
    samples fed in the interval. Driver-side metrics
    (``serving.server.*``, ``trace.*``) are added by the caller.
    """
    by_layer = self_by_layer(spans)
    m: Dict[str, float] = {}
    for layer in SELF_TIME_LAYERS:
        m[f"{layer}.self_ms"] = _ms(by_layer.get(layer, 0.0))

    offers = _durations(spans, "serving.ingest", "offer")
    waits = lane_waits(spans)
    # Without offers the top-level windows are the closed-loop driver's,
    # not the ingest dispatcher's.
    windows = [
        len((s.tags or {}).get("devices", ()))
        for s in spans
        if offers and s.name == "submit_many" and s.parent is None
    ]
    m["serving.ingest.offer_p50_us"] = 1e6 * _pct(offers, 50)
    m["serving.ingest.lane_wait_p50_ms"] = _ms(_pct(waits, 50))
    m["serving.ingest.lane_wait_p99_ms"] = _ms(_pct(waits, 99))
    m["serving.ingest.window_chunks_mean"] = _mean(windows)
    m["serving.admission.refused"] = float(sum(
        1 for s in calls(spans, "serving.admission", "admit")
        if not (s.tags or {}).get("accepted", True)
    ))

    stats = stats or {}
    m["fleet.manager.submit_many_self_ms"] = _ms(by_layer.get("fleet.manager", 0.0))
    m["fleet.manager.evictions"] = float(stats.get("evictions", 0))
    m["fleet.manager.restores"] = float(stats.get("restores", 0))
    batched = stats.get("batched_samples", 0)
    fallback = stats.get("fallback_samples", 0)
    m["fleet.batching.prime_ms"] = _ms(sum(_durations(spans, "fleet.batching", "prime")))
    m["fleet.batching.hit_ratio"] = (
        batched / (batched + fallback) if batched + fallback else 0.0
    )

    builds = _durations(spans, "engine.spec", "build_experiment")
    m["engine.spec.build_calls"] = float(len(builds))
    m["engine.spec.build_mean_ms"] = _ms(_mean(builds))
    m["engine.session.feed_self_ms"] = _ms(by_layer.get("engine.session", 0.0))

    batch_rows = sum(
        (s.tags or {}).get("rows", 0)
        for s in calls(spans, "oselm.ensemble", "predict_with_score_batch")
    )
    m["core.pipeline.process_one_calls"] = float(
        len(calls(spans, "core.pipeline", "process_one"))
    )
    m["core.pipeline.fast_path_ratio"] = batch_rows / samples if samples else 0.0
    updates = _durations(spans, "core.detector", "update")
    m["core.detector.update_calls"] = float(len(updates))
    m["core.detector.update_ms"] = _ms(sum(updates))
    m["core.reconstruction.process_ms"] = _ms(
        sum(_durations(spans, "core.reconstruction", "process"))
    )

    score_names = ("predict_with_score", "predict_with_score_batch", "score_batch_many")
    m["oselm.ensemble.score_one_calls"] = float(
        len(calls(spans, "oselm.ensemble", "predict_with_score"))
    )
    m["oselm.ensemble.score_rows"] = float(
        batch_rows + sum(
            (s.tags or {}).get("rows", 0)
            for s in calls(spans, "oselm.ensemble", "score_batch_many")
        )
    )
    m["oselm.ensemble.score_ms"] = _ms(
        sum(sum(_durations(spans, "oselm.ensemble", n)) for n in score_names)
    )
    m["oselm.ensemble.partial_fit_ms"] = _ms(
        sum(_durations(spans, "oselm.ensemble", "partial_fit_one"))
    )

    saves = calls(spans, "resilience.checkpoint", "save_checkpoint")
    m["resilience.checkpoint.save_mean_ms"] = _ms(_mean([s.duration for s in saves]))
    m["resilience.checkpoint.load_mean_ms"] = _ms(
        _mean(_durations(spans, "resilience.checkpoint", "load_checkpoint"))
    )
    m["resilience.checkpoint.spool_bytes_mean"] = _mean(
        [(s.tags or {}).get("bytes", 0) for s in saves]
    )
    return m


def server_metrics(posts: List[dict], requests: int) -> Dict[str, float]:
    """``serving.server.*`` from the driver's POST round trips.

    Each entry of ``posts`` holds the client round trip ``rtt`` and the
    server's ``IngestCore.offer`` span ``offer`` for the same request (in
    seconds); the difference is time spent in the HTTP layer and on the
    wire.
    """
    rtts = [p["rtt"] for p in posts]
    own = [p["rtt"] - p["offer"] for p in posts if p.get("offer") is not None]
    return {
        "serving.server.post_self_p50_ms": _ms(_pct(own, 50)),
        "serving.server.post_rtt_p99_ms": _ms(_pct(rtts, 99)),
        "serving.server.requests": float(requests),
    }
