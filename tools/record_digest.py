"""Print sha256 digests of pipeline records and state over a fixed matrix.

Two trees that compute the same thing print the same lines, so comparing
the output of two commits on one host checks that a change kept every
record and every ``get_state()`` snapshot bit-identical::

    PYTHONPATH=src python tools/record_digest.py > after.txt
    PYTHONPATH=<other checkout>/src python tools/record_digest.py > before.txt
    diff before.txt after.txt

The matrix: five pipeline families (baseline, ONLAD, proposed, Quant
Tree batch detector, DDM error rate) plus a proposed pipeline on a
forgetting-factor model and one with ``window_size=1``, over an
NSL-KDD-like and a cooling-fan-like stream, fed through a
:class:`~repro.engine.StreamSession` in chunks of 1, 7, 60 and 256
samples, with telemetry off and on. For each cell the tool hashes every
record field by value and type (floats by their bits) and the pipeline's
``get_state()`` after every chunk; with telemetry on it also hashes the
deterministic drift/window/reconstruction events and every counter.

Fleet cells then feed an eight-device proposed fleet (half of it
drifting; default and forgetting-factor cores) through a
:class:`~repro.fleet.FleetManager` with ``batch_scoring`` off and on, in
interleaved 60-sample chunks, ten chunks per ``submit_many`` window and
capacity 6, so evict/restore runs beside the group steps. A cell hashes
every device's records and final ``get_state()``; the two settings must
print the same digest. The last line digests all cells together.
"""

from __future__ import annotations

import hashlib
import struct
import sys
import tempfile

import numpy as np

from repro.core import (
    CentroidSet,
    ErrorRatePipeline,
    ModelReconstructor,
    ProposedPipeline,
    build_baseline,
    build_model,
    build_onlad,
    build_proposed,
    build_quanttree_pipeline,
)
from repro.datasets import (
    NSLKDDConfig,
    interleave_schedule,
    make_cooling_fan_like,
    make_nslkdd_like,
)
from repro.detectors import DDM
from repro.engine import StreamSession, build_experiment, default_stack, register_pipeline
from repro.fleet import FleetManager, make_fleet_specs
from repro.telemetry import RingBufferSink, configure, get_telemetry

SEED = 3
CHUNKS = (1, 7, 60, 256)
RECORD_FIELDS = (
    "index", "predicted", "true_label", "correct", "anomaly_score",
    "drift_detected", "reconstructing", "phase",
)
#: events whose fields are pure functions of the stream (no wall clock)
EVENTS = (
    "drift_detected", "reconstruction_started", "reconstruction_finished",
    "window_opened", "window_closed", "reference_refitted",
)


def _ddm(train):
    model = build_model(train.X, train.y, seed=SEED)
    centroids = CentroidSet.from_labelled_data(train.X, train.y, train.n_classes)
    return ErrorRatePipeline(model, DDM(), ModelReconstructor(model, centroids, n_total=120))


def _forgetting(train):
    base = build_proposed(train.X, train.y, window_size=60, seed=SEED)
    model = build_model(train.X, train.y, forgetting_factor=0.98, seed=SEED)
    centroids = base.detector.centroids
    return ProposedPipeline(
        model, base.detector, ModelReconstructor(model, centroids, n_total=120)
    )


MAKERS = {
    "baseline": lambda tr: build_baseline(tr.X, tr.y, seed=SEED),
    "onlad": lambda tr: build_onlad(tr.X, tr.y, forgetting_factor=0.95, seed=SEED),
    "proposed": lambda tr: build_proposed(tr.X, tr.y, window_size=60, seed=SEED),
    "quanttree": lambda tr: build_quanttree_pipeline(
        tr.X, tr.y, batch_size=250, n_bins=8, seed=SEED
    ),
    "ddm": _ddm,
    "proposed-forgetting": _forgetting,
    "proposed-w1": lambda tr: build_proposed(
        tr.X, tr.y, window_size=1, error_z=1.0, seed=SEED
    ),
}

STREAMS = {
    "nslkdd": lambda: make_nslkdd_like(
        NSLKDDConfig(n_train=400, n_test=900, drift_at=300), seed=0
    ),
    "coolingfan": lambda: make_cooling_fan_like("sudden", n_test=300, seed=0),
}


def _fleet_forgetting(X, y, *, seed=None, **kwargs):
    """The proposed pipeline on a forgetting-factor model, as a builder."""
    base = build_proposed(X, y, seed=seed, **kwargs)
    model = build_model(X, y, forgetting_factor=0.98, seed=seed)
    return ProposedPipeline(
        model, base.detector, ModelReconstructor(model, base.detector.centroids, n_total=120)
    )


register_pipeline("digest-proposed-forgetting", _fleet_forgetting, overwrite=True)

#: fleet cell -> the pipeline its devices run
FLEETS = {"fleet-proposed": "proposed", "fleet-forgetting": "digest-proposed-forgetting"}


def _canon(obj, h) -> None:
    """Feed a value into ``h`` by type and content; floats by their bits."""
    h.update(type(obj).__name__.encode())
    if isinstance(obj, dict):
        for key in sorted(obj):
            h.update(repr(key).encode())
            _canon(obj[key], h)
    elif isinstance(obj, (list, tuple)):
        h.update(b"[%d" % len(obj))
        for value in obj:
            _canon(value, h)
    elif isinstance(obj, np.ndarray):
        h.update(f"{obj.dtype}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, float):
        h.update(struct.pack("<d", obj))
    else:
        h.update(repr(obj).encode())


def _record_fields(rec) -> list:
    return [getattr(rec, f) for f in RECORD_FIELDS]


def run_cell(maker, train, test, chunk: int, telemetry: bool) -> str:
    """Digest of one (pipeline, stream, chunk size, telemetry) cell."""
    sink = RingBufferSink(capacity=1 << 20)
    configure(enabled=telemetry, sinks=[sink] if telemetry else [], reset=True)
    try:
        pipeline = maker(train)
        session = StreamSession(pipeline, default_stack(pipeline, chunk)).open()
        h = hashlib.sha256()
        for lo in range(0, len(test), chunk):
            recs = session.feed(test.X[lo : lo + chunk], test.y[lo : lo + chunk])
            for rec in recs:
                _canon(_record_fields(rec), h)
            _canon(pipeline.get_state(), h)
        session.close()
        if telemetry:
            for event in sink.events():
                if event.name in EVENTS:
                    _canon([event.name, dict(event.fields)], h)
            for metric in get_telemetry().registry:
                if type(metric).__name__ == "Counter":
                    _canon([metric.name, metric.samples()], h)
        return h.hexdigest()
    finally:
        configure(enabled=False, sinks=[], reset=True)


def run_fleet_cell(pipeline: str, batch_scoring: bool) -> str:
    """Digest of every device's records and final state in one fleet run."""
    specs = make_fleet_specs(
        8, seed=SEED, n_test=600, drift_fraction=0.5, drift_at=300, pipeline=pipeline
    )
    streams = {dev: build_experiment(spec).test for dev, spec in specs.items()}
    ids = list(specs)
    chunks = [
        (ids[i], streams[ids[i]].X[lo:hi], streams[ids[i]].y[lo:hi])
        for i, lo, hi in interleave_schedule([600] * len(ids), 60, seed=SEED)
    ]
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as spool:
        with FleetManager(capacity=6, spool_dir=spool, batch_scoring=batch_scoring) as fm:
            for dev, spec in specs.items():
                fm.add_device(dev, spec)
            for lo in range(0, len(chunks), 10):
                fm.submit_many(chunks[lo : lo + 10])
            states = {dev: fm._touch(dev).pipeline.get_state() for dev in ids}
            records = fm.finish_all()
    for dev in ids:
        for rec in records[dev]:
            _canon(_record_fields(rec), h)
        _canon(states[dev], h)
    return h.hexdigest()


def main() -> int:
    total = hashlib.sha256()
    for label, factory in STREAMS.items():
        train, test = factory()
        for family, maker in MAKERS.items():
            for chunk in CHUNKS:
                for telemetry in (False, True):
                    digest = run_cell(maker, train, test, chunk, telemetry)
                    total.update(digest.encode())
                    tel = "on" if telemetry else "off"
                    print(f"{family:20s} {label:10s} chunk={chunk:<3d} tel={tel:3s} {digest}")
                    sys.stdout.flush()
    for family, pipeline in FLEETS.items():
        for batch_scoring in (False, True):
            digest = run_fleet_cell(pipeline, batch_scoring)
            total.update(digest.encode())
            batch = "on" if batch_scoring else "off"
            print(f"{family:20s} {'blobs':10s} batch={batch:3s}         {digest}")
            sys.stdout.flush()
    print(f"{'ALL':20s} {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
