"""Integration tests: the instrumented pipelines, detector, reconstructor,
and parallel runner against the acceptance criteria.

The key guarantees exercised here:

* event streams (ring buffer and JSONL) carry exactly the drift /
  reconstruction indices that ``pipeline.detections`` and the per-sample
  :class:`StepRecord` list report;
* instrumentation never changes results — records are identical with
  telemetry enabled and disabled;
* :class:`ParallelRunner` cache-hit/miss counters agree with the on-disk
  cache and the ``from_cache`` flags.
"""

from __future__ import annotations

import json

import pytest

from repro.core import build_proposed, build_quanttree_pipeline
from repro.engine import DATASET_FACTORIES, Interceptor, StreamEngine, default_stack
from repro.metrics import ParallelRunner, make_grid
from repro.telemetry import JsonlSink, RingBufferSink, configure, get_telemetry

#: One blobs stream where the proposed pipeline detects one drift and
#: completes one 100-sample reconstruction well before the stream ends.
STREAM_KWARGS = {"seed": 3, "n_test": 900, "drift_at": 300}


def make_streams():
    return DATASET_FACTORIES["blobs"](**STREAM_KWARGS)


def make_proposed(train):
    return build_proposed(
        train.X, train.y, window_size=30, reconstruction_samples=100, seed=1
    )


@pytest.fixture
def ring():
    """Enable the default hub with a ring sink; restore no-op afterwards."""
    sink = RingBufferSink()
    configure(enabled=True, sinks=[sink], reset=True)
    yield sink
    configure(enabled=False, sinks=[], reset=True)


def indices(events, name):
    return [e.fields["index"] for e in events if e.name == name]


class TestProposedEventStream:
    def test_drift_events_match_detections_exactly(self, ring, tmp_path):
        """Acceptance: JSONL + ring event indices == pipeline.detections
        and the StepRecord reconstruction phases."""
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(path)
        get_telemetry().add_sink(sink)
        train, test = make_streams()
        pipe = make_proposed(train)
        records = pipe.run(test)
        sink.close()

        events = ring.events()
        assert pipe.detections == [456]  # regression pin for this config
        assert indices(events, "drift_detected") == pipe.detections
        # reconstruction edges derived from the records themselves
        started = [
            r.index
            for prev, r in zip([None, *records], records)
            if r.reconstructing and not (prev and prev.reconstructing)
        ]
        finished = [r.index for r in records if r.phase == "finish"]
        assert indices(events, "reconstruction_started") == started
        assert indices(events, "reconstruction_finished") == finished

        # the JSONL trace is the same event stream, line for line
        lines = [json.loads(ln) for ln in path.read_text().splitlines()]
        assert len(lines) == len(events)
        for line, event in zip(lines, events):
            assert line["event"] == event.name
            assert line["seq"] == event.seq
        jsonl_drifts = [
            ln["index"] for ln in lines if ln["event"] == "drift_detected"
        ]
        assert jsonl_drifts == pipe.detections

    def test_chunked_and_per_sample_paths_emit_same_indices(self, ring):
        train, test = make_streams()
        chunked = make_proposed(train)
        chunked.run(test)
        by_chunk = {
            name: indices(ring.events(), name)
            for name in ("drift_detected", "reconstruction_started",
                         "reconstruction_finished")
        }
        ring.clear()
        configure(reset=True)
        reference = make_proposed(train)
        reference.run(test, chunk_size=1)
        for name, idx in by_chunk.items():
            assert indices(ring.events(), name) == idx

    def test_sample_counter_totals_stream_length(self, ring):
        train, test = make_streams()
        pipe = make_proposed(train)
        pipe.run(test)
        samples = get_telemetry().registry.get("pipeline.samples")
        assert samples.total == len(test)

    def test_run_and_chunk_spans_recorded(self, ring):
        train, test = make_streams()
        make_proposed(train).run(test)
        reg = get_telemetry().registry
        assert reg.get("span.pipeline.run.seconds").count() == 1
        assert reg.get("span.pipeline.chunk.seconds").count() >= 1


class TestGoldenEquivalence:
    def test_records_identical_with_and_without_telemetry(self, ring):
        train, test = make_streams()
        instrumented = make_proposed(train).run(test)
        configure(enabled=False, reset=True)
        plain = make_proposed(train).run(test)
        assert instrumented == plain


class TestDetectorAndModelMetrics:
    def test_counters_consistent_with_records(self, ring):
        train, test = make_streams()
        pipe = make_proposed(train)
        records = pipe.run(test, chunk_size=1)  # one predict per sample
        reg = get_telemetry().registry

        assert reg.get("detector.drifts").total == len(pipe.detections)
        opened = reg.get("detector.windows_opened").total
        closed = reg.get("detector.windows_closed").total
        assert closed <= opened <= closed + 1  # at most one window open at EOS
        assert reg.get("detector.windows_closed").value(
            drift=True
        ) == len(pipe.detections)
        assert reg.get("detector.distance") is not None

        n_recon = sum(r.reconstructing for r in records)
        n_finish = sum(r.phase == "finish" for r in records)
        assert reg.get("reconstructor.samples").total == n_recon
        assert reg.get("reconstructor.reconstructions").total == n_finish
        # every reconstruction sample except the final one trains the model
        assert reg.get("oselm.train").total == n_recon - n_finish
        assert reg.get("oselm.predict").total == len(test)

    def test_window_events_carry_scores(self, ring):
        train, test = make_streams()
        make_proposed(train).run(test)
        opened = ring.events("window_opened")
        closed = ring.events("window_closed")
        assert opened and closed
        assert all("score" in e.fields for e in opened)
        assert all("distance" in e.fields and "drift" in e.fields for e in closed)
        assert sum(e.fields["drift"] for e in closed) == 1


class TestBatchPipelineEvents:
    def test_quanttree_drift_and_refit_events(self, ring):
        train, test = make_streams()
        pipe = build_quanttree_pipeline(
            train.X, train.y, batch_size=100, n_bins=8,
            reconstruction_samples=100, seed=1,
        )
        records = pipe.run(test)
        events = ring.events()
        assert pipe.detections  # this config does detect
        assert indices(events, "drift_detected") == pipe.detections
        assert indices(events, "reconstruction_finished") == [
            r.index for r in records if r.phase == "finish"
        ]
        (refit,) = [e for e in events if e.name == "reference_refitted"]
        assert refit.fields["pipeline"] == pipe.name


class TestParallelRunnerTelemetry:
    CELLS_KWARGS = {"seed": 3, "n_test": 300, "drift_at": 120}

    def cells(self):
        return make_grid(
            {"Proposed": ("proposed", {"window_size": 30}),
             "Baseline": ("baseline", {})},
            {"blobs": ("blobs", dict(self.CELLS_KWARGS))},
            seeds=[1],
        )

    def test_cache_counters_match_disk_and_flags(self, ring, tmp_path):
        """Acceptance: re-runs report cache-hit counters consistent with
        the on-disk cache."""
        runner = ParallelRunner(cache_dir=tmp_path, max_workers=1)
        reg = get_telemetry().registry

        first = runner.run(self.cells())
        assert all(not r.from_cache for r in first)
        assert reg.get("parallel.cache_misses").total == len(first)
        assert reg.get("parallel.cache_hits") is None  # never incremented
        assert reg.get("parallel.cells_run").total == len(first)
        on_disk = list(tmp_path.glob("*.json"))
        assert len(on_disk) == len(first)

        configure(reset=True)
        second = runner.run(self.cells())
        assert all(r.from_cache for r in second)
        assert reg.get("parallel.cache_hits").total == len(second)
        assert reg.get("parallel.cache_misses") is None
        assert reg.get("parallel.cells_run") is None  # nothing recomputed
        hit_names = {
            e.fields["name"] for e in ring.events("cell_cache_hit")
        }
        assert hit_names == {r.name for r in second}

    def test_cell_lifecycle_events(self, ring):
        results = ParallelRunner(max_workers=1).run(self.cells())
        started = ring.events("cell_started")
        finished = ring.events("cell_finished")
        assert {e.fields["name"] for e in started} == {r.name for r in results}
        assert {e.fields["name"] for e in finished} == {r.name for r in results}
        assert all(e.fields["wall_seconds"] >= 0 for e in finished)

    def test_no_cache_dir_counts_no_misses(self, ring):
        ParallelRunner(max_workers=1).run(self.cells())
        reg = get_telemetry().registry
        assert reg.get("parallel.cache_misses") is None
        assert reg.get("parallel.cache_hits") is None


class _NoReferenceLoop(Interceptor):
    """Keeps ``chunk_size=1`` on the engine's chunked loop, whose
    after-chunk observers emit the ``drift_audit`` events that the
    per-sample reference loop skips."""

    def allows_reference_loop(self, ctx) -> bool:
        return False


#: the instruments whose totals must not depend on chunking
PARITY_COUNTERS = (
    "pipeline.samples",
    "oselm.predict",
    "oselm.train",
    "detector.windows_opened",
    "detector.windows_closed",
    "reconstructor.samples",
)
PARITY_EVENTS = (
    "window_opened",
    "window_closed",
    "drift_detected",
    "reconstruction_started",
    "reconstruction_finished",
    "reference_refitted",
    "drift_audit",
)

PARITY_MAKERS = {
    "proposed-w30": make_proposed,
    "proposed-w1": lambda train: build_proposed(
        train.X, train.y, window_size=1, error_z=1.0,
        reconstruction_samples=100, seed=1,
    ),
    "quanttree": lambda train: build_quanttree_pipeline(
        train.X, train.y, batch_size=100, n_bins=8,
        reconstruction_samples=100, seed=1,
    ),
}


def _instrumented_run(maker, chunk_size: int):
    """Records, counter samples, filtered events and the final drift gauge."""
    sink = RingBufferSink(capacity=100_000)
    configure(enabled=True, sinks=[sink], reset=True)
    train, test = make_streams()
    pipe = maker(train)
    stack = default_stack(pipe, chunk_size) + [_NoReferenceLoop()]
    records = StreamEngine(pipe, test, stack).run()
    reg = get_telemetry().registry
    counters = {
        name: reg.get(name).samples() for name in PARITY_COUNTERS if reg.get(name)
    }
    events = [
        (e.name, {k: v for k, v in e.fields.items() if k != "recon_seconds"})
        for e in sink
        if e.name in PARITY_EVENTS
    ]
    gauge = reg.get("detector.distance")
    return records, counters, events, None if gauge is None else gauge.value()


class TestChunkedTelemetryParity:
    """Chunking changes how much work one call does, never what the
    instruments report: counts, event sequence and the last drift rate
    equal those of one-sample chunks."""

    @pytest.mark.parametrize("chunk_size", [7, 256])
    @pytest.mark.parametrize("method", sorted(PARITY_MAKERS))
    def test_chunked_matches_one_sample_chunks(self, method, chunk_size):
        try:
            reference = _instrumented_run(PARITY_MAKERS[method], 1)
            chunked = _instrumented_run(PARITY_MAKERS[method], chunk_size)
        finally:
            configure(enabled=False, sinks=[], reset=True)
        records, counters, events, gauge = reference
        assert chunked[0] == records
        assert chunked[1] == counters
        assert chunked[2] == events
        assert chunked[3] == gauge
        # the comparison covers the interesting paths, not just predict
        names = {name for name, _ in events}
        assert {"drift_detected", "reconstruction_finished", "drift_audit"} <= names
        assert counters["oselm.predict"][0]["value"] == len(records)
        if method.startswith("proposed"):
            assert "window_closed" in names and gauge is not None
