"""Self-time and coverage arithmetic of the span tracer."""

from __future__ import annotations

import threading

import pytest

from layers import lane_waits
from spans import Span, Tracer, covered_seconds, self_by_layer, unaccounted_frac


def _run_interleaved(tracer: Tracer, script_a, script_b) -> None:
    """Run two per-thread scripts step by step, alternating A, B, A, B…

    Each script is a list of ``("begin", layer, name, t)`` or
    ``("end", t)`` steps, both of one length; alternating forces both
    threads to hold open spans at the same time, so a shared stack would
    mis-parent them.
    """
    assert len(script_a) == len(script_b)
    turn = threading.Condition()
    state = {"who": "a"}

    def worker(me, other, script):
        frames = []
        for step in script:
            with turn:
                assert turn.wait_for(lambda: state["who"] == me, timeout=5)
                if step[0] == "begin":
                    frames.append(tracer.begin(step[1], step[2], t=step[3]))
                else:
                    tracer.end(frames.pop(), t=step[1])
                state["who"] = other
                turn.notify_all()

    a = threading.Thread(target=worker, args=("a", "b", script_a))
    b = threading.Thread(target=worker, args=("b", "a", script_b))
    a.start()
    b.start()
    a.join(10)
    b.join(10)
    assert not a.is_alive() and not b.is_alive()


def test_self_time_of_nested_spans_across_two_threads():
    tracer = Tracer()
    script_a = [
        ("begin", "fleet.manager", "submit_many", 0.0),
        ("begin", "engine.session", "feed", 1.0),
        ("end", 4.0),
        ("begin", "engine.session", "feed", 5.0),
        ("begin", "oselm.ensemble", "score", 5.2),
        ("end", 5.5),
        ("end", 6.0),
        ("end", 10.0),
    ]
    script_b = [
        ("begin", "serving.ingest", "offer", 2.0),
        ("begin", "serving.admission", "admit", 3.0),
        ("end", 7.0),
        ("end", 8.0),
        ("begin", "serving.ingest", "offer", 8.5),
        ("end", 9.0),
        ("begin", "serving.ingest", "results", 9.5),
        ("end", 9.75),
    ]
    _run_interleaved(tracer, script_a, script_b)
    spans = {(s.layer, s.t0): s for s in tracer.spans}
    assert len(spans) == 8

    selfs = self_by_layer(tracer.spans)
    assert selfs["fleet.manager"] == pytest.approx(10.0 - 3.0 - 1.0)
    assert selfs["engine.session"] == pytest.approx(3.0 + (1.0 - 0.3))
    assert selfs["oselm.ensemble"] == pytest.approx(0.3)
    assert selfs["serving.ingest"] == pytest.approx((6.0 - 4.0) + 0.5 + 0.25)
    assert selfs["serving.admission"] == pytest.approx(4.0)
    # Self times partition each thread's top-level wall exactly once.
    assert sum(selfs.values()) == pytest.approx(10.0 + 6.0 + 0.5 + 0.25)

    outer_a = spans[("fleet.manager", 0.0)]
    offer = spans[("serving.ingest", 2.0)]
    assert outer_a.parent is None and offer.parent is None
    assert spans[("serving.admission", 3.0)].parent == offer.sid
    assert spans[("engine.session", 5.0)].parent == outer_a.sid
    assert outer_a.tid != offer.tid


def test_span_closed_out_of_order_is_refused():
    tracer = Tracer()
    outer = tracer.begin("a", "outer", t=0.0)
    tracer.begin("a", "inner", t=1.0)
    with pytest.raises(RuntimeError):
        tracer.end(outer, t=2.0)


def test_wrapped_call_that_raises_still_closes_its_span():
    tracer = Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap("core.pipeline", "boom", boom)()
    assert [s.tags for s in tracer.spans] == [{"error": True}]


def test_coverage_counts_overlaps_once_and_clips_to_the_interval():
    assert covered_seconds([(0, 4), (2, 6), (8, 9), (8.5, 12)], 1, 10) == pytest.approx(
        5 + 2
    )
    spans = [
        Span(1, None, "l", "n", 7, 0.0, 4.0, 4.0, None),
        Span(2, 1, "l", "n", 7, 1.0, 2.0, 1.0, None),   # child: no extra cover
        Span(3, None, "l", "n", 8, 4.0, 9.0, 5.0, None),  # another thread
        Span(4, None, "l", "n", 7, 6.0, 8.0, 2.0, None),
    ]
    assert unaccounted_frac(spans, 7, 0.0, 10.0) == pytest.approx(0.4)


def test_lane_wait_matches_the_kth_window_appearance_to_seq_k():
    def offer(t1, device, seq, status="accepted"):
        return Span(0, None, "serving.ingest", "offer", 1, t1 - 0.001, t1, 0.001,
                    {"device": device, "seq": seq, "status": status})

    def window(t0, devices):
        return Span(0, None, "fleet.manager", "submit_many", 2, t0, t0 + 1, 1,
                    {"devices": devices})

    spans = [
        offer(1.0, "d0", 0),
        offer(1.5, "d0", 2, "buffered"),   # arrived before seq 1: stashed
        offer(2.0, "d0", 1),
        offer(2.5, "d1", 0, "queue_full"),  # refused: never dispatched
        offer(3.0, "d1", 0),
        window(2.2, ["d0", "d0", "d0"]),
        window(4.0, ["d1"]),
    ]
    assert lane_waits(spans) == pytest.approx([1.2, 0.2, 0.7, 1.0])
