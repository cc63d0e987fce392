"""In-memory span tracer for the end-to-end benchmark.

A span is one timed call into a layer: its layer (a ``repro`` module
name without the ``repro.`` prefix), the call name, the thread it ran
on, start and end on the ``time.perf_counter`` clock, the span that was
open on the same thread when it started (its parent), and free-form
tags. Each thread keeps its own stack of open spans, so concurrent
threads never parent each other's spans.

A span's *self time* is its duration minus the durations of its direct
children, so summing self time over a layer counts every instant once
even when a layer calls back into itself (``FleetManager.submit_many``
calls ``FleetManager.submit``).

Spans stay in memory while the benchmark runs and are written as JSONL
by :meth:`Tracer.write_jsonl` when it ends.

This module imports nothing from ``repro``; :mod:`layers` installs the
wrappers that feed it.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple


class Span(NamedTuple):
    """One finished span (``t0``/``t1``/``self_s`` in seconds)."""

    sid: int
    parent: Optional[int]
    layer: str
    name: str
    tid: int
    t0: float
    t1: float
    self_s: float
    tags: Optional[dict]

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


class Tracer:
    """Collects spans from any number of threads.

    ``begin``/``end`` take an optional explicit timestamp so tests can
    build exact nested spans; wrappers leave it out and read the clock.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self.pid = os.getpid()
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, layer: str, name: str, t: Optional[float] = None) -> list:
        """Open a span on the calling thread; returns its frame."""
        stack = self._stack()
        parent = stack[-1][0] if stack else None
        # [sid, parent, layer, name, t0, children_seconds]
        frame = [next(self._ids), parent, layer, name, 0.0, 0.0]
        stack.append(frame)
        frame[4] = self.clock() if t is None else t
        return frame

    def end(
        self, frame: list, t: Optional[float] = None, tags: Optional[dict] = None
    ) -> Span:
        """Close ``frame`` (the innermost open span of this thread)."""
        t1 = self.clock() if t is None else t
        stack = self._stack()
        if not stack or stack[-1] is not frame:
            raise RuntimeError(f"span {frame[2]}.{frame[3]} closed out of order")
        stack.pop()
        duration = t1 - frame[4]
        if stack:
            stack[-1][5] += duration
        span = Span(
            frame[0], frame[1], frame[2], frame[3], threading.get_ident(),
            frame[4], t1, duration - frame[5], tags,
        )
        self.spans.append(span)
        return span

    def record(
        self, layer: str, name: str, t0: float, t1: float,
        tags: Optional[dict] = None,
    ) -> Span:
        """Add a finished span that has no children (driver-side timings)."""
        frame = self.begin(layer, name, t=t0)
        return self.end(frame, t=t1, tags=tags)

    def wrap(
        self,
        layer: str,
        name: str,
        fn: Callable,
        tag: Optional[Callable[[tuple, dict, object], dict]] = None,
    ) -> Callable:
        """``fn`` timed as a span; ``tag(args, kwargs, result)`` adds tags."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self.begin(layer, name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.end(frame, tags={"error": True})
                raise
            self.end(frame, tags=tag(args, kwargs, result) if tag else None)
            return result

        return traced

    def write_jsonl(self, path, *, extra: Optional[dict] = None) -> int:
        """Append every span as one JSON object per line; returns the count."""
        base = {"pid": self.pid, **(extra or {})}
        with open(path, "a", encoding="utf-8") as fh:
            for s in self.spans:
                row = {
                    **base,
                    "id": s.sid, "parent": s.parent, "layer": s.layer,
                    "name": s.name, "tid": s.tid, "t0": s.t0, "t1": s.t1,
                    "self": s.self_s,
                }
                if s.tags:
                    row["tags"] = s.tags
                fh.write(json.dumps(row, default=str) + "\n")
        return len(self.spans)


def within(spans: Iterable[Span], lo: float, hi: float) -> List[Span]:
    """Spans that started inside ``[lo, hi]``."""
    return [s for s in spans if lo <= s.t0 <= hi]


def self_by_layer(spans: Iterable[Span]) -> Dict[str, float]:
    """Total self seconds per layer."""
    out: Dict[str, float] = {}
    for s in spans:
        out[s.layer] = out.get(s.layer, 0.0) + s.self_s
    return out


def calls(spans: Iterable[Span], layer: str, name: str) -> List[Span]:
    """The spans of one wrapped call, in start order."""
    return sorted(
        (s for s in spans if s.layer == layer and s.name == name),
        key=lambda s: s.t0,
    )


def covered_seconds(
    intervals: Iterable[Tuple[float, float]], lo: float, hi: float
) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def unaccounted_frac(spans: Iterable[Span], tid: int, lo: float, hi: float) -> float:
    """Share of thread ``tid``'s wall in ``[lo, hi]`` inside no top-level span."""
    wall = hi - lo
    if wall <= 0:
        return 0.0
    top = [(s.t0, s.t1) for s in spans if s.tid == tid and s.parent is None]
    return 1.0 - covered_seconds(top, lo, hi) / wall
