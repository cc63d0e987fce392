"""Module-level helpers for crash-recovery tests.

The builders here must be addressable as ``"module:callable"`` pipeline
paths in a :class:`repro.engine.ExperimentSpec` (worker processes
re-import them by name), so they live in an importable module rather
than inside a test function.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

from repro.core import build_proposed
from repro.resilience import crash_at


def crashing_builder(X, y, *, seed=0, crash_marker=None, crash_step=40, **kwargs):
    """Build a proposed pipeline armed to crash once at ``crash_step``.

    The first call (no marker file yet) arms the crash and drops the
    marker; every later call — i.e. the retry after the injected death —
    builds a normal pipeline. This makes a ParallelRunner cell die
    exactly once, deterministically.
    """
    pipe = build_proposed(X, y, seed=seed, **kwargs)
    if crash_marker is not None:
        marker = Path(crash_marker)
        if not marker.exists():
            marker.write_text("armed")
            crash_at(pipe, int(crash_step))  # armed for life; never disarmed
    return pipe


def tuple_kwarg_builder(X, y, *, seed=0, widths=(8,), **kwargs):
    """Builder with a tuple-valued kwarg (cache round-trip regression).

    ``widths`` only has to *exist*: a tuple in ``pipeline_kwargs`` turns
    into a JSON list inside the cache file, and the loader must not read
    that back as a spec mismatch.
    """
    assert isinstance(widths, tuple)
    return build_proposed(X, y, seed=seed, **kwargs)


def hanging_builder(X, y, *, seed=0, hang_seconds=30.0, **kwargs):
    """Builder that sleeps past any sane cell timeout (a hung worker)."""
    time.sleep(float(hang_seconds))
    return build_proposed(X, y, seed=seed, **kwargs)


def exiting_builder(X, y, *, seed=0, exit_marker=None, **kwargs):
    """Builder whose process ``os._exit``s once, then builds normally.

    The first call (no marker file yet) drops the marker and kills its
    own process without cleanup — a worker that dies mid-cell. Every
    later call, in whichever process, builds a normal proposed pipeline.
    """
    if exit_marker is not None:
        marker = Path(exit_marker)
        if not marker.exists():
            marker.write_text("exited")
            os._exit(3)
    return build_proposed(X, y, seed=seed, **kwargs)
