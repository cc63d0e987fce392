"""The interceptor protocol and the three stateless-ish stack members.

An :class:`Interceptor` owns exactly one cross-cutting concern of a
streaming run. The engine drives the stack through a fixed set of hooks:

``run_scope``
    A context manager entered for the whole run (telemetry's
    ``pipeline.run`` span). Scopes are entered in stack order and exited
    in reverse, around *everything* else — including validation of
    engine options and the crash-unwind path.
``on_start`` / ``on_complete`` / ``on_abort``
    Lifecycle edges. ``on_start`` runs before the first chunk (resource
    acquisition); ``on_complete`` after the last chunk of a successful
    run; ``on_abort`` when any exception — including ``KeyboardInterrupt``
    and injected crashes — unwinds the loop, before the exception
    propagates.
``clamp``
    Caps the next sub-chunk length. Each interceptor sees the previous
    one's result; the engine starts from "everything that is left".
``wrap_consume``
    Builds the per-chunk consume chain around the pipeline's
    ``_process_chunk``. Wrapping happens in reverse stack order, so the
    first interceptor in the stack is the outermost layer at call time.
``allows_reference_loop``
    The chunked loop is bypassed entirely — one ``process_one`` call per
    sample, no chunk spans, no slicing — iff *every* interceptor allows
    it. This keeps the reference path byte- and telemetry-identical to
    the historical per-sample loop.

The checkpoint interceptor (the only one with heavy state) lives in
:mod:`repro.engine.checkpoint`.
"""

from __future__ import annotations

import time
from typing import Callable, ContextManager, Optional

import numpy as np

from ..core.records import RecordBlock
from .context import RunContext

__all__ = [
    "Interceptor",
    "ChunkScheduler",
    "GuardInterceptor",
    "TelemetryInterceptor",
]

#: Signature of one link of the per-chunk consume chain: ``(Xc, yc)``,
#: optionally followed by the rows' precomputed ``(labels, scores)``
#: (``StreamPipeline._process_chunk``'s ``scored``), which a link passes
#: on unchanged. A link returns the consumed prefix's
#: :class:`~repro.core.records.RecordBlock`.
Consume = Callable[..., RecordBlock]


class Interceptor:
    """Base class: every hook is a no-op; override what the concern needs."""

    def run_scope(self, ctx: RunContext) -> Optional[ContextManager]:
        """Context manager wrapping the whole run, or ``None``."""
        return None

    def on_start(self, ctx: RunContext) -> None:
        """Acquire per-run resources before the first chunk."""

    def allows_reference_loop(self, ctx: RunContext) -> bool:
        """``False`` forces the chunked loop even for ``chunk_size<=1``."""
        return True

    def clamp(self, ctx: RunContext, take: int) -> int:
        """Cap the next sub-chunk length (``take`` >= 1 on entry)."""
        return take

    def wrap_consume(self, ctx: RunContext, consume: Consume) -> Consume:
        """Wrap the downstream consume chain; default passes it through."""
        return consume

    def after_chunk(self, ctx: RunContext, block: RecordBlock) -> None:
        """Observe the chunk just consumed (``ctx.position`` already advanced)."""

    def on_abort(self, ctx: RunContext) -> None:
        """Release resources when an exception unwinds the loop."""

    def on_complete(self, ctx: RunContext) -> None:
        """Release resources after a successful run."""


class ChunkScheduler(Interceptor):
    """Owns the sub-chunk length: ``chunk_size`` capped to what is left.

    ``chunk_size <= 1`` requests the per-sample reference loop; the
    engine honours that only when every other interceptor also allows it
    (a guard or a checkpoint still needs the chunked loop, which then
    degrades to one-sample chunks).
    """

    def __init__(self, chunk_size: int) -> None:
        self.chunk_size = int(chunk_size)
        self.step = max(1, self.chunk_size)

    def allows_reference_loop(self, ctx: RunContext) -> bool:
        return self.chunk_size <= 1

    def clamp(self, ctx: RunContext, take: int) -> int:
        return min(take, self.step)


class GuardInterceptor(Interceptor):
    """Routes every chunk through the pipeline's attached ``RuntimeGuard``.

    The guard is re-read per chunk (one attribute check — the historical
    ``_consume_chunk`` contract), so unguarded runs pay almost nothing
    and the guard's own fast path still delegates to the pipeline's
    vectorized ``_process_chunk``.
    """

    def allows_reference_loop(self, ctx: RunContext) -> bool:
        return ctx.pipeline.guard is None

    def wrap_consume(self, ctx: RunContext, consume: Consume) -> Consume:
        pipeline = ctx.pipeline

        def dispatch(Xc: np.ndarray, yc: np.ndarray, *scored) -> RecordBlock:
            guard = pipeline.guard
            if guard is None:
                return consume(Xc, yc, *scored)
            return guard.process_chunk(Xc, yc)

        return dispatch


#: Recovery-span histogram edges (stream samples between drift and recon).
AUDIT_SPAN_BUCKETS = (1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000)


class TelemetryInterceptor(Interceptor):
    """Emits the run/chunk spans plus the ``drift_audit`` provenance stream.

    Per-sample counters and drift events stay with
    ``StreamPipeline._record``, which runs regardless of how the engine is
    stacked. On top of those, this interceptor watches the records flowing
    past ``after_chunk`` and stitches each drift detection to the
    reconstruction that answers it, emitting one structured ``drift_audit``
    event per drift: device id (when hosted by a fleet), stream index,
    window distance vs. the detector threshold, guard ladder level,
    wall-clock reconstruction latency, and the recovery span in samples.
    A drift superseded by a newer one, or still unresolved when the run
    ends, is audited with ``recovered=False``.

    When the hub is disabled every hook is a guarded no-op, so the
    overhead budget (<5%) holds. The per-sample reference loop bypasses
    ``after_chunk`` observers entirely, so audit events exist only on the
    chunked path — matching the historical telemetry of that loop.
    """

    def __init__(self, telemetry, *, device: Optional[str] = None) -> None:
        self.telemetry = telemetry
        self.device = device
        self._open: Optional[dict] = None

    def run_scope(self, ctx: RunContext) -> ContextManager:
        return self.telemetry.span(
            "pipeline.run", pipeline=ctx.pipeline.name, samples=ctx.n
        )

    def wrap_consume(self, ctx: RunContext, consume: Consume) -> Consume:
        tel = self.telemetry
        name = ctx.pipeline.name

        def traced(Xc: np.ndarray, yc: np.ndarray, *scored) -> RecordBlock:
            with tel.span("pipeline.chunk", pipeline=name, start=ctx.position):
                return consume(Xc, yc, *scored)

        return traced

    # -- drift provenance ------------------------------------------------------

    def after_chunk(self, ctx: RunContext, block: RecordBlock) -> None:
        if not self.telemetry.enabled:
            return
        for rec in block.records():
            if rec.drift_detected:
                if self._open is not None:
                    # A fresh drift before the last one recovered: the
                    # old reconstruction is moot — audit it as lost.
                    self._close(ctx, self._open, outcome="superseded")
                detector = getattr(ctx.pipeline, "detector", None)
                self._open = {
                    "index": int(rec.index),
                    "distance": float(rec.anomaly_score),
                    "threshold": getattr(detector, "theta_drift", None),
                    "t0": time.perf_counter(),
                }
                continue
            # Recovery = the first record after the drift that is no
            # longer part of a reconstruction. Pipelines with an explicit
            # terminal phase mark it "finish" (still flagged as
            # reconstructing); the others simply resume normal records.
            if self._open is not None and (
                rec.phase == "finish" or not rec.reconstructing
            ):
                opened, self._open = self._open, None
                self._close(ctx, opened, outcome="recovered", finish=int(rec.index))

    def _close(
        self,
        ctx: RunContext,
        opened: dict,
        *,
        outcome: str,
        finish: Optional[int] = None,
    ) -> None:
        tel = self.telemetry
        recovered = outcome == "recovered"
        seconds = time.perf_counter() - opened["t0"]
        span = None if finish is None else finish - opened["index"]
        guard = getattr(ctx.pipeline, "guard", None)
        fields = dict(
            device=self.device,
            pipeline=ctx.pipeline.name,
            index=opened["index"],
            distance=opened["distance"],
            threshold=opened["threshold"],
            ladder_level=(guard.level.name if guard is not None else None),
            recovered=recovered,
            outcome=outcome,
            recovery_index=finish,
            recovery_samples=span,
            recon_seconds=seconds if recovered else None,
        )
        tel.emit("drift_audit", **fields)
        if recovered:
            tel.histogram(
                "audit.recovery.samples",
                "samples between drift detection and reconstruction",
                buckets=AUDIT_SPAN_BUCKETS,
            ).observe(span)
            tel.histogram(
                "audit.recon.seconds",
                "wall-clock latency from drift to reconstructed model",
            ).observe(seconds)
        else:
            tel.counter(
                "audit.unrecovered", "drifts never answered by a reconstruction",
                labels=("outcome",),
            ).inc(outcome=outcome)

    def _flush_open(self, ctx: RunContext, outcome: str) -> None:
        if self._open is not None and self.telemetry.enabled:
            opened, self._open = self._open, None
            self._close(ctx, opened, outcome=outcome)

    def on_complete(self, ctx: RunContext) -> None:
        self._flush_open(ctx, "unrecovered_at_end")

    def on_abort(self, ctx: RunContext) -> None:
        self._flush_open(ctx, "aborted")
