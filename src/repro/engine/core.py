"""The minimal streaming driver: clamp → consume → observe, per chunk.

:class:`StreamEngine` owns nothing but the loop; every cross-cutting
concern (chunk sizing, guard routing, telemetry spans, checkpointing)
lives in an ordered :class:`~repro.engine.interceptors.Interceptor`
stack. ``StreamPipeline.run``/``resume`` assemble the default stack via
:func:`run_stream` / :func:`resume_stream`, so the public pipeline API
is unchanged while the run loop itself is ~40 lines.

Byte-identity contract: for every pipeline × dataset × option combo the
records this engine produces are identical to the pre-engine monolithic
loop — the golden-equivalence, checkpoint-resume, and guard-chaos suites
pin this, including the per-sample *reference loop* (taken only when
every interceptor allows it) which emits no chunk spans and does no
slicing, exactly like the historical ``chunk_size<=1`` bypass.
"""

from __future__ import annotations

from contextlib import ExitStack
from pathlib import Path
from typing import List, Optional, Sequence, Union

from ..core.records import RecordBlock
from ..utils.exceptions import CheckpointCorruptError, ConfigurationError
from ..utils.validation import validate_checkpoint_config
from .checkpoint import CheckpointInterceptor, stream_id
from .context import RunContext
from .interceptors import (
    ChunkScheduler,
    GuardInterceptor,
    Interceptor,
    TelemetryInterceptor,
)

__all__ = [
    "StreamEngine",
    "default_stack",
    "run_stream",
    "resume_stream",
    "prepare_stack",
    "drive_chunks",
]


def prepare_stack(stack: Sequence[Interceptor], ctx: RunContext):
    """Build the per-chunk machinery for ``stack``: the wrapped consume
    chain plus the clamper/observer sub-lists (interceptors that override
    the respective hook). Done once per run — or once per session — so
    the hot loop pays no ``isinstance``/lookup cost per chunk."""
    consume = ctx.pipeline._process_chunk
    for ic in reversed(stack):
        consume = ic.wrap_consume(ctx, consume)
    base_clamp = Interceptor.clamp
    clampers = [ic for ic in stack if type(ic).clamp is not base_clamp]
    base_after = Interceptor.after_chunk
    observers = [ic for ic in stack if type(ic).after_chunk is not base_after]
    return consume, clampers, observers


def drive_chunks(
    ctx: RunContext,
    consume,
    clampers: List[Interceptor],
    observers: List[Interceptor],
    X,
    y,
    *,
    base: int,
    stop: int,
) -> List[RecordBlock]:
    """Advance ``ctx.position`` to ``stop`` through the prepared chain.

    ``X``/``y`` hold the samples for stream-global indices
    ``[base, base + len(X))`` — a whole stream for :class:`StreamEngine`
    (``base=0``) or one externally-arriving chunk for a
    :class:`~repro.engine.session.StreamSession`. Returns the consumed
    chunks' blocks.
    """
    consumed = []
    while ctx.position < stop:
        i = ctx.position
        take = stop - i
        for ic in clampers:
            take = ic.clamp(ctx, take)
        lo = i - base
        block = consume(X[lo : lo + take], y[lo : lo + take])
        ctx.store(block)
        consumed.append(block)
        for ic in observers:
            ic.after_chunk(ctx, block)
    return consumed


class StreamEngine:
    """Drive ``pipeline`` over ``stream`` through an interceptor stack."""

    def __init__(
        self,
        pipeline,
        stream,
        stack: Sequence[Interceptor],
        *,
        start: int = 0,
        blocks: Optional[List[RecordBlock]] = None,
    ) -> None:
        self.stack: List[Interceptor] = list(stack)
        self.ctx = RunContext.for_run(
            pipeline, stream, start=start, blocks=blocks
        )

    def run(self) -> list:
        """Consume the stream; returns the full record list."""
        ctx = self.ctx
        with ExitStack() as scopes:
            for ic in self.stack:
                scope = ic.run_scope(ctx)
                if scope is not None:
                    scopes.enter_context(scope)
            return self._drive(ctx)

    def _drive(self, ctx: RunContext) -> list:
        stack = self.stack
        for ic in stack:
            ic.on_start(ctx)
        try:
            if ctx.position == 0 and all(
                ic.allows_reference_loop(ctx) for ic in stack
            ):
                # Reference loop: per-sample, no slicing, no chunk spans.
                pipeline = ctx.pipeline
                recs = [pipeline.process_one(x, y) for x, y in ctx.stream]
                ctx.store(RecordBlock.from_records(recs))
            else:
                consume, clampers, observers = prepare_stack(stack, ctx)
                drive_chunks(
                    ctx, consume, clampers, observers,
                    ctx.X, ctx.y, base=0, stop=ctx.n,
                )
        except BaseException:
            for ic in stack:
                ic.on_abort(ctx)
            raise
        for ic in stack:
            ic.on_complete(ctx)
        return ctx.records()


def default_stack(
    pipeline,
    chunk_size: int,
    *,
    checkpoint_every: Optional[int] = None,
    checkpoint_path: Optional[Union[str, Path]] = None,
    checkpoint: Optional[CheckpointInterceptor] = None,
) -> List[Interceptor]:
    """The stack ``StreamPipeline.run`` uses: telemetry → guard → scheduler
    (→ checkpoint). Telemetry first so its chunk span wraps the guard
    dispatch, exactly like the historical loop."""
    stack: List[Interceptor] = [
        TelemetryInterceptor(pipeline.telemetry),
        GuardInterceptor(),
        ChunkScheduler(chunk_size),
    ]
    if checkpoint is not None:
        stack.append(checkpoint)
    elif checkpoint_path is not None:
        stack.append(CheckpointInterceptor(checkpoint_path, checkpoint_every))
    return stack


def run_stream(
    pipeline,
    stream,
    *,
    chunk_size: Optional[int] = None,
    checkpoint_every: Optional[int] = None,
    checkpoint_path: Optional[Union[str, Path]] = None,
) -> list:
    """Run ``pipeline`` over ``stream`` with the default interceptor stack.

    This is what :meth:`StreamPipeline.run` delegates to; see its
    docstring for the chunking and checkpointing semantics.
    """
    every, path = validate_checkpoint_config(checkpoint_every, checkpoint_path)
    chunk = (
        pipeline.default_chunk_size if chunk_size is None else int(chunk_size)
    )
    stack = default_stack(
        pipeline, chunk, checkpoint_every=every, checkpoint_path=path
    )
    return StreamEngine(pipeline, stream, stack).run()


def resume_stream(
    pipeline,
    stream,
    checkpoint_path: Union[str, Path],
    *,
    chunk_size: Optional[int] = None,
    checkpoint_every: Optional[int] = None,
) -> list:
    """Continue an interrupted checkpointed run from its files.

    This is what :meth:`StreamPipeline.resume` delegates to; see its
    docstring for the trusted-prefix and error semantics.
    """
    from ..resilience.checkpoint import load_checkpoint
    from ..resilience.reclog import read_record_log, record_log_path

    path = Path(checkpoint_path)
    ckpt = load_checkpoint(path, expected_kind="pipeline-run")
    state = ckpt.state
    if state["pipeline_class"] != type(pipeline).__name__:
        raise ConfigurationError(
            f"checkpoint is for pipeline {state['pipeline_class']!r}, "
            f"not {type(pipeline).__name__!r}."
        )
    expected = stream_id(stream)
    if state["stream"] != expected:
        raise ConfigurationError(
            f"checkpoint stream {state['stream']!r} does not match the "
            f"given stream {expected!r}."
        )
    epoch = int(state["epoch"])
    base_position = int(state["position"])
    blocks, trusted_bytes = read_record_log(record_log_path(path), max_epoch=epoch)
    position = sum(len(b) for b in blocks)
    if position < base_position:
        tel = pipeline.telemetry
        if tel.enabled:
            tel.registry.counter(
                "checkpoint.corrupt", "corrupt checkpoints rejected"
            ).inc()
        raise CheckpointCorruptError(
            f"record log for {path} is missing or damaged before the "
            f"checkpoint position ({position} of {base_position} "
            "records recovered)."
        )
    pipeline.set_state(state["pipeline"])
    # The trusted log may extend past the container's position by clean
    # intervals (only the sample counter advanced); fast-forward the
    # counter to match.
    pipeline._index = position
    pipeline.last_resumed_at = position
    every = (
        int(state["checkpoint_every"])
        if checkpoint_every is None
        else int(checkpoint_every)
    )
    chunk = (
        pipeline.default_chunk_size if chunk_size is None else int(chunk_size)
    )
    tel = pipeline.telemetry
    if tel.enabled:
        tel.registry.counter("pipeline.resumes", "checkpointed runs resumed").inc()
        tel.emit(
            "run_resumed",
            pipeline=pipeline.name,
            position=position,
            path=str(path),
        )
    stack = default_stack(
        pipeline,
        chunk,
        checkpoint=CheckpointInterceptor(
            path,
            every,
            start_epoch=epoch,
            state_written=True,
            log_trusted_bytes=trusted_bytes,
        ),
    )
    return StreamEngine(
        pipeline, stream, stack, start=position, blocks=blocks
    ).run()
