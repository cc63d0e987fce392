"""Long-lived incremental sessions: the engine loop, chunk by chunk.

:class:`~repro.engine.core.StreamEngine` consumes a whole
:class:`~repro.datasets.stream.DataStream` in one call. A
:class:`StreamSession` keeps the same interceptor machinery **open
between chunks** so data can arrive on someone else's schedule — the
unit of multiplexing in :mod:`repro.fleet`, where one process drives
thousands of device sessions and each device's samples trickle in
interleaved with every other device's.

The interceptor contract is unchanged: ``run_scope``/``on_start`` fire
at :meth:`StreamSession.open`, every :meth:`feed` drives the clamp →
consume → observe loop over the freshly arrived samples, and
:meth:`close` / :meth:`abort` fire ``on_complete`` / ``on_abort`` and
exit the scopes. Because pipeline record streams are chunk-boundary
invariant (the chunked-equivalence suite pins this), *any* interleaving
and sizing of ``feed`` calls yields records byte-identical to one
``run()`` over the concatenated data — which is what makes fleet
multiplexing and LRU evict/restore safe.

A session does **not** own a stream (``ctx.stream`` is ``None``), so
stacks containing the :class:`~repro.engine.checkpoint.CheckpointInterceptor`
— which identifies runs by their stream — are not meaningful here;
persistence of sessions is the caller's concern (see
:class:`repro.fleet.FleetManager`, which checkpoints whole sessions on
eviction).
"""

from __future__ import annotations

from contextlib import ExitStack
from typing import List, Optional, Sequence

import numpy as np

from ..core.records import RecordBlock, records_of
from ..utils.exceptions import ConfigurationError
from .context import RunContext
from .core import drive_chunks, prepare_stack
from .interceptors import Interceptor

__all__ = ["StreamSession", "drive_group"]

_EMPTY_X = np.empty((0, 1), dtype=np.float64)
_EMPTY_Y = np.empty((0,), dtype=np.int64)


class StreamSession:
    """Drive one pipeline through an interceptor stack as chunks arrive.

    Parameters
    ----------
    pipeline:
        The :class:`~repro.core.pipeline.StreamPipeline` to drive. Its
        ``_index`` must already agree with ``start`` (it does for a
        freshly built pipeline at 0, and for a restored one whose
        ``set_state`` was fed a snapshot taken at ``start``).
    stack:
        Ordered interceptors (e.g. telemetry → guard → scheduler). The
        checkpoint interceptor is *not* supported — see the module
        docstring.
    start:
        Stream-global index of the first sample the session will see.
    records:
        Pre-existing records ``[0, start)`` for a resumed/restored
        session, as :class:`~repro.core.records.StepRecord` tuples.
    blocks:
        The same prefix as :class:`~repro.core.records.RecordBlock`
        columns (give one of ``records`` and ``blocks``).

    Lifecycle: ``open() → feed()* → close()`` (or ``abort()``). ``feed``
    returns the records for *its* samples; the session keeps them as
    blocks (:attr:`blocks`, short ones merged by
    :meth:`~repro.engine.context.RunContext.store`), and
    :attr:`records` builds the whole list. A consume-chain exception
    tears the session down (``on_abort`` + scope exit) before
    propagating.
    """

    def __init__(
        self,
        pipeline,
        stack: Sequence[Interceptor],
        *,
        start: int = 0,
        records: Optional[list] = None,
        blocks: Optional[List[RecordBlock]] = None,
    ) -> None:
        self.stack: List[Interceptor] = list(stack)
        if records:
            blocks = [RecordBlock.from_records(records)]
        self.ctx = RunContext(
            pipeline=pipeline,
            stream=None,
            X=_EMPTY_X,
            y=_EMPTY_Y,
            n=int(start),
            position=int(start),
            blocks=[] if blocks is None else list(blocks),
        )
        self._scopes: Optional[ExitStack] = None
        self._prepared = None
        self._finished = False

    # -- introspection ---------------------------------------------------------

    @property
    def pipeline(self):
        return self.ctx.pipeline

    @property
    def position(self) -> int:
        """Stream-global index of the next sample to consume."""
        return self.ctx.position

    @property
    def records(self) -> list:
        """All records this session (and any restored prefix) produced."""
        return self.ctx.records()

    @property
    def blocks(self) -> List[RecordBlock]:
        """The same records as blocks, in stream order."""
        return self.ctx.blocks

    @property
    def is_open(self) -> bool:
        return self._scopes is not None

    # -- lifecycle -------------------------------------------------------------

    def open(self) -> "StreamSession":
        """Enter the run scopes and fire ``on_start``; returns ``self``."""
        if self._scopes is not None:
            raise ConfigurationError("session is already open.")
        if self._finished:
            raise ConfigurationError("session is finished; build a new one.")
        scopes = ExitStack()
        try:
            for ic in self.stack:
                scope = ic.run_scope(self.ctx)
                if scope is not None:
                    scopes.enter_context(scope)
            for ic in self.stack:
                ic.on_start(self.ctx)
            self._prepared = prepare_stack(self.stack, self.ctx)
        except BaseException:
            scopes.close()
            raise
        self._scopes = scopes
        return self

    def feed(self, Xc: np.ndarray, yc: np.ndarray) -> list:
        """Consume one arriving chunk; returns the records it produced.

        ``Xc``/``yc`` are the samples at stream-global indices
        ``[position, position + len(Xc))``. The chunk is driven through
        the same clamp → consume → observe loop as a whole-stream run,
        so schedulers still split it and guards still screen it.
        """
        return records_of(self.feed_blocks(Xc, yc))

    def feed_blocks(self, Xc: np.ndarray, yc: np.ndarray) -> List[RecordBlock]:
        """:meth:`feed`, returning the chunk's record blocks."""
        Xc, yc = self._check_chunk(Xc, yc)
        if len(Xc) == 0:
            return []
        base, stop = self._begin_chunk(Xc, yc)
        consume, clampers, observers = self._prepared
        try:
            return drive_chunks(
                self.ctx, consume, clampers, observers, Xc, yc, base=base, stop=stop
            )
        except BaseException:
            self._teardown(ok=False)
            raise

    def _check_chunk(self, Xc, yc):
        if self._scopes is None:
            raise ConfigurationError(
                "session is not open (open() it, or it was already closed)."
            )
        Xc = np.asarray(Xc)
        yc = np.asarray(yc)
        if len(Xc) != len(yc):
            raise ConfigurationError(
                f"chunk has {len(Xc)} samples but {len(yc)} labels."
            )
        return Xc, yc

    def _begin_chunk(self, Xc, yc):
        """Point the context at a new chunk; returns ``(base, stop)``."""
        ctx = self.ctx
        base = ctx.position
        ctx.X, ctx.y = Xc, yc
        ctx.n = base + len(Xc)
        return base, ctx.n

    def close(self) -> list:
        """Fire ``on_complete``, exit the scopes; returns all records.

        Idempotent: closing a closed session just returns the records.
        """
        return records_of(self.close_blocks())

    def close_blocks(self) -> List[RecordBlock]:
        """:meth:`close`, returning the session's record blocks."""
        if self._scopes is not None:
            self._teardown(ok=True)
        return self.ctx.blocks

    def abort(self) -> None:
        """Fire ``on_abort`` and exit the scopes (no-op when closed)."""
        if self._scopes is not None:
            self._teardown(ok=False)

    def _teardown(self, *, ok: bool) -> None:
        scopes, self._scopes = self._scopes, None
        self._prepared = None
        self._finished = True
        try:
            for ic in self.stack:
                if ok:
                    ic.on_complete(self.ctx)
                else:
                    ic.on_abort(self.ctx)
        finally:
            scopes.close()


def drive_group(sessions: Sequence[StreamSession], chunks, step) -> List[list]:
    """Feed several open sessions their arriving chunks in one pass.

    ``chunks[k]`` lists session ``k``'s chunks ``(Xc, yc)`` in arrival
    order. The driver runs in rounds. Each round clamps the next slice
    of every session with samples left, exactly as
    :func:`~repro.engine.core.drive_chunks` would, and hands all of them
    to ``step`` at once as ``(k, consume, Xs, ys)`` tuples, where
    ``consume`` is session ``k``'s consume chain. ``step`` returns one
    record block per slice: a non-empty prefix of it, as the chain would
    have consumed. Blocks, position and ``after_chunk`` observers are
    then handled per session as ``drive_chunks`` does, and a session
    moves on to its next chunk once the current one is consumed.

    Returns, per session, one block list per chunk: what
    :meth:`feed_blocks` would have returned for it. A round that raises
    tears down every session in it before the exception propagates, as
    :meth:`feed` does for its one session.
    """
    queues = [
        [session._check_chunk(Xc, yc) for Xc, yc in session_chunks][::-1]
        for session, session_chunks in zip(sessions, chunks)
    ]
    out: List[list] = [[] for _ in sessions]
    current: list = [None] * len(sessions)

    def advance(k: int) -> bool:
        """Start session ``k``'s next non-empty chunk; False when done."""
        while queues[k]:
            Xc, yc = queues[k].pop()
            if len(Xc):
                current[k] = (Xc, yc, *sessions[k]._begin_chunk(Xc, yc), [])
                return True
            out[k].append([])
        return False

    active = [k for k in range(len(sessions)) if advance(k)]
    while active:
        slices = []
        for k in active:
            ctx = sessions[k].ctx
            Xc, yc, base, stop, _ = current[k]
            i = ctx.position
            take = stop - i
            for ic in sessions[k]._prepared[1]:
                take = ic.clamp(ctx, take)
            lo = i - base
            slices.append(
                (k, sessions[k]._prepared[0], Xc[lo : lo + take], yc[lo : lo + take])
            )
        try:
            results = step(slices)
            for (k, _, _, _), block in zip(slices, results):
                ctx = sessions[k].ctx
                ctx.store(block)
                current[k][4].append(block)
                for ic in sessions[k]._prepared[2]:
                    ic.after_chunk(ctx, block)
        except BaseException:
            for k in active:
                sessions[k]._teardown(ok=False)
            raise
        still = []
        for k in active:
            _, _, _, stop, consumed = current[k]
            if sessions[k].ctx.position < stop:
                still.append(k)
                continue
            out[k].append(consumed)
            if advance(k):
                still.append(k)
        active = still
    return out
