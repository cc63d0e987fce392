"""Checkpoint/record-log persistence as an engine interceptor.

This is the engine home of what used to be
``StreamPipeline._run_checkpointed``: deferred record-log appends,
dirty-tracking per the pipeline's ``checkpoint_volatility`` and
``n_mutations`` counter, the epoch/trust rule, clean-interval
batching, and the crash-unwind path.
The record streams it produces are byte-identical to the historical
in-pipeline implementation — the golden-resume suite pins that.

Persistence contract (unchanged):

* sub-chunks are clamped to the next checkpoint boundary so saves land
  at exact multiples of ``every`` samples;
* a *dirty* boundary (state may have changed: the pipeline's
  ``n_mutations`` counter moved, or its volatility is ``"always"``)
  appends the accumulated records with a bumped epoch, flushes the log,
  then submits the state container to the shared strict-FIFO writer —
  the log block reaches the OS before the container that references it
  (trust rule);
* a *clean* boundary writes nothing; accumulated clean records reach the
  log every ``checkpoint_sync_blocks`` intervals or on unwind;
* the unwind appends a clean tail (resumable — the on-disk state still
  covers it) but drops a dirty one, and never masks the original
  exception with a persistence error;
* the writer is drained before control returns or the exception
  propagates, so a killed run is immediately resumable and a finished
  one can unlink its checkpoint without racing the worker thread.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional, Union

from ..core.records import RecordBlock
from .context import RunContext
from .interceptors import Interceptor

__all__ = ["CheckpointInterceptor", "stream_id"]


def stream_id(stream) -> dict:
    """Identity of a stream as stored in (and checked against) checkpoints."""
    return {
        "fingerprint": stream.fingerprint(),
        "length": int(len(stream)),
        "name": stream.name,
        "n_features": int(stream.X.shape[1]),
    }


class CheckpointInterceptor(Interceptor):
    """Persist the run every ``every`` samples to ``path`` (+ ``.log`` sidecar).

    Fresh runs use the defaults; :func:`~repro.engine.core.resume_stream`
    passes ``start_epoch``/``state_written``/``log_trusted_bytes`` so the
    interceptor continues the existing files exactly where the trusted
    log prefix ends.
    """

    def __init__(
        self,
        path: Union[str, Path],
        every: int,
        *,
        start_epoch: int = 0,
        state_written: bool = False,
        log_trusted_bytes: Optional[int] = None,
    ) -> None:
        self.path = Path(path)
        self.every = int(every)
        self._epoch = int(start_epoch)
        self._state_written = bool(state_written)
        self._trusted_bytes = log_trusted_bytes

    def allows_reference_loop(self, ctx: RunContext) -> bool:
        return False  # boundaries need the clamped chunked loop

    def on_start(self, ctx: RunContext) -> None:
        from ..resilience.checkpoint import save_checkpoint
        from ..resilience.reclog import RecordLogWriter, record_log_path
        from ..resilience.writer import shared_writer

        pipeline = ctx.pipeline
        self._save_checkpoint = save_checkpoint
        self._volatility = pipeline.checkpoint_volatility
        self._durable = pipeline.checkpoint_durable
        self._sync_blocks = pipeline.checkpoint_sync_blocks
        self._dirty = self._volatility == "always"
        self._clean_mark = pipeline.n_mutations
        self._unsynced = 0
        self._last_saved = ctx.position
        self._last_appended = ctx.position
        #: the blocks observed since the last append: the records not
        #: yet in the log
        self._pending: List[RecordBlock] = []
        self._stream_id = stream_id(ctx.stream)
        if not self._state_written:
            # A fresh run starts a fresh log, so a container an earlier
            # run left at the path (``--checkpoint-dir`` re-run after an
            # interrupt, ``evaluate_method(resume=False)``) no longer
            # describes it. Left in place, a kill after this run's first
            # log block but before its first container lands would let
            # resume pair the stale state with the new records.
            self.path.unlink(missing_ok=True)
        self._log = RecordLogWriter(
            record_log_path(self.path), trusted_bytes=self._trusted_bytes
        )
        self._writer = shared_writer()

    def clamp(self, ctx: RunContext, take: int) -> int:
        # Cap at the next boundary so saves land at exact multiples of
        # ``every`` (a state change may still end the chunk earlier).
        return min(take, max(1, self._last_saved + self.every - ctx.position))

    def _append(self, epoch: int) -> None:
        """Buffer the records since the last append as one log block."""
        self._log.append(self._pending, start_index=self._last_appended, epoch=epoch)
        self._last_appended += sum(len(b) for b in self._pending)
        self._pending = []

    def after_chunk(self, ctx: RunContext, block: RecordBlock) -> None:
        self._pending.append(block)
        i = ctx.position
        if not self._dirty and ctx.pipeline.n_mutations != self._clean_mark:
            # The pipeline counts every step that may change its state,
            # wherever in the chunk it fell.
            self._dirty = True
        if i - self._last_saved >= self.every and i < ctx.n:
            if self._dirty or not self._state_written:
                # A dirty span's block carries the *new* epoch and lands
                # before its container: a crash in between leaves a
                # higher-epoch tail that resume correctly distrusts.
                self._epoch += 1
                self._append(self._epoch)
                # The block must reach the OS before the sync + container
                # task can run (sync only fsyncs the fd).
                self._log.flush()
                self._submit_state(ctx, i, self._epoch)
                self._state_written = True
                self._dirty = self._volatility == "always"
                self._clean_mark = ctx.pipeline.n_mutations
                self._unsynced = 0
            else:
                # Clean interval: nothing to persist — the log stays
                # deferred so the pure-predict hot path writes nothing.
                # Every ``checkpoint_sync_blocks`` intervals the
                # accumulated span is appended and pushed to the OS,
                # bounding how much progress a SIGKILL (which skips the
                # unwind hook) can cost; a plain exception loses nothing
                # either way.
                self._unsynced += 1
                if self._unsynced >= self._sync_blocks:
                    self._append(self._epoch)
                    self._log.flush()
                    if self._durable:
                        self._writer.submit(self._log.sync, scope=self)
                    self._unsynced = 0
            self._last_saved = i

    def _submit_state(self, ctx: RunContext, boundary: int, snap_epoch: int) -> None:
        # get_state() is an isolated snapshot (the resilience state tests
        # assert this), so the worker thread can serialise it while the
        # loop keeps mutating the live pipeline.
        pipeline = ctx.pipeline
        snapshot = pipeline.get_state()
        state = {
            "pipeline_class": type(pipeline).__name__,
            "pipeline": snapshot,
            "position": boundary,
            "checkpoint_every": int(self.every),
            "epoch": snap_epoch,
            "stream": self._stream_id,
        }
        meta = {"pipeline": pipeline.name, "position": boundary}
        durable = self._durable
        log = self._log
        save_checkpoint = self._save_checkpoint
        path = self.path

        def task() -> None:
            if durable:
                # The boundary's log block must be durable before the
                # container that references it (trust rule).
                log.sync()
            save_checkpoint(path, state, kind="pipeline-run", meta=meta, durable=durable)

        self._writer.submit(task, scope=self)

    def on_abort(self, ctx: RunContext) -> None:
        # Crash unwind: if state has not changed since the last container
        # write, the accumulated clean records are still resumable —
        # append them so resume continues from the exact crash point
        # rather than the last boundary. (A dirty tail is useless to
        # resume — the on-disk state predates it — so it is dropped.)
        # Never let persistence errors mask the original exception.
        if not self._dirty and self._pending:
            try:
                self._append(self._epoch)
                self._log.flush()
            except Exception:
                pass
        try:
            self._writer.flush(scope=self)
        except Exception:
            pass
        self._log.close()

    def on_complete(self, ctx: RunContext) -> None:
        try:
            self._writer.flush(scope=self)
        finally:
            self._log.close()
