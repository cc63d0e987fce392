"""Append-only record log — the incremental half of a run checkpoint.

A checkpointed ``StreamPipeline.run`` writes two files:

* ``<path>`` — the atomic state container (:mod:`.checkpoint`), holding
  the pipeline state, position, and the log *epoch* (see below). It is
  rewritten only when adaptive state actually changed; for a frozen
  baseline that is once per run.
* ``<path>.log`` — this file: ``LOG_MAGIC`` then a sequence of blocks,
  one per persisted span (one or more checkpoint intervals — clean
  intervals are deferred and batched), each holding the span's
  :class:`~repro.core.records.RecordBlock` columns in the shared record
  codec (:func:`~repro.core.records.encode_blocks`: column bytes, so
  ``float64`` scores are bit-exact, plus the phase vocabulary)::

      block = uint64-LE body length | sha256(body) | body
      body  = uint64 start position | uint32 epoch | record codec bytes

  The start position is the run position of the span's first record;
  the codec carries the records' own stream index, count and columns.

Appending a span costs O(span) — the state container never
re-serialises old records — which is what keeps every-N checkpointing
affordable on the streaming hot path.

**Trust rule.** Each state-container write bumps an epoch counter; a
block written in the same save as a state rewrite carries the *new*
epoch and is appended *before* the container. On resume, blocks are
trusted while they are checksum-valid, index-contiguous, and carry an
epoch ≤ the container's: a crash between block append and container
write leaves a higher-epoch tail that is silently discarded (the state
on disk predates the mutation that block spans), and a torn or
bit-flipped tail fails its checksum. Clean blocks appended *after* the
container write extend the resume position past the container's —
valid because an interval only skips the state rewrite when the
pipeline proved nothing but its sample counter changed.

Appends are buffered in user space (one large buffer, so an append is
a memcpy, not a syscall) and explicitly flushed to the OS before any
fsync or state-container task is queued, and on close. A crash that
unwinds the Python stack (fault injection, an exception) therefore
loses nothing — ``close`` runs and flushes; a hard ``SIGKILL``/power
cut may lose the buffered tail, in which case resume falls back to the
last surviving block — never past a state container, which is only
ever written after the log covering its position was flushed (and,
when the pipeline opts into ``checkpoint_durable``, fsynced).
"""

from __future__ import annotations

import os
import struct
from hashlib import sha256
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

from ..core.records import RecordBlock, decode_block, encode_blocks

__all__ = [
    "LOG_MAGIC",
    "RecordLogWriter",
    "read_record_log",
    "record_log_path",
    "remove_run_checkpoint",
]

#: File magic: "RePRo rESilience record LoG", revision 2 (column blocks).
#: A revision-1 log (per-record structs) reads as an empty trusted prefix.
LOG_MAGIC = b"RPRESLG2"

_DIGEST_LEN = 32
_BLOCK_LEN = struct.Struct("<Q")
_BODY_HDR = struct.Struct("<QI")  # start position, epoch


def record_log_path(path: Union[str, Path]) -> Path:
    """The sidecar log for a run-checkpoint state container at ``path``."""
    path = Path(path)
    return path.with_name(path.name + ".log")


def remove_run_checkpoint(path: Union[str, Path]) -> None:
    """Delete a run checkpoint — the state container and its record log."""
    path = Path(path)
    path.unlink(missing_ok=True)
    record_log_path(path).unlink(missing_ok=True)


class RecordLogWriter:
    """Appends record blocks to a log file from the checkpoint worker.

    With ``trusted_bytes=None`` the file is created fresh (truncating
    any previous run's log); otherwise — the resume path — the file is
    truncated to the trusted prefix so discarded tail blocks from the
    interrupted run can never resurface.
    """

    #: user-space write buffer: appends are memcpys until :meth:`flush`
    _BUFFERING = 1 << 20

    def __init__(
        self, path: Union[str, Path], *, trusted_bytes: Optional[int] = None
    ) -> None:
        self.path = Path(path)
        if trusted_bytes is None or trusted_bytes < len(LOG_MAGIC):
            # Fresh log — also the resume path when the old log was
            # missing or had no readable magic (trusted prefix empty).
            self._fh = open(self.path, "wb", buffering=self._BUFFERING)
            self._fh.write(LOG_MAGIC)
        else:
            self._fh = open(self.path, "r+b", buffering=self._BUFFERING)
            self._fh.truncate(trusted_bytes)
            self._fh.seek(trusted_bytes)

    def append(
        self, blocks: Sequence[RecordBlock], *, start_index: int, epoch: int
    ) -> None:
        """Buffer ``blocks`` as one log block (flushed by
        :meth:`flush`/:meth:`close`)."""
        body = _BODY_HDR.pack(start_index, epoch) + encode_blocks(blocks)
        self._fh.write(_BLOCK_LEN.pack(len(body)))
        self._fh.write(sha256(body).digest())
        self._fh.write(body)

    def flush(self) -> None:
        """Push buffered blocks to the OS (appending thread only)."""
        self._fh.flush()

    def sync(self) -> None:
        """fsync the file descriptor (does *not* drain the user-space
        buffer — the appending thread must :meth:`flush` first, which is
        why the pipeline flushes before queueing any sync/container
        task). Safe to call from the writer thread concurrently with
        appends."""
        os.fsync(self._fh.fileno())

    def close(self) -> None:
        self._fh.close()


def read_record_log(
    path: Union[str, Path], *, max_epoch: int, start_index: int = 0
) -> Tuple[List[RecordBlock], int]:
    """Decode the trusted prefix of a record log.

    Returns ``(blocks, trusted_bytes)``, one block per log block.
    Reading stops — without raising — at the first torn,
    checksum-invalid, non-contiguous, epoch-regressing, or
    higher-than-``max_epoch`` block; whether the surviving prefix is
    *sufficient* is the caller's judgement (it knows the state
    container's position). A missing log, or one of another revision,
    reads as empty.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError:
        return [], 0
    if raw[: len(LOG_MAGIC)] != LOG_MAGIC:
        return [], 0
    blocks: List[RecordBlock] = []
    offset = len(LOG_MAGIC)
    next_index = start_index
    last_epoch = 0
    while True:
        header_end = offset + _BLOCK_LEN.size + _DIGEST_LEN
        if len(raw) < header_end:
            break
        (body_len,) = _BLOCK_LEN.unpack_from(raw, offset)
        body_end = header_end + body_len
        if len(raw) < body_end:
            break
        digest = raw[offset + _BLOCK_LEN.size : header_end]
        body = memoryview(raw)[header_end:body_end]
        if sha256(body).digest() != digest:
            break
        try:
            start, epoch = _BODY_HDR.unpack_from(body, 0)
            block = decode_block(body[_BODY_HDR.size :])
        except Exception:
            break
        if start != next_index or epoch < last_epoch or epoch > max_epoch:
            break
        blocks.append(block)
        next_index += len(block)
        last_epoch = epoch
        offset = body_end
    return blocks, offset
