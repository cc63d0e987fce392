"""Append-only record log — the incremental half of a run checkpoint.

A checkpointed ``StreamPipeline.run`` writes two files:

* ``<path>`` — the atomic state container (:mod:`.checkpoint`), holding
  the pipeline state, position, and the log *epoch* (see below). It is
  rewritten only when adaptive state actually changed; for a frozen
  baseline that is once per run.
* ``<path>.log`` — this file: ``LOG_MAGIC`` then a sequence of blocks,
  one per persisted span (one or more checkpoint intervals — clean
  intervals are deferred and batched), each holding the span's
  ``StepRecord``s packed as fixed-width structs (bit-exact ``float64``
  scores) plus a block-local phase vocabulary::

      block = uint64-LE body length | sha256(body) | body
      body  = uint64 start index | uint32 epoch | uint32 n_records
              | uint16 vocab count | (uint16 len + utf-8 phase)*
              | n_records × record struct

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
from typing import Any, List, Optional, Tuple, Union

__all__ = [
    "LOG_MAGIC",
    "RecordLogWriter",
    "read_record_log",
    "record_log_path",
    "remove_run_checkpoint",
]

#: File magic: "RePRo rESilience record LoG", revision 1.
LOG_MAGIC = b"RPRESLG1"

_DIGEST_LEN = 32
_BLOCK_LEN = struct.Struct("<Q")
_BODY_HDR = struct.Struct("<QII")  # start index, epoch, n_records
_VOCAB_LEN = struct.Struct("<H")
#: index, predicted, true_label, correct, true_none, drift, recon, phase, score
_REC = struct.Struct("<qqqbb??Bd")


def record_log_path(path: Union[str, Path]) -> Path:
    """The sidecar log for a run-checkpoint state container at ``path``."""
    path = Path(path)
    return path.with_name(path.name + ".log")


def remove_run_checkpoint(path: Union[str, Path]) -> None:
    """Delete a run checkpoint — the state container and its record log."""
    path = Path(path)
    path.unlink(missing_ok=True)
    record_log_path(path).unlink(missing_ok=True)


def _encode_block(records: List[Any], start_index: int, epoch: int) -> bytes:
    vocab = {}  # phase -> code, in first-seen order
    pack = _REC.pack
    out = bytearray()
    # StepRecords are named tuples: unpacking beats eight attribute reads.
    for index, predicted, tl, correct, score, drift, recon, phase in records:
        code = vocab.get(phase)
        if code is None:
            code = vocab[phase] = len(vocab)
        out += pack(
            index,
            predicted,
            -1 if tl is None else tl,
            -1 if correct is None else correct,
            tl is None,
            drift,
            recon,
            code,
            score,
        )
    head = bytearray(_BODY_HDR.pack(start_index, epoch, len(records)))
    head += _VOCAB_LEN.pack(len(vocab))
    for phase in vocab:
        raw = phase.encode("utf-8")
        head += _VOCAB_LEN.pack(len(raw))
        head += raw
    return bytes(head + out)


def _decode_body(body: memoryview) -> Tuple[int, int, List[Any]]:
    """(start_index, epoch, records) for one checksum-valid block body."""
    from repro.core.pipeline import StepRecord  # lazy: core <-> resilience cycle

    start, epoch, n = _BODY_HDR.unpack_from(body, 0)
    off = _BODY_HDR.size
    (vcount,) = _VOCAB_LEN.unpack_from(body, off)
    off += _VOCAB_LEN.size
    vocab: List[str] = []
    for _ in range(vcount):
        (vlen,) = _VOCAB_LEN.unpack_from(body, off)
        off += _VOCAB_LEN.size
        vocab.append(bytes(body[off : off + vlen]).decode("utf-8"))
        off += vlen
    if len(body) - off != n * _REC.size:
        raise ValueError("block body length does not match record count")
    records: List[Any] = []
    for tup in _REC.iter_unpack(body[off:]):
        index, predicted, true_label, correct, true_none, drift, recon, code, score = tup
        records.append(
            StepRecord(
                index,
                predicted,
                None if true_none else true_label,
                None if correct < 0 else bool(correct),
                score,
                drift,
                recon,
                vocab[code],
            )
        )
    return int(start), int(epoch), records


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

    def append(self, records: List[Any], *, start_index: int, epoch: int) -> None:
        """Buffer one block (flushed by :meth:`flush`/:meth:`close`)."""
        body = _encode_block(records, start_index, epoch)
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
) -> Tuple[List[Any], int]:
    """Decode the trusted prefix of a record log.

    Returns ``(records, trusted_bytes)``. Reading stops — without
    raising — at the first torn, checksum-invalid, non-contiguous,
    epoch-regressing, or higher-than-``max_epoch`` block; whether the
    surviving prefix is *sufficient* is the caller's judgement (it knows
    the state container's position). A missing log reads as empty.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError:
        return [], 0
    if raw[: len(LOG_MAGIC)] != LOG_MAGIC:
        return [], 0
    records: List[Any] = []
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
            start, epoch, block_records = _decode_body(body)
        except Exception:
            break
        if start != next_index or epoch < last_epoch or epoch > max_epoch:
            break
        records.extend(block_records)
        next_index += len(block_records)
        last_epoch = epoch
        offset = body_end
    return records, offset
