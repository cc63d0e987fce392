"""A record log of another format revision is refused, and the run restarts clean.

The record log writes :class:`~repro.core.records.RecordBlock` columns
behind the magic :data:`repro.resilience.LOG_MAGIC` (revision 2).
Revision 1 packed every record as a fixed-width struct. A killed run's
log is rewritten here in revision 1 — once in the old struct layout and
once as today's blocks behind the old magic, so only the revision says
it is old — and both must be refused: ``resume`` raises
:class:`CheckpointCorruptError` without touching the pipeline, and
:func:`~repro.metrics.evaluate_method` discards the checkpoint and
reruns from sample 0, byte-identical to an uninterrupted run.
"""

from __future__ import annotations

import struct
from hashlib import sha256

import pytest

from repro.core import build_proposed
from repro.core.records import encode_blocks, records_of
from repro.datasets import NSLKDDConfig, make_nslkdd_like
from repro.metrics import evaluate_method
from repro.resilience import (
    LOG_MAGIC,
    InjectedCrash,
    crash_at,
    read_record_log,
    record_log_path,
)
from repro.resilience.reclog import _BODY_HDR
from repro.utils.exceptions import CheckpointCorruptError

EVERY = 64
KILL = 700

#: revision 1 of the record log, as it was written
V1_MAGIC = b"RPRESLG1"
_V1_HEAD = struct.Struct("<QII")  # start index, epoch, n_records
_V1_LEN = struct.Struct("<H")
_V1_REC = struct.Struct("<qqqbb??Bd")


def _v1_body(records, start: int, epoch: int) -> bytes:
    """One revision-1 block body: header, phase vocabulary, structs."""
    vocab = {}
    rows = bytearray()
    for index, predicted, tl, correct, score, drift, recon, phase in records:
        code = vocab.setdefault(phase, len(vocab))
        rows += _V1_REC.pack(
            index, predicted, -1 if tl is None else tl,
            -1 if correct is None else correct, tl is None,
            drift, recon, code, score,
        )
    head = bytearray(_V1_HEAD.pack(start, epoch, len(records)))
    head += _V1_LEN.pack(len(vocab))
    for phase in vocab:
        raw = phase.encode("utf-8")
        head += _V1_LEN.pack(len(raw)) + raw
    return bytes(head + rows)


def _frame(body: bytes) -> bytes:
    return struct.pack("<Q", len(body)) + sha256(body).digest() + body


def _stream():
    return make_nslkdd_like(
        NSLKDDConfig(n_train=400, n_test=1200, drift_at=400), seed=0
    )


def _make(train):
    return build_proposed(train.X, train.y, window_size=60, seed=3)


def _killed_run(tmp_path):
    """A run killed at sample ``KILL``; returns its checkpoint path and
    the trusted blocks of its (current-revision) log."""
    train, test = _stream()
    ckpt = tmp_path / "run.ckpt"
    victim = _make(train)
    with pytest.raises(InjectedCrash):
        with crash_at(victim, KILL):
            victim.run(test, checkpoint_every=EVERY, checkpoint_path=ckpt)
    blocks, _ = read_record_log(record_log_path(ckpt), max_epoch=1 << 30)
    assert sum(len(b) for b in blocks) >= EVERY
    return ckpt, blocks


def _rewrite_v1(ckpt, blocks, layout: str) -> None:
    """Rewrite the log as one revision-1 file covering the same records."""
    records = records_of(blocks)
    if layout == "structs":
        body = _v1_body(records, 0, 1)
    else:  # today's column block, behind the old magic
        body = _BODY_HDR.pack(0, 1) + encode_blocks(blocks)
    record_log_path(ckpt).write_bytes(V1_MAGIC + _frame(body))


def test_magic_names_revision_two():
    assert LOG_MAGIC == b"RPRESLG2" != V1_MAGIC


@pytest.mark.parametrize("layout", ["structs", "blocks"])
def test_revision_one_log_is_refused_and_the_run_restarts_clean(layout, tmp_path):
    ckpt, blocks = _killed_run(tmp_path)
    _rewrite_v1(ckpt, blocks, layout)
    train, test = _stream()
    golden = _make(train).run(test)

    fresh = _make(train)
    before = fresh.get_state()["index"]
    with pytest.raises(CheckpointCorruptError):
        fresh.resume(test, ckpt)
    assert fresh.get_state()["index"] == before  # refused before any restore

    result = evaluate_method(
        _make(train), test, checkpoint_every=EVERY, checkpoint_path=ckpt
    )
    assert result.resumed_at is None  # restarted from sample 0
    assert result.records == golden
    assert record_log_path(ckpt).read_bytes()[: len(LOG_MAGIC)] == LOG_MAGIC
