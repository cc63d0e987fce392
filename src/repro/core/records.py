"""A chunk's records as columns: :class:`RecordBlock` and its byte codec.

Every pipeline emitter returns one :class:`RecordBlock` per consumed
chunk: the chunk's predicted labels, true labels, anomaly scores, phase
codes and drift/reconstruction masks as numpy columns. Run contexts and
fleet sessions keep blocks; the record log
(:mod:`repro.resilience.reclog`) and the fleet spool write them with
the one codec here (:func:`encode_blocks` / :func:`decode_block`).
:class:`StepRecord` tuples are built only where a caller iterates:
``run()``'s result, the records ``feed``/``submit``/``finish`` return,
and ``StreamSession.records``.

Codec layout (little-endian)::

    uint64 start index | uint32 n | uint16 phase-vocabulary count
    | uint8 flags | uint8 label widths | (uint16 len + utf-8 phase name)*
    | predicted int[n] | true_label int[n] | score float64[n]
    | phase uint8[n] | drift bool[n] | reconstructing bool[n]
    | missing bool[n]  (flag bit 0)
    | correct int8[n]  (flag bit 1; -1 for None)

Each label column is stored in the narrowest signed integer type that
holds its values (widths bits 0-1 for ``predicted``, 2-3 for
``true_label``: int8, int16, int32, int64), so a block of small labels
costs 13 bytes per record. The vocabulary lists every phase name this
process has coded, so a reader maps the codes by name, not by
position. Scores are raw ``float64`` bytes, so they round-trip
bit-exactly.
"""

from __future__ import annotations

import struct
from functools import partial
from typing import Iterable, List, NamedTuple, Optional, Sequence

import numpy as np

__all__ = [
    "StepRecord",
    "RecordBlock",
    "PHASES",
    "phase_code",
    "records_of",
    "encode_blocks",
    "decode_block",
]


class StepRecord(NamedTuple):
    """Everything the evaluation harness needs about one processed sample.

    A named tuple: immutable, iterable, and equal to a plain tuple of the
    same values.
    """

    index: int
    predicted: int
    true_label: Optional[int]
    correct: Optional[bool]
    anomaly_score: float
    drift_detected: bool
    reconstructing: bool
    phase: str


#: ``StepRecord._make`` without its Python frame and length check
_new_record = partial(tuple.__new__, StepRecord)

#: Phase name of each code. Append-only, so a code keeps its meaning for
#: the life of the process; the built-in phases come first.
PHASES: List[str] = [
    "predict", "check", "search", "update", "train_centroid", "train_predict",
    "finish", "train", "refit", "quarantine", "frozen", "passthrough",
]
_CODES = {name: code for code, name in enumerate(PHASES)}


def phase_code(name: str) -> int:
    """The code of phase ``name``, coding a new name on first sight."""
    code = _CODES.get(name)
    if code is None:
        if len(PHASES) > 255:
            raise ValueError("more than 256 distinct record phases")
        code = _CODES[name] = len(PHASES)
        PHASES.append(name)
    return code


class RecordBlock:
    """The records of stream indices ``[start, start + n)`` as columns.

    ``predicted`` and ``true_label`` are ``int64``, ``score`` is
    ``float64``, ``phase`` holds ``uint8`` codes into :data:`PHASES`, and
    ``drift`` / ``reconstructing`` are bool masks. ``missing`` masks the
    rows without a true label (``true_label`` holds -1 there), or is
    ``None`` when every row has one. A record's ``correct`` field is
    ``predicted == true_label`` where the label is present, as every
    pipeline emits it; ``correct`` holds it explicitly (``int8``, -1 for
    ``None``) only for a block built from records that say otherwise.
    Columns are owned arrays, never views into larger ones, and are not
    mutated after construction.
    """

    __slots__ = (
        "start", "predicted", "true_label", "missing", "score", "phase",
        "drift", "reconstructing", "correct",
    )

    def __init__(
        self,
        start: int,
        predicted: np.ndarray,
        true_label: np.ndarray,
        missing: Optional[np.ndarray],
        score: np.ndarray,
        phase: np.ndarray,
        drift: np.ndarray,
        reconstructing: np.ndarray,
        correct: Optional[np.ndarray] = None,
    ) -> None:
        self.start = int(start)
        self.predicted = predicted
        self.true_label = true_label
        self.missing = missing
        self.score = score
        self.phase = phase
        self.drift = drift
        self.reconstructing = reconstructing
        self.correct = correct

    def __len__(self) -> int:
        return len(self.predicted)

    def __repr__(self) -> str:
        return f"RecordBlock(start={self.start}, n={len(self)})"

    @property
    def stop(self) -> int:
        """Stream index one past the block's last record."""
        return self.start + len(self.predicted)

    def n_drifts(self) -> int:
        """Number of records that reported a drift."""
        return int(np.count_nonzero(self.drift))

    def records(self) -> List[StepRecord]:
        """The block as :class:`StepRecord` tuples of Python scalars."""
        truth = self.true_label.tolist()
        if self.correct is not None:
            correct = [None if c < 0 else bool(c) for c in self.correct.tolist()]
        else:
            correct = (self.predicted == self.true_label).tolist()
        if self.missing is not None:
            missing = self.missing.tolist()
            truth = [None if m else y for y, m in zip(truth, missing)]
            if self.correct is None:
                correct = [None if m else c for c, m in zip(correct, missing)]
        return list(map(_new_record, zip(
            range(self.start, self.stop),
            self.predicted.tolist(),
            truth,
            correct,
            self.score.tolist(),
            self.drift.tolist(),
            self.reconstructing.tolist(),
            map(PHASES.__getitem__, self.phase.tolist()),
        )))

    @classmethod
    def empty(cls, start: int = 0) -> "RecordBlock":
        i8, b = np.empty(0, np.int64), np.empty(0, np.bool_)
        return cls(start, i8, i8, None, np.empty(0), np.empty(0, np.uint8), b, b)

    @classmethod
    def from_records(cls, records: Sequence[StepRecord]) -> "RecordBlock":
        """One block holding consecutive records, field for field."""
        if not records:
            return cls.empty()
        index, predicted, truth, correct, score, drift, recon, phase = zip(*records)
        start = index[0]
        if list(index) != list(range(start, start + len(index))):
            raise ValueError("records are not consecutive stream indices")
        implied = [None if y is None else p == y for p, y in zip(predicted, truth)]
        missing = [y is None for y in truth]
        return cls(
            start,
            np.array(predicted, dtype=np.int64),
            np.array([-1 if y is None else y for y in truth], dtype=np.int64),
            np.array(missing) if any(missing) else None,
            np.array(score, dtype=np.float64),
            np.array([phase_code(p) for p in phase], dtype=np.uint8),
            np.array(drift, dtype=np.bool_),
            np.array(recon, dtype=np.bool_),
            None if list(correct) == implied else np.array(
                [-1 if c is None else int(c) for c in correct], dtype=np.int8
            ),
        )

    @classmethod
    def concat(cls, blocks: Sequence["RecordBlock"]) -> "RecordBlock":
        """One block holding consecutive ``blocks`` in order."""
        blocks = [b for b in blocks if len(b)]
        if len(blocks) == 1:
            return blocks[0]
        if not blocks:
            return cls.empty()
        _check_consecutive(blocks)
        return cls(
            blocks[0].start,
            np.concatenate([b.predicted for b in blocks]),
            np.concatenate([b.true_label for b in blocks]),
            _missing_column(blocks),
            np.concatenate([b.score for b in blocks]),
            np.concatenate([b.phase for b in blocks]),
            np.concatenate([b.drift for b in blocks]),
            np.concatenate([b.reconstructing for b in blocks]),
            _correct_column(blocks),
        )


def records_of(blocks: Iterable[RecordBlock]) -> List[StepRecord]:
    """Every block's records, in order, as one list."""
    out: List[StepRecord] = []
    for block in blocks:
        out += block.records()
    return out


def _check_consecutive(blocks: Sequence[RecordBlock]) -> None:
    for prev, block in zip(blocks, blocks[1:]):
        if block.start != prev.stop:
            raise ValueError(
                f"record blocks are not consecutive: {prev.stop} then {block.start}"
            )


def _missing_column(blocks: Sequence[RecordBlock]) -> Optional[np.ndarray]:
    if all(b.missing is None for b in blocks):
        return None
    return np.concatenate([
        np.zeros(len(b), np.bool_) if b.missing is None else b.missing
        for b in blocks
    ])


def _correct_column(blocks: Sequence[RecordBlock]) -> Optional[np.ndarray]:
    if all(b.correct is None for b in blocks):
        return None
    columns = []
    for b in blocks:
        if b.correct is None:
            implied = (b.predicted == b.true_label).astype(np.int8)
            if b.missing is not None:
                implied[b.missing] = -1
            columns.append(implied)
        else:
            columns.append(b.correct)
    return np.concatenate(columns)


# -- the codec ---------------------------------------------------------------------

_HEAD = struct.Struct("<QIHBB")  # start, n, vocabulary count, flags, label widths
_HAS_MISSING, _HAS_CORRECT = 1, 2
_NAME_LEN = struct.Struct("<H")
#: stored integer label types, by width code, and their value ranges
_INTS = ("<i1", "<i2", "<i4", "<i8")
_RANGES = [(int(np.iinfo(d).min), int(np.iinfo(d).max)) for d in _INTS]
#: (len(PHASES) it was built for, the encoded vocabulary)
_vocab_cache = (0, b"")


def _vocabulary() -> bytes:
    global _vocab_cache
    if _vocab_cache[0] != len(PHASES):
        raw = [name.encode("utf-8") for name in PHASES]
        _vocab_cache = (len(raw), b"".join(_NAME_LEN.pack(len(r)) + r for r in raw))
    return _vocab_cache[1]


def _narrowest(column: np.ndarray) -> int:
    """Width code of the smallest signed type holding every value."""
    if not len(column):
        return 0
    lo, hi = int(column.min()), int(column.max())
    return next(c for c, (a, b) in enumerate(_RANGES) if a <= lo and hi <= b)


def encode_blocks(blocks: Sequence[RecordBlock]) -> bytearray:
    """Consecutive blocks as one codec record (see the module docstring)."""
    block = RecordBlock.concat(blocks)
    widths = (_narrowest(block.predicted), _narrowest(block.true_label))
    columns = [
        (block.predicted, _INTS[widths[0]]),
        (block.true_label, _INTS[widths[1]]),
        (block.score, "<f8"),
        (block.phase, "u1"),
        (block.drift, "?"),
        (block.reconstructing, "?"),
    ]
    for extra, dtype in ((block.missing, "?"), (block.correct, "i1")):
        if extra is not None:
            columns.append((extra, dtype))
    flags = (block.missing is not None) * _HAS_MISSING | (
        block.correct is not None
    ) * _HAS_CORRECT
    n = len(block)
    head = _HEAD.pack(
        block.start, n, len(PHASES), flags, widths[0] | widths[1] << 2
    ) + _vocabulary()
    out = bytearray(len(head) + n * sum(np.dtype(d).itemsize for _, d in columns))
    out[: len(head)] = head
    off = len(head)
    for column, dtype in columns:
        dest = np.frombuffer(out, dtype=dtype, count=n, offset=off)
        dest[...] = column
        off += dest.nbytes
    return out


def decode_block(buf) -> RecordBlock:
    """The block :func:`encode_blocks` wrote into ``buf``.

    Raises ``ValueError`` when the length disagrees with the header or a
    phase code has no name.
    """
    mv = memoryview(buf).cast("B")
    start, n, vcount, flags, widths = _HEAD.unpack_from(mv, 0)
    off = _HEAD.size
    codes = []
    for _ in range(vcount):
        (length,) = _NAME_LEN.unpack_from(mv, off)
        off += _NAME_LEN.size
        codes.append(phase_code(bytes(mv[off : off + length]).decode("utf-8")))
        off += length
    labels = (_INTS[widths & 3], _INTS[widths >> 2 & 3])
    has_missing, has_correct = flags & _HAS_MISSING, flags & _HAS_CORRECT
    row_bytes = sum(np.dtype(d).itemsize for d in labels) + 8 + 3
    if len(mv) - off != n * (row_bytes + bool(has_missing) + bool(has_correct)):
        raise ValueError("record block length does not match its record count")

    def column(stored, native) -> np.ndarray:
        nonlocal off
        out = np.frombuffer(mv, dtype=stored, count=n, offset=off)
        off += out.nbytes
        return out.astype(native)  # an owned, native-order copy

    predicted = column(labels[0], np.int64)
    true_label = column(labels[1], np.int64)
    score = column("<f8", np.float64)
    phase = column("u1", np.uint8)
    drift = column("?", np.bool_)
    reconstructing = column("?", np.bool_)
    missing = column("?", np.bool_) if has_missing else None
    correct = column("i1", np.int8) if has_correct else None
    if n and int(phase.max()) >= vcount:
        raise ValueError("record phase code outside the block's vocabulary")
    if codes != list(range(vcount)):
        phase = np.array(codes, dtype=np.uint8)[phase]
    return RecordBlock(
        start, predicted, true_label, missing, score, phase, drift, reconstructing,
        correct,
    )
