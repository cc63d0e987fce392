"""Deterministic fault injection for crash-safety tests.

Three fault families, matching what actually happens to an edge device
in the field:

* **process death** mid-stream — :func:`crash_at` arms a pipeline to
  raise :class:`InjectedCrash` at an exact sample index, so tests can
  kill a run at step *k* reproducibly;
* **storage corruption** — :func:`truncate_file`, :func:`flip_bit`, and
  :func:`corrupt_version` damage checkpoint files in the precise ways a
  brownout or flash wear does (torn write, flipped cell, stale format);
* **sensor garbage** — :func:`nan_burst` splices a NaN window into a raw
  feature matrix, and the sensor-fault family (:func:`stuck_at`,
  :func:`dropout`, :func:`spike_train`, :func:`feature_dead`) reproduces
  the four classic field failures of cheap transducers: a frozen reading,
  a dead link reporting a constant, periodic electrical spikes, and a
  channel that flatlines for good. These produce *finite* garbage, so an
  unguarded pipeline streams it silently — exactly the scenario the
  :mod:`repro.guard` layer exists to catch.

Everything here is deterministic: no RNG, no wall clock.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from ..utils.exceptions import ReproError
from .checkpoint import _DIGEST_LEN, _LEN_FMT, _frame, MAGIC

__all__ = [
    "InjectedCrash",
    "crash_at",
    "truncate_file",
    "flip_bit",
    "corrupt_version",
    "nan_burst",
    "stuck_at",
    "dropout",
    "spike_train",
    "feature_dead",
]


class InjectedCrash(ReproError, RuntimeError):
    """Raised by an armed pipeline when it reaches the kill step."""


class crash_at:
    """Arm ``pipeline`` to raise :class:`InjectedCrash` at sample ``step``.

    The hook wraps the pipeline's two record emitters, ``_record`` (one
    record) and ``_record_rows`` (a chunk's record block), as *instance*
    attributes, so it fires just before the record for ``step`` would be
    produced — after any earlier checkpoint was written, before the
    step's result exists. A block that reaches ``step`` emits the
    records before it and then raises. Usable as a
    context manager (disarms on exit) or via :meth:`disarm`.

    Examples
    --------
    >>> with crash_at(pipe, 64):                      # doctest: +SKIP
    ...     pipe.run(stream, checkpoint_every=16, checkpoint_path=p)
    Traceback (most recent call last):
    InjectedCrash: ...
    """

    _HOOKED = ("_record", "_record_rows")

    def __init__(self, pipeline, step: int) -> None:
        if step < 0:
            raise ValueError(f"step must be non-negative, got {step}")
        self.pipeline = pipeline
        self.step = int(step)
        record = type(pipeline)._record
        record_rows = type(pipeline)._record_rows

        def crash():
            return InjectedCrash(
                f"injected crash at step {pipeline._index} "
                f"(armed for step {self.step})"
            )

        def hooked(*args, **kwargs):
            if pipeline._index >= self.step:
                raise crash()
            return record(pipeline, *args, **kwargs)

        def hooked_rows(labels, scores, yc, phases, **kwargs):
            room = self.step - pipeline._index
            if room >= len(labels):
                return record_rows(pipeline, labels, scores, yc, phases, **kwargs)
            if room > 0:
                if np.ndim(phases):
                    phases = phases[:room]
                record_rows(
                    pipeline, labels[:room], scores[:room], yc[:room], phases, **kwargs
                )
            raise crash()

        pipeline.__dict__["_record"] = hooked
        pipeline.__dict__["_record_rows"] = hooked_rows

    def disarm(self) -> None:
        """Remove the hooks; the pipeline behaves normally again."""
        for name in self._HOOKED:
            self.pipeline.__dict__.pop(name, None)

    def __enter__(self) -> "crash_at":
        return self

    def __exit__(self, *exc_info) -> None:
        self.disarm()


def truncate_file(path: Union[str, Path], keep_bytes: Optional[int] = None) -> Path:
    """Truncate ``path`` in place — a torn write / power-cut artefact.

    With ``keep_bytes=None`` the file is cut to half its size.
    """
    path = Path(path)
    size = path.stat().st_size
    keep = size // 2 if keep_bytes is None else int(keep_bytes)
    if not 0 <= keep <= size:
        raise ValueError(f"keep_bytes {keep} outside [0, {size}]")
    with open(path, "r+b") as fh:
        fh.truncate(keep)
    return path


def flip_bit(path: Union[str, Path], bit_index: int) -> Path:
    """Flip one bit of ``path`` in place — a flash/SD single-bit error."""
    path = Path(path)
    data = bytearray(path.read_bytes())
    byte, bit = divmod(int(bit_index), 8)
    if not 0 <= byte < len(data):
        raise ValueError(f"bit_index {bit_index} outside file of {len(data)} bytes")
    data[byte] ^= 1 << bit
    path.write_bytes(bytes(data))
    return path


def corrupt_version(path: Union[str, Path], format_version: int) -> Path:
    """Rewrite a checkpoint's ``format_version`` with a *valid* checksum.

    This simulates a file written by a different library revision: the
    frame is intact (digest passes), so only the version gate can catch
    it. The loader must raise ``CheckpointVersionError``, not a checksum
    error.
    """
    path = Path(path)
    raw = path.read_bytes()
    body = raw[len(MAGIC) + _DIGEST_LEN :]
    len_size = struct.calcsize(_LEN_FMT)
    (header_len,) = struct.unpack(_LEN_FMT, body[:len_size])
    header = json.loads(body[len_size : len_size + header_len].decode("utf-8"))
    header["format_version"] = int(format_version)
    header_bytes = json.dumps(header).encode("utf-8")
    new_body = (
        struct.pack(_LEN_FMT, len(header_bytes))
        + header_bytes
        + body[len_size + header_len :]
    )
    path.write_bytes(_frame(new_body))
    return path


def nan_burst(
    X: np.ndarray,
    start: int,
    length: int,
    columns: Optional[Sequence[int]] = None,
) -> np.ndarray:
    """Return a copy of ``X`` with a NaN burst — a dying-sensor window.

    ``DataStream`` rejects NaN at construction, so this operates on the
    raw matrix; tests feed the result to validation paths and assert the
    library refuses it loudly instead of streaming garbage.
    """
    X = np.asarray(X, dtype=np.float64).copy()
    if not 0 <= start <= len(X):
        raise ValueError(f"start {start} outside [0, {len(X)}]")
    stop = min(start + int(length), len(X))
    if columns is None:
        X[start:stop, :] = np.nan
    else:
        X[start:stop, list(columns)] = np.nan
    return X


def _window(X: np.ndarray, start: int, length: int) -> tuple[np.ndarray, int, int]:
    """Copy ``X`` and clamp the fault window — shared by the sensor faults."""
    X = np.asarray(X, dtype=np.float64).copy()
    if not 0 <= start <= len(X):
        raise ValueError(f"start {start} outside [0, {len(X)}]")
    if length < 0:
        raise ValueError(f"length must be non-negative, got {length}")
    return X, int(start), min(int(start) + int(length), len(X))


def stuck_at(
    X: np.ndarray,
    start: int,
    length: int,
    columns: Optional[Sequence[int]] = None,
    value: Optional[float] = None,
) -> np.ndarray:
    """Freeze readings for a window — a sensor stuck at its last value.

    The affected columns repeat row ``start``'s reading (or ``value``
    when given) for ``length`` samples. Finite and usually in-range, so
    only distribution-level guards can notice it.
    """
    X, start, stop = _window(X, start, length)
    cols = slice(None) if columns is None else list(columns)
    held = X[start, cols].copy() if value is None else float(value)
    X[start:stop, cols] = held
    return X


def dropout(
    X: np.ndarray,
    start: int,
    length: int,
    columns: Optional[Sequence[int]] = None,
    fill: float = 0.0,
) -> np.ndarray:
    """Zero (or ``fill``) a window — a dead link reporting a constant.

    Unlike :func:`nan_burst` the readings stay finite, mimicking an ADC
    whose input line went open-circuit.
    """
    X, start, stop = _window(X, start, length)
    cols = slice(None) if columns is None else list(columns)
    X[start:stop, cols] = float(fill)
    return X


def spike_train(
    X: np.ndarray,
    start: int,
    length: int,
    columns: Optional[Sequence[int]] = None,
    *,
    period: int = 3,
    magnitude: float = 1e3,
) -> np.ndarray:
    """Add alternating ±``magnitude`` spikes every ``period`` samples.

    Electrical interference: most samples in the window are untouched,
    but every ``period``-th reading is blown far out of the learned
    bounds with a deterministic alternating sign.
    """
    if period < 1:
        raise ValueError(f"period must be >= 1, got {period}")
    X, start, stop = _window(X, start, length)
    cols = slice(None) if columns is None else list(columns)
    for n, i in enumerate(range(start, stop, int(period))):
        X[i, cols] += magnitude if n % 2 == 0 else -magnitude
    return X


def feature_dead(
    X: np.ndarray,
    column: int,
    start: int = 0,
    value: float = 0.0,
) -> np.ndarray:
    """Flatline one feature from ``start`` to the end of the stream.

    The permanent version of :func:`dropout`: a channel fails and never
    comes back — the survive-the-month scenario for the degradation
    ladder's sanitizing rung.
    """
    X, start, _ = _window(X, start, 0)
    if not 0 <= int(column) < X.shape[1]:
        raise ValueError(f"column {column} outside matrix with {X.shape[1]} features")
    X[start:, int(column)] = float(value)
    return X
