"""State-tree (de)serialisation for checkpoints.

A *state tree* is whatever a component's ``get_state()`` returns: nested
dicts/lists/tuples of builtins plus ``numpy.ndarray`` leaves. The
checkpoint container stores the tree as JSON, which cannot hold raw
arrays, so :func:`flatten_state` swaps every array for a small
placeholder dict and collects the arrays into a separate name → array
mapping (written as the container's binary array payload);
:func:`unflatten_state` reverses the substitution on load.

:func:`encode_records` / :func:`decode_records` do the same for lists of
``StepRecord`` — stored column-wise as typed arrays so that ``float64``
anomaly scores round-trip bit-exactly and a resumed run can prepend the
already-produced records byte-for-byte.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

import numpy as np

from ..utils.exceptions import ConfigurationError

__all__ = [
    "flatten_state",
    "unflatten_state",
    "snapshot_state",
    "encode_records",
    "decode_records",
    "state_arrays_nbytes",
]

_ARRAY_KEY = "__ndarray__"
_TUPLE_KEY = "__tuple__"


def _flatten(node: Any, arrays: Dict[str, np.ndarray]) -> Any:
    if isinstance(node, np.ndarray):
        name = f"a{len(arrays)}"
        arrays[name] = node
        return {_ARRAY_KEY: name}
    if isinstance(node, dict):
        if _ARRAY_KEY in node or _TUPLE_KEY in node:
            raise ConfigurationError(
                f"state dict may not use reserved key {_ARRAY_KEY!r}/{_TUPLE_KEY!r}"
            )
        return {str(k): _flatten(v, arrays) for k, v in node.items()}
    if isinstance(node, tuple):
        return {_TUPLE_KEY: [_flatten(v, arrays) for v in node]}
    if isinstance(node, list):
        return [_flatten(v, arrays) for v in node]
    if isinstance(node, np.generic):  # np.float64, np.int64, np.bool_, ...
        return node.item()
    if node is None or isinstance(node, (bool, int, float, str)):
        return node
    raise TypeError(f"unsupported type in state tree: {type(node).__name__}")


def flatten_state(state: Any) -> Tuple[Any, Dict[str, np.ndarray]]:
    """Replace ndarray leaves with placeholders; return (tree, arrays)."""
    arrays: Dict[str, np.ndarray] = {}
    return _flatten(state, arrays), arrays


def unflatten_state(tree: Any, arrays: Dict[str, np.ndarray]) -> Any:
    """Reverse :func:`flatten_state` using the saved array mapping."""
    if isinstance(tree, dict):
        if _ARRAY_KEY in tree:
            return arrays[tree[_ARRAY_KEY]]
        if _TUPLE_KEY in tree:
            return tuple(unflatten_state(v, arrays) for v in tree[_TUPLE_KEY])
        return {k: unflatten_state(v, arrays) for k, v in tree.items()}
    if isinstance(tree, list):
        return [unflatten_state(v, arrays) for v in tree]
    return tree


def snapshot_state(state: Any) -> Any:
    """Deep-copy a state tree (every ndarray leaf copied).

    Used to hand a consistent snapshot to the asynchronous checkpoint
    writer while the live component keeps mutating its arrays in place.
    """
    tree, arrays = flatten_state(state)
    return unflatten_state(tree, {k: np.array(v, copy=True) for k, v in arrays.items()})


def state_arrays_nbytes(state: Any) -> int:
    """Total bytes of every ndarray leaf in a state tree."""
    _, arrays = flatten_state(state)
    return int(sum(a.nbytes for a in arrays.values()))


# --------------------------------------------------------------------------
# StepRecord column-wise codec
# --------------------------------------------------------------------------


def _encode_columns(
    records: List[Any], seen: Dict[str, int], vocab: List[str]
) -> Dict[str, np.ndarray]:
    """Column arrays for ``records``; extends ``seen``/``vocab`` in place."""
    n = len(records)
    index = np.fromiter((r.index for r in records), dtype=np.int64, count=n)
    predicted = np.fromiter((r.predicted for r in records), dtype=np.int64, count=n)
    true_label = np.fromiter(
        (-1 if r.true_label is None else r.true_label for r in records),
        dtype=np.int64,
        count=n,
    )
    true_none = np.fromiter(
        (r.true_label is None for r in records), dtype=np.bool_, count=n
    )
    correct = np.fromiter(
        (-1 if r.correct is None else int(r.correct) for r in records),
        dtype=np.int8,
        count=n,
    )
    anomaly_score = np.fromiter(
        (r.anomaly_score for r in records), dtype=np.float64, count=n
    )
    drift = np.fromiter((r.drift_detected for r in records), dtype=np.bool_, count=n)
    recon = np.fromiter((r.reconstructing for r in records), dtype=np.bool_, count=n)

    codes = np.empty(n, dtype=np.int64)
    for i, r in enumerate(records):
        code = seen.get(r.phase)
        if code is None:
            code = seen[r.phase] = len(vocab)
            vocab.append(r.phase)
        codes[i] = code

    return {
        "index": index,
        "predicted": predicted,
        "true_label": true_label,
        "true_none": true_none,
        "correct": correct,
        "anomaly_score": anomaly_score,
        "drift_detected": drift,
        "reconstructing": recon,
        "phase_codes": codes,
    }


def encode_records(records: List[Any]) -> Dict[str, Any]:
    """Serialise StepRecords column-wise with exact dtype round-trips.

    ``true_label``/``correct`` may be ``None`` on unlabeled streams, so
    they carry a sentinel (-1 in an int8/int64 column plus a mask).
    ``phase`` strings are stored as a vocabulary list + integer codes.
    """
    vocab: List[str] = []
    seen: Dict[str, int] = {}
    cols = _encode_columns(records, seen, vocab)
    return {**cols, "phase_vocab": vocab}


def decode_records(encoded: Dict[str, Any]) -> List[Any]:
    """Rebuild the StepRecord list from :func:`encode_records` output."""
    from repro.core.pipeline import StepRecord  # lazy: avoid core <-> resilience cycle

    vocab = list(encoded["phase_vocab"])
    columns = (
        "index", "predicted", "true_label", "true_none", "correct",
        "anomaly_score", "drift_detected", "reconstructing", "phase_codes",
    )
    # tolist() yields the same Python ints/bools/floats as per-element
    # int()/bool()/float(), one C call per column.
    rows = zip(*(np.asarray(encoded[name]).tolist() for name in columns))
    records = [
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
        for index, predicted, true_label, true_none, correct, score, drift, recon, code in rows
    ]
    return records
