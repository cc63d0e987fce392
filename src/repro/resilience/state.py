"""State-tree (de)serialisation for checkpoints.

A *state tree* is whatever a component's ``get_state()`` returns: nested
dicts/lists/tuples of builtins plus ``numpy.ndarray`` leaves. The
checkpoint container stores the tree as JSON, which cannot hold raw
arrays, so :func:`flatten_state` swaps every array for a small
placeholder dict and collects the arrays into a separate name → array
mapping (written as the container's binary array payload);
:func:`unflatten_state` reverses the substitution on load.

:func:`encode_records` / :func:`decode_records` put a list of
``StepRecord`` into a state tree as one ``uint8`` leaf, in the record
codec that the run-checkpoint record log and the fleet spool write
(:mod:`repro.core.records`), so ``float64`` anomaly scores round-trip
bit-exactly.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from ..core.records import RecordBlock, StepRecord, decode_block, encode_blocks
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
# StepRecord lists in the shared record codec
# --------------------------------------------------------------------------


def encode_records(records: Sequence[StepRecord]) -> np.ndarray:
    """Consecutive StepRecords in the shared record codec
    (:func:`~repro.core.records.encode_blocks`), as a ``uint8`` array
    leaf for a state tree. Every field round-trips exactly."""
    return np.frombuffer(encode_blocks([RecordBlock.from_records(records)]), np.uint8)


def decode_records(encoded: np.ndarray) -> List[StepRecord]:
    """The StepRecords :func:`encode_records` stored."""
    return decode_block(encoded).records()
