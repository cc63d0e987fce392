"""Crash-safe streaming: checkpoints, restore, and fault injection.

The paper's deployment story is month-long unattended runs on edge
hardware, where sequential state (centroids, RLS matrices, window
counters) is irrecoverable once lost. This package provides

* a versioned, checksummed, atomically-written checkpoint container
  (:mod:`repro.resilience.checkpoint`),
* an append-only record log that makes every-N run checkpointing
  O(interval), not O(history) (:mod:`repro.resilience.reclog`),
* a shared background writer that keeps container writes and fsyncs
  off the streaming hot path (:mod:`repro.resilience.writer`),
* the state-tree codec and StepRecord-list helpers over the shared
  record codec (:mod:`repro.resilience.state`), and
* a deterministic fault-injection harness
  (:mod:`repro.resilience.faults`)

on top of the uniform ``get_state()/set_state()`` protocol implemented
by every stateful component. ``StreamPipeline.run(checkpoint_every=...,
checkpoint_path=...)`` and ``StreamPipeline.resume(...)`` build on these
to make killed-and-resumed runs byte-identical to uninterrupted ones.
"""

from .checkpoint import (
    FORMAT_VERSION,
    MAGIC,
    Checkpoint,
    atomic_write_bytes,
    load_checkpoint,
    save_checkpoint,
)
from .faults import (
    InjectedCrash,
    corrupt_version,
    crash_at,
    dropout,
    feature_dead,
    flip_bit,
    nan_burst,
    spike_train,
    stuck_at,
    truncate_file,
)
from .reclog import (
    LOG_MAGIC,
    RecordLogWriter,
    read_record_log,
    record_log_path,
    remove_run_checkpoint,
)
from .state import (
    decode_records,
    encode_records,
    flatten_state,
    snapshot_state,
    state_arrays_nbytes,
    unflatten_state,
)
from .writer import AsyncCheckpointWriter, shared_writer

__all__ = [
    "MAGIC",
    "FORMAT_VERSION",
    "Checkpoint",
    "atomic_write_bytes",
    "save_checkpoint",
    "load_checkpoint",
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
    "flatten_state",
    "unflatten_state",
    "snapshot_state",
    "encode_records",
    "decode_records",
    "state_arrays_nbytes",
    "AsyncCheckpointWriter",
    "shared_writer",
    "LOG_MAGIC",
    "RecordLogWriter",
    "read_record_log",
    "record_log_path",
    "remove_run_checkpoint",
]
