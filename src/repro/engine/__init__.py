"""repro.engine — the composable streaming engine + declarative registry.

Two layers (see ``docs/architecture.md``):

* **engine core** — :class:`StreamEngine` drives a pipeline over a
  stream through an ordered :class:`Interceptor` stack
  (:class:`ChunkScheduler`, :class:`GuardInterceptor`,
  :class:`CheckpointInterceptor`, :class:`TelemetryInterceptor`), each
  owning exactly one cross-cutting concern.
  :meth:`~repro.core.pipeline.StreamPipeline.run` / ``resume`` are thin
  wrappers over :func:`run_stream` / :func:`resume_stream`.
* **declarative layer** — string-keyed registries
  (:func:`register_pipeline` / :func:`register_dataset` /
  :func:`register_detector`) and the JSON-round-trippable
  :class:`ExperimentSpec` consumed by the CLI, the parallel grid runner,
  and the benchmarks.

Layering: this package may import :mod:`repro.core` (and, lazily, the
guard/resilience/telemetry services); :mod:`repro.core` only ever
imports it inside ``run``/``resume`` — ``tools/check_layering.py``
enforces the direction.
"""

from .checkpoint import CheckpointInterceptor, stream_id
from .context import RunContext
from .core import StreamEngine, default_stack, resume_stream, run_stream
from .interceptors import (
    ChunkScheduler,
    GuardInterceptor,
    Interceptor,
    TelemetryInterceptor,
)
from .registry import (
    DATASET_FACTORIES,
    DETECTORS,
    PIPELINE_BUILDERS,
    register_dataset,
    register_detector,
    register_pipeline,
    resolve_dataset,
    resolve_detector,
    resolve_pipeline,
)
from .session import StreamSession, drive_group
from .spec import (
    Experiment,
    ExperimentSpec,
    build_experiment,
    build_pipeline,
    build_streams,
    canonical_json,
    restore_pipeline,
    spec_hash,
)

__all__ = [
    "RunContext",
    "Interceptor",
    "ChunkScheduler",
    "GuardInterceptor",
    "TelemetryInterceptor",
    "CheckpointInterceptor",
    "StreamEngine",
    "StreamSession",
    "drive_group",
    "default_stack",
    "run_stream",
    "resume_stream",
    "stream_id",
    "PIPELINE_BUILDERS",
    "DATASET_FACTORIES",
    "DETECTORS",
    "register_pipeline",
    "register_dataset",
    "register_detector",
    "resolve_pipeline",
    "resolve_dataset",
    "resolve_detector",
    "ExperimentSpec",
    "Experiment",
    "build_experiment",
    "build_pipeline",
    "build_streams",
    "restore_pipeline",
    "spec_hash",
    "canonical_json",
]
