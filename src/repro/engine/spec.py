"""Declarative experiments: a JSON-round-trippable spec and its builder.

An :class:`ExperimentSpec` is the single declarative description of one
evaluation cell — pipeline + params + dataset + seeds + engine options —
consumed by the CLI (``python -m repro spec file.json``), the
:class:`~repro.metrics.parallel.ParallelRunner` (whose cache keys are
:meth:`ExperimentSpec.config_hash`), and the table benchmarks. Building
the same spec twice yields byte-identical runs: every RNG derives from
the spec's seeds.

Seeds: ``seed`` drives the dataset synthesis (unless ``dataset_kwargs``
pins its own ``seed``) *and* the model unless ``model_seed`` overrides
the latter — the CLI's ``--model-seed`` maps straight onto that field.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, List, Mapping, Optional

from ..utils.exceptions import ConfigurationError
from .registry import resolve_dataset, resolve_pipeline

__all__ = [
    "ExperimentSpec",
    "Experiment",
    "build_experiment",
    "spec_hash",
    "canonical_json",
]

#: Bump when the canonical spec layout changes; cache keys change with it.
SPEC_VERSION = 2

_FIELDS = (
    "name",
    "pipeline",
    "dataset",
    "seed",
    "model_seed",
    "pipeline_kwargs",
    "dataset_kwargs",
    "n_test",
    "chunk_size",
    "guard_policy",
)


def canonical_json(canonical: Mapping[str, Any]) -> dict:
    """A canonical spec dict after one JSON round trip.

    Tuples become lists and numpy scalars become builtins — exactly the
    form a spec takes when read back from a cache file, so comparisons
    and hashes built on this never see container-type noise.
    """
    return json.loads(json.dumps(canonical, default=_json_fallback))


def spec_hash(canonical: Mapping[str, Any]) -> str:
    """Cache key for a canonical spec dict — the *single* hash used by
    :meth:`ExperimentSpec.config_hash` and every cache path derivation,
    so a spec and its stored result can never hash differently.
    """
    blob = json.dumps(canonical_json(canonical), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _json_fallback(value: Any) -> Any:
    item = getattr(value, "item", None)  # numpy scalars
    if callable(item):
        return item()
    raise TypeError(f"unsupported type in spec: {type(value).__name__}")


@dataclass(frozen=True)
class ExperimentSpec:
    """One fully declarative experiment (method × dataset × seeds).

    Parameters
    ----------
    name:
        Display name (table row label). Not part of the cache key.
    pipeline:
        Key into the pipeline registry (see
        :data:`~repro.engine.registry.PIPELINE_BUILDERS`) or a
        ``"module:callable"`` path to a builder with the factory
        signature ``(X, y, *, seed=None, **kwargs)``.
    dataset:
        Key into the dataset registry or a ``"module:callable"`` path
        returning a ``(train, test)`` stream pair.
    seed:
        Experiment seed: forwarded to the dataset factory (unless
        ``dataset_kwargs`` pins its own ``seed``) and — when
        ``model_seed`` is ``None`` — to the pipeline builder.
    model_seed:
        Overrides the builder seed only (the paper tables fix the model
        seed while sweeping dataset seeds).
    pipeline_kwargs, dataset_kwargs:
        Extra keyword arguments for builder / factory (JSON-serializable).
    n_test:
        Truncate the test stream to its first ``n_test`` samples.
    chunk_size:
        Forwarded to :meth:`StreamPipeline.run` (None = default fast path).
    guard_policy:
        When set, attach a :class:`repro.guard.RuntimeGuard` with this
        input-fault policy (bounds learned from the training split).
    """

    name: str
    pipeline: str
    dataset: str
    seed: int = 0
    model_seed: Optional[int] = None
    pipeline_kwargs: Mapping[str, Any] = field(default_factory=dict)
    dataset_kwargs: Mapping[str, Any] = field(default_factory=dict)
    n_test: Optional[int] = None
    chunk_size: Optional[int] = None
    guard_policy: Optional[str] = None

    # -- identity ------------------------------------------------------------

    @property
    def effective_model_seed(self) -> int:
        """The seed the pipeline builder actually receives."""
        return int(self.seed if self.model_seed is None else self.model_seed)

    def canonical(self) -> dict:
        """Order-independent dict of everything that affects the result."""
        return {
            "version": SPEC_VERSION,
            "pipeline": self.pipeline,
            "dataset": self.dataset,
            "seed": int(self.seed),
            "model_seed": None if self.model_seed is None else int(self.model_seed),
            "pipeline_kwargs": dict(sorted(self.pipeline_kwargs.items())),
            "dataset_kwargs": dict(sorted(self.dataset_kwargs.items())),
            "n_test": self.n_test,
            "chunk_size": self.chunk_size,
            "guard_policy": self.guard_policy,
        }

    def config_hash(self) -> str:
        """Stable hash of :meth:`canonical` — the grid-runner cache key."""
        return spec_hash(self.canonical())

    def replace(self, **changes) -> "ExperimentSpec":
        """A copy with ``changes`` applied (specs are immutable)."""
        return dataclasses.replace(self, **changes)

    # -- JSON ----------------------------------------------------------------

    def to_json(self) -> dict:
        """Lossless JSON-serializable form (see :meth:`from_json`)."""
        return {
            "name": self.name,
            "pipeline": self.pipeline,
            "dataset": self.dataset,
            "seed": int(self.seed),
            "model_seed": self.model_seed,
            "pipeline_kwargs": dict(self.pipeline_kwargs),
            "dataset_kwargs": dict(self.dataset_kwargs),
            "n_test": self.n_test,
            "chunk_size": self.chunk_size,
            "guard_policy": self.guard_policy,
        }

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "ExperimentSpec":
        """Rebuild a spec from :meth:`to_json` output (or hand-written JSON).

        Unknown keys are rejected with the list of valid ones, so a typo
        in a spec file fails loudly instead of silently dropping an option.
        """
        unknown = sorted(set(data) - set(_FIELDS))
        if unknown:
            raise ConfigurationError(
                f"unknown ExperimentSpec field(s) {unknown}; "
                f"valid fields: {sorted(_FIELDS)}."
            )
        missing = [k for k in ("name", "pipeline", "dataset") if k not in data]
        if missing:
            raise ConfigurationError(
                f"ExperimentSpec is missing required field(s) {missing}."
            )
        return cls(**dict(data))


@dataclass
class Experiment:
    """A built (ready-to-run) experiment: streams, pipeline, optional guard."""

    spec: ExperimentSpec
    train: Any
    test: Any
    pipeline: Any
    guard: Any = None

    def run(self, **run_kwargs) -> List[Any]:
        """Run the pipeline over the test stream with the spec's chunking."""
        run_kwargs.setdefault("chunk_size", self.spec.chunk_size)
        return self.pipeline.run(self.test, **run_kwargs)


def build_experiment(spec: ExperimentSpec) -> Experiment:
    """Materialise ``spec``: synthesise streams, build + train the pipeline.

    Deterministic in the spec alone — building the same spec twice gives
    two independent experiments whose runs produce byte-identical record
    streams (the registry/spec tests pin this).
    """
    factory = resolve_dataset(spec.dataset)
    dataset_kwargs = dict(spec.dataset_kwargs)
    dataset_kwargs.setdefault("seed", int(spec.seed))
    train, test = factory(**dataset_kwargs)
    if spec.n_test is not None:
        test = test.take(int(spec.n_test))
    builder = resolve_pipeline(spec.pipeline)
    pipeline = builder(
        train.X,
        train.y,
        seed=spec.effective_model_seed,
        **dict(spec.pipeline_kwargs),
    )
    guard = None
    if spec.guard_policy is not None:
        from ..guard import RuntimeGuard

        guard = RuntimeGuard.from_init_data(train.X, policy=spec.guard_policy)
        pipeline.attach_guard(guard)
    return Experiment(spec=spec, train=train, test=test, pipeline=pipeline, guard=guard)
