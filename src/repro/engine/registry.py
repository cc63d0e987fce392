"""String-keyed registries for pipelines, datasets, and detectors.

The declarative layer's name space: an :class:`~repro.engine.spec.ExperimentSpec`
names its pipeline builder and dataset factory by key, and
workers/CLI/benchmarks resolve the key here. Registration is either a
decorator::

    from repro.engine import register_pipeline

    @register_pipeline("my-method")
    def build_my_method(X, y, *, seed=None, **kwargs):
        ...

or a direct call (``register_pipeline("proposed", build_proposed)``).
Any key not found in a registry falls back to a ``"module:callable"``
import path, so one-off builders never *have* to be registered.

The registries are plain module-level dicts on purpose: tests monkeypatch
entries in place, and worker processes re-import this module and get the
same built-in population.

Contracts:

* **pipeline builders** — ``(X, y, *, seed=None, **kwargs) -> StreamPipeline``,
  trained on the initial data and ready to stream;
* **dataset factories** — ``(**kwargs) -> (train, test)`` pair of
  :class:`~repro.datasets.stream.DataStream`. A factory may also carry a
  ``train_stream`` attribute, ``(**kwargs) -> train``, that draws the
  same training stream alone (the built-in ones do); without it a
  training-only build makes both streams and drops the test one;
* **detectors** — the detector class itself (constructor kwargs are the
  caller's business); registered so specs and ablation tooling can name
  detector families declaratively.
"""

from __future__ import annotations

import functools
import importlib
from typing import Any, Callable, Dict, Iterator, Mapping, Optional, Tuple

import numpy as np

from ..core import factory
from ..utils.exceptions import ConfigurationError

__all__ = [
    "PIPELINE_BUILDERS",
    "DATASET_FACTORIES",
    "DETECTORS",
    "register_pipeline",
    "register_dataset",
    "register_detector",
    "resolve_pipeline",
    "resolve_dataset",
    "resolve_detector",
]

#: name → pipeline builder ``(X, y, *, seed=None, **kwargs) -> StreamPipeline``
PIPELINE_BUILDERS: Dict[str, Callable[..., Any]] = {}

#: name → dataset factory ``(**kwargs) -> (train, test)`` stream pair
DATASET_FACTORIES: Dict[str, Callable[..., Tuple[Any, Any]]] = {}

#: name → drift-detector class
DETECTORS: Dict[str, Any] = {}


def _register(
    registry: Dict[str, Any], kind: str, name: str, obj: Optional[Any], overwrite: bool
):
    def add(target):
        if not overwrite and name in registry and registry[name] is not target:
            raise ConfigurationError(
                f"{kind} {name!r} is already registered; pass overwrite=True "
                "to replace it."
            )
        registry[name] = target
        return target

    return add if obj is None else add(obj)


def register_pipeline(name: str, builder: Optional[Callable] = None, *, overwrite: bool = False):
    """Register (or decorate) a pipeline builder under ``name``."""
    return _register(PIPELINE_BUILDERS, "pipeline builder", name, builder, overwrite)


def register_dataset(name: str, factory_fn: Optional[Callable] = None, *, overwrite: bool = False):
    """Register (or decorate) a ``(train, test)`` dataset factory under ``name``."""
    return _register(DATASET_FACTORIES, "dataset factory", name, factory_fn, overwrite)


def register_detector(name: str, detector: Optional[Any] = None, *, overwrite: bool = False):
    """Register (or decorate) a drift-detector class under ``name``."""
    return _register(DETECTORS, "detector", name, detector, overwrite)


def _resolve(registry: Mapping[str, Any], key: str, kind: str):
    """Look up ``key`` in ``registry`` or import a ``module:attr`` path."""
    if key in registry:
        return registry[key]
    if ":" in key:
        mod, attr = key.split(":", 1)
        return getattr(importlib.import_module(mod), attr)
    raise ConfigurationError(
        f"unknown {kind} {key!r}; registered: {sorted(registry)} "
        f"(or use a 'module:callable' path)."
    )


def resolve_pipeline(key: str) -> Callable:
    """Builder for ``key`` — registered name or ``"module:callable"`` path."""
    return _resolve(PIPELINE_BUILDERS, key, "method builder")


def resolve_dataset(key: str) -> Callable:
    """Dataset factory for ``key`` — registered name or import path."""
    return _resolve(DATASET_FACTORIES, key, "stream factory")


def resolve_detector(key: str):
    """Detector class for ``key`` — registered name or import path."""
    return _resolve(DETECTORS, key, "detector")


# --------------------------------------------------------------------------
# Built-in population — the paper's methods, datasets, and detector families
# --------------------------------------------------------------------------

register_pipeline("proposed", factory.build_proposed)
register_pipeline("baseline", factory.build_baseline)
register_pipeline("onlad", factory.build_onlad)
register_pipeline("quanttree", factory.build_quanttree_pipeline)
register_pipeline("spll", factory.build_spll_pipeline)
register_pipeline("hdddm", factory.build_hdddm_pipeline)


def _train_first(streams: Callable[..., Iterator[Any]]) -> Callable[..., Tuple[Any, Any]]:
    """A ``(train, test)`` factory over ``streams``, a generator function
    that yields the training stream and then the test stream.

    The factory's ``train_stream`` attribute takes only the first yield,
    so :func:`~repro.engine.spec.build_pipeline` gets the same training
    rows without drawing the test stream.
    """

    @functools.wraps(streams)
    def factory(**kwargs):
        train, test = streams(**kwargs)
        return train, test

    factory.train_stream = lambda **kwargs: next(streams(**kwargs))
    return factory


def _nslkdd_streams(**kwargs):
    from ..datasets.nslkdd import NSLKDDConfig, iter_nslkdd_like

    config_kwargs = {
        k: kwargs.pop(k)
        for k in list(kwargs)
        if k in {f.name for f in NSLKDDConfig.__dataclass_fields__.values()}
    }
    config = NSLKDDConfig(**config_kwargs) if config_kwargs else None
    return iter_nslkdd_like(config, **kwargs)


def _cooling_fan_streams(**kwargs):
    from ..datasets.coolingfan import iter_cooling_fan_like

    scenario = kwargs.pop("scenario", "sudden")
    return iter_cooling_fan_like(scenario, **kwargs)


def _blobs_streams(
    *,
    n_features: int = 6,
    n_train: int = 240,
    n_test: int = 1200,
    drift_at: int = 400,
    shift: float = 0.45,
    seed: int = 0,
):
    """Small two-blob sudden-drift pair — fast cells for tests/examples."""
    from ..datasets import (
        GaussianConcept,
        make_stationary_stream,
        make_sudden_drift_stream,
    )

    rng = np.random.default_rng(seed)
    means = rng.uniform(0.1, 0.9, size=(2, n_features))
    means[1] = 1.0 - means[0]
    old = GaussianConcept(means, 0.05)
    yield make_stationary_stream(old, n_train, seed=seed, name="train")
    moved = means.copy()
    moved[0] = moved[0] + shift * (moved[1] - moved[0])
    new = GaussianConcept(moved, 0.08)
    yield make_sudden_drift_stream(
        old, new, n_samples=n_test, drift_at=drift_at, seed=seed + 1, name="blobs"
    )


register_dataset("nslkdd", _train_first(_nslkdd_streams))
register_dataset("coolingfan", _train_first(_cooling_fan_streams))
register_dataset("blobs", _train_first(_blobs_streams))


def _register_builtin_detectors() -> None:
    from ..core.detector import SequentialDriftDetector
    from ..detectors import ADWIN, DDM, SPLL, NoDetection, PageHinkley, QuantTree
    from ..detectors.hdddm import HDDDM

    register_detector("sequential", SequentialDriftDetector)
    register_detector("quanttree", QuantTree)
    register_detector("spll", SPLL)
    register_detector("hdddm", HDDDM)
    register_detector("ddm", DDM)
    register_detector("adwin", ADWIN)
    register_detector("page_hinkley", PageHinkley)
    register_detector("none", NoDetection)


_register_builtin_detectors()
