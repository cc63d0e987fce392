"""repro — reproduction of Yamada & Matsutani (2023): *A Lightweight
Concept Drift Detection Method for On-Device Learning on Resource-Limited
Edge Devices*.

The package is layered (see DESIGN.md):

* :mod:`repro.core` — the proposed sequential detector (Algorithms 1-4),
  model reconstruction, and the five evaluated pipelines;
* :mod:`repro.oselm` — OS-ELM / forgetting-OS-ELM autoencoder substrate;
* :mod:`repro.detectors` — Quant Tree, SPLL, DDM, ADWIN, Page-Hinkley;
* :mod:`repro.clustering` — k-means with k-means++ seeding;
* :mod:`repro.datasets` — drift streams and the two (synthesised) paper
  datasets;
* :mod:`repro.device` — Raspberry Pi 4 / Pico memory & latency models;
* :mod:`repro.metrics` — prequential accuracy, delay, experiment runner;
* :mod:`repro.guard` — self-healing runtime: input sanitation,
  numeric-health sentinels, and a degradation ladder;
* :mod:`repro.resilience` — crash-safe checkpointing and fault injection;
* :mod:`repro.engine` — composable streaming engine (interceptor stack)
  plus the declarative registries and :class:`~repro.engine.ExperimentSpec`.

Quickstart::

    from repro.datasets import make_nslkdd_like
    from repro.core import build_proposed
    from repro.metrics import evaluate_method

    train, test = make_nslkdd_like(seed=0)
    pipeline = build_proposed(train.X, train.y, window_size=100, seed=1)
    result = evaluate_method(pipeline, test)
    print(result.accuracy, result.first_delay)
"""

from . import (
    clustering,
    core,
    datasets,
    detectors,
    device,
    engine,
    guard,
    metrics,
    oselm,
    resilience,
    telemetry,
    utils,
)
from .core import (
    CentroidSet,
    ModelReconstructor,
    MultiWindowDetector,
    ProposedPipeline,
    SequentialDriftDetector,
    build_baseline,
    build_model,
    build_onlad,
    build_proposed,
    build_quanttree_pipeline,
    build_spll_pipeline,
)
from .datasets import DataStream, make_cooling_fan_like, make_nslkdd_like
from .detectors import ADWIN, DDM, SPLL, NoDetection, PageHinkley, QuantTree
from .engine import (
    ExperimentSpec,
    build_experiment,
    register_dataset,
    register_detector,
    register_pipeline,
)
from .guard import GuardLevel, InputSanitizer, NumericHealthSentinel, RuntimeGuard
from .device import RASPBERRY_PI_4, RASPBERRY_PI_PICO, DeviceProfile
from .metrics import MethodResult, compare_methods, evaluate_method
from .oselm import OSELM, ForgettingOSELM, MultiInstanceModel, OSELMAutoencoder
from .resilience import Checkpoint, load_checkpoint, save_checkpoint
from .telemetry import Telemetry, get_telemetry
from .telemetry import configure as configure_telemetry

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "utils",
    "datasets",
    "clustering",
    "oselm",
    "detectors",
    "core",
    "device",
    "engine",
    "guard",
    "metrics",
    "resilience",
    "telemetry",
    "ExperimentSpec",
    "build_experiment",
    "register_pipeline",
    "register_dataset",
    "register_detector",
    "RuntimeGuard",
    "InputSanitizer",
    "NumericHealthSentinel",
    "GuardLevel",
    "Checkpoint",
    "save_checkpoint",
    "load_checkpoint",
    "Telemetry",
    "get_telemetry",
    "configure_telemetry",
    "CentroidSet",
    "SequentialDriftDetector",
    "ModelReconstructor",
    "MultiWindowDetector",
    "ProposedPipeline",
    "build_model",
    "build_proposed",
    "build_baseline",
    "build_onlad",
    "build_quanttree_pipeline",
    "build_spll_pipeline",
    "DataStream",
    "make_nslkdd_like",
    "make_cooling_fan_like",
    "QuantTree",
    "SPLL",
    "DDM",
    "ADWIN",
    "PageHinkley",
    "NoDetection",
    "DeviceProfile",
    "RASPBERRY_PI_4",
    "RASPBERRY_PI_PICO",
    "MethodResult",
    "evaluate_method",
    "compare_methods",
    "OSELM",
    "ForgettingOSELM",
    "OSELMAutoencoder",
    "MultiInstanceModel",
]
