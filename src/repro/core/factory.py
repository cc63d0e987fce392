"""Factories assembling the paper's five evaluated method configurations.

Section 4.2 fixes exactly how each method combination is built (shared
OS-ELM geometry, per-dataset detector hyper-parameters). These helpers
capture that wiring in one place so examples, tests, and benchmarks all
construct identical pipelines from an initial-training stream.

Every factory takes the initial-training data ``(X, y)`` — ground-truth or
k-means labels — trains the discriminative model's initial phase, derives
thresholds per §3.4, and returns a ready-to-stream pipeline.

Each family's wiring is one private *assembly* function over a source of
the learned pieces (model, centroids, thresholds, detector reference).
The ``build_*`` factories pass a source that learns them from ``(X, y)``;
:func:`pipeline_from_state` passes one that makes untrained pieces of a
checkpointed state's shapes, which ``set_state`` then fills — so a
restored pipeline is wired by the same code as a built one, without a
dataset or any training.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from ..detectors.base import BatchDriftDetector
from ..detectors.quanttree import QuantTree
from ..detectors.spll import SPLL
from ..oselm.ensemble import MultiInstanceModel
from ..utils.rng import SeedLike
from ..utils.validation import as_matrix, check_labels
from .coords import CentroidSet
from .detector import SequentialDriftDetector
from .pipeline import (
    BatchDetectorPipeline,
    NoDetectionPipeline,
    ONLADPipeline,
    ProposedPipeline,
    StreamPipeline,
)
from .reconstruction import ModelReconstructor
from .threshold import calibrate_drift_threshold, calibrate_error_threshold

__all__ = [
    "build_model",
    "build_proposed",
    "build_baseline",
    "build_onlad",
    "build_quanttree_pipeline",
    "build_spll_pipeline",
    "build_hdddm_pipeline",
    "pipeline_from_state",
]


def _prepare(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    X = as_matrix(X, name="X")
    y = check_labels(y, name="y")
    return X, y, int(y.max()) + 1


def build_model(
    X: np.ndarray,
    y: np.ndarray,
    *,
    n_hidden: int = 22,
    forgetting_factor: float | None = None,
    seed: SeedLike = None,
) -> MultiInstanceModel:
    """Initial-phase-trained multi-instance OS-ELM (paper geometry D-22-D)."""
    X, y, C = _prepare(X, y)
    model = MultiInstanceModel(
        X.shape[1], n_hidden, C, forgetting_factor=forgetting_factor, seed=seed
    )
    return model.fit_initial(X, y)


# --------------------------------------------------------------------------
# Sources of the learned pieces
# --------------------------------------------------------------------------


class _Fitted:
    """Learns each piece of a pipeline from the initial-training data."""

    def __init__(self, X: np.ndarray, y: np.ndarray) -> None:
        self.X, self.y, self.n_labels = _prepare(X, y)

    def model(self, n_hidden, forgetting_factor, seed) -> MultiInstanceModel:
        return build_model(
            self.X,
            self.y,
            n_hidden=n_hidden,
            forgetting_factor=forgetting_factor,
            seed=seed,
        )

    def centroids(self, max_count: Optional[int] = None) -> CentroidSet:
        return CentroidSet.from_labelled_data(
            self.X, self.y, self.n_labels, max_count=max_count
        )

    def thresholds(self, model, centroids, z: float, error_z: float) -> tuple:
        """``(θ_error, θ_drift)``: ``θ_drift`` per Eq. 1, ``θ_error`` as
        ``μ + error_z·σ`` over the training anomaly scores."""
        X, y = self.X, self.y
        theta_drift = calibrate_drift_threshold(X, y, centroids, z=z)
        train_scores = model.scores(X)[np.arange(len(X)), y]
        return calibrate_error_threshold(train_scores, z=error_z), theta_drift

    def fit_reference(self, detector: BatchDriftDetector) -> None:
        detector.fit_reference(self.X)


class _Blank:
    """Untrained pieces shaped like a checkpointed pipeline state.

    Every value they start with is a placeholder that ``set_state``
    overwrites; only the shapes (features, labels) come from the state.
    """

    def __init__(self, state: dict) -> None:
        instances = state["model"]["instances"]
        self.n_labels = len(instances)
        self.n_features = int(np.shape(instances[0]["core"]["weights"])[0])

    def model(self, n_hidden, forgetting_factor, seed) -> MultiInstanceModel:
        return MultiInstanceModel(
            self.n_features,
            n_hidden,
            self.n_labels,
            forgetting_factor=forgetting_factor,
            seed=seed,
        )

    def centroids(self, max_count: Optional[int] = None) -> CentroidSet:
        return CentroidSet(
            np.zeros((self.n_labels, self.n_features)),
            np.zeros(self.n_labels, dtype=np.int64),
            max_count=max_count,
        )

    def thresholds(self, model, centroids, z: float, error_z: float) -> tuple:
        return 0.0, 0.0

    def fit_reference(self, detector: BatchDriftDetector) -> None:
        pass


# --------------------------------------------------------------------------
# Family assemblies — the one place each method's wiring lives
# --------------------------------------------------------------------------


def _proposed(
    src,
    *,
    window_size: int = 100,
    n_hidden: int = 22,
    z: float = 1.0,
    error_z: float = 3.0,
    reconstruction_samples: int = 400,
    max_count: int | None = 500,
    seed: SeedLike = None,
) -> ProposedPipeline:
    model = src.model(n_hidden, None, seed)
    centroids = src.centroids(max_count)
    theta_error, theta_drift = src.thresholds(model, centroids, z, error_z)
    detector = SequentialDriftDetector(
        centroids,
        window_size=window_size,
        theta_error=theta_error,
        theta_drift=theta_drift,
    )
    reconstructor = ModelReconstructor(
        model, centroids, n_total=reconstruction_samples
    )
    return ProposedPipeline(model, detector, reconstructor)


def _baseline(src, *, n_hidden: int = 22, seed: SeedLike = None) -> NoDetectionPipeline:
    return NoDetectionPipeline(src.model(n_hidden, None, seed))


def _onlad(
    src,
    *,
    n_hidden: int = 22,
    forgetting_factor: float = 0.97,
    seed: SeedLike = None,
) -> ONLADPipeline:
    return ONLADPipeline(src.model(n_hidden, forgetting_factor, seed))


def _batch_pipeline(
    src,
    detector: BatchDriftDetector,
    *,
    n_hidden: int,
    reconstruction_samples: int,
    seed: SeedLike,
    name: str,
) -> BatchDetectorPipeline:
    model = src.model(n_hidden, None, seed)
    centroids = src.centroids()
    src.fit_reference(detector)
    reconstructor = ModelReconstructor(
        model, centroids, n_total=reconstruction_samples
    )
    return BatchDetectorPipeline(model, detector, reconstructor, name=name)


def _quanttree(
    src,
    *,
    batch_size: int = 480,
    n_bins: int = 32,
    n_hidden: int = 22,
    reconstruction_samples: int = 400,
    seed: SeedLike = None,
) -> BatchDetectorPipeline:
    return _batch_pipeline(
        src,
        QuantTree(batch_size, n_bins, seed=seed),
        n_hidden=n_hidden,
        reconstruction_samples=reconstruction_samples,
        seed=seed,
        name="quanttree",
    )


def _hdddm(
    src,
    *,
    batch_size: int = 480,
    n_bins: int | None = None,
    n_hidden: int = 22,
    reconstruction_samples: int = 400,
    seed: SeedLike = None,
) -> BatchDetectorPipeline:
    from ..detectors.hdddm import HDDDM

    return _batch_pipeline(
        src,
        HDDDM(batch_size, n_bins=n_bins),
        n_hidden=n_hidden,
        reconstruction_samples=reconstruction_samples,
        seed=seed,
        name="hdddm",
    )


def _spll(
    src,
    *,
    batch_size: int = 480,
    n_clusters: int = 3,
    n_hidden: int = 22,
    reconstruction_samples: int = 400,
    seed: SeedLike = None,
) -> BatchDetectorPipeline:
    return _batch_pipeline(
        src,
        SPLL(batch_size, n_clusters, seed=seed),
        n_hidden=n_hidden,
        reconstruction_samples=reconstruction_samples,
        seed=seed,
        name="spll",
    )


# --------------------------------------------------------------------------
# Public builders: learn the pieces from (X, y), then assemble
# --------------------------------------------------------------------------


def build_proposed(X: np.ndarray, y: np.ndarray, **kwargs) -> ProposedPipeline:
    """Method 1: proposed sequential detector + OS-ELM.

    Keyword arguments (defaults): ``window_size`` (100), ``n_hidden``
    (22), ``z`` (1.0), ``error_z`` (3.0), ``reconstruction_samples``
    (400), ``max_count`` (500), ``seed``. ``z`` is Eq. 1's multiplier
    (paper: 1). ``θ_error`` is calibrated as ``μ + error_z·σ`` over the
    training anomaly scores. ``max_count`` bounds the recent centroids'
    inertia (§3.2's recency weighting); ``None`` keeps the exact running
    mean.
    """
    return _proposed(_Fitted(X, y), **kwargs)


def build_baseline(X: np.ndarray, y: np.ndarray, **kwargs) -> NoDetectionPipeline:
    """Method 2: OS-ELM with no detection and no adaptation.

    Keyword arguments (defaults): ``n_hidden`` (22), ``seed``.
    """
    return _baseline(_Fitted(X, y), **kwargs)


def build_onlad(X: np.ndarray, y: np.ndarray, **kwargs) -> ONLADPipeline:
    """Method 5: ONLAD — forgetting OS-ELM retrained on every sample.

    Keyword arguments (defaults): ``n_hidden`` (22),
    ``forgetting_factor`` (0.97), ``seed``.
    """
    return _onlad(_Fitted(X, y), **kwargs)


def build_quanttree_pipeline(
    X: np.ndarray, y: np.ndarray, **kwargs
) -> BatchDetectorPipeline:
    """Method 3: Quant Tree + OS-ELM (paper: B=480/K=32 on NSL-KDD,
    B=235/K=16 on the cooling fan).

    Keyword arguments (defaults): ``batch_size`` (480), ``n_bins`` (32),
    ``n_hidden`` (22), ``reconstruction_samples`` (400), ``seed``.
    """
    return _quanttree(_Fitted(X, y), **kwargs)


def build_hdddm_pipeline(
    X: np.ndarray, y: np.ndarray, **kwargs
) -> BatchDetectorPipeline:
    """Extra batch baseline: HDDDM (Hellinger distance) + OS-ELM.

    Keyword arguments (defaults): ``batch_size`` (480), ``n_bins``
    (None: ⌊√N⌋ of the reference), ``n_hidden`` (22),
    ``reconstruction_samples`` (400), ``seed``.
    """
    return _hdddm(_Fitted(X, y), **kwargs)


def build_spll_pipeline(X: np.ndarray, y: np.ndarray, **kwargs) -> BatchDetectorPipeline:
    """Method 4: SPLL + OS-ELM (paper batch sizes 480 / 235).

    Keyword arguments (defaults): ``batch_size`` (480), ``n_clusters``
    (3), ``n_hidden`` (22), ``reconstruction_samples`` (400), ``seed``.
    """
    return _spll(_Fitted(X, y), **kwargs)


#: family builder -> its assembly
_ASSEMBLIES: dict = {
    build_proposed: _proposed,
    build_baseline: _baseline,
    build_onlad: _onlad,
    build_quanttree_pipeline: _quanttree,
    build_hdddm_pipeline: _hdddm,
    build_spll_pipeline: _spll,
}


def pipeline_from_state(
    builder: Callable, state: dict, **kwargs
) -> Optional[StreamPipeline]:
    """Restore a pipeline from its checkpointed ``get_state()`` alone.

    ``builder`` is one of this module's ``build_*`` factories and
    ``kwargs`` the keyword arguments the original was built with
    (hyper-parameters and ``seed``). The pipeline is wired by the same
    assembly the builder runs, from untrained pieces with ``state``'s
    shapes, and ``set_state(state)`` fills it — no dataset, no training.
    Returns ``None`` for any other builder: it has no assembly to reuse.
    """
    assemble = _ASSEMBLIES.get(builder)
    if assemble is None:
        return None
    pipeline = assemble(_Blank(state), **kwargs)
    pipeline.set_state(state)
    return pipeline
