"""The paper's contribution: sequential detection, reconstruction, pipelines."""

from .coords import CentroidSet
from .detector import DetectorStep, SequentialDriftDetector
from .factory import (
    build_baseline,
    build_hdddm_pipeline,
    build_model,
    build_onlad,
    build_proposed,
    build_quanttree_pipeline,
    build_spll_pipeline,
    pipeline_from_state,
)
from .multi_window import MultiWindowDetector, MultiWindowStep
from .pipeline import (
    BatchDetectorPipeline,
    ErrorRatePipeline,
    NoDetectionPipeline,
    ONLADPipeline,
    ProposedPipeline,
    StepRecord,
    StreamPipeline,
)
from .reconstruction import ModelReconstructor, ReconstructionStep
from .threshold import (
    calibrate_drift_threshold,
    calibrate_error_threshold,
    drift_threshold,
    training_distances,
)

__all__ = [
    "CentroidSet",
    "SequentialDriftDetector",
    "DetectorStep",
    "ModelReconstructor",
    "ReconstructionStep",
    "MultiWindowDetector",
    "MultiWindowStep",
    "StepRecord",
    "StreamPipeline",
    "ProposedPipeline",
    "NoDetectionPipeline",
    "ONLADPipeline",
    "BatchDetectorPipeline",
    "ErrorRatePipeline",
    "training_distances",
    "drift_threshold",
    "calibrate_drift_threshold",
    "calibrate_error_threshold",
    "build_model",
    "build_proposed",
    "build_baseline",
    "build_onlad",
    "build_quanttree_pipeline",
    "build_spll_pipeline",
    "build_hdddm_pipeline",
    "pipeline_from_state",
]
