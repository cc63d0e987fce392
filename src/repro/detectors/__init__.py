"""Baseline concept-drift detectors (batch and error-rate families)."""

from .adwin import ADWIN
from .base import BatchDriftDetector, DriftState, ErrorRateDriftDetector
from .ddm import DDM
from .eddm import EDDM
from .ensemble import VotingDetectorEnsemble
from .hdddm import HDDDM, hellinger_distance
from .kswin import KSWIN, ks_two_sample
from .none import NoDetection
from .page_hinkley import PageHinkley
from .quanttree import (
    QuantTree,
    QuantTreePartition,
    pearson_statistic,
    quanttree_threshold,
)
from .spll import SPLL, spll_statistic

__all__ = [
    "DriftState",
    "BatchDriftDetector",
    "ErrorRateDriftDetector",
    "QuantTree",
    "QuantTreePartition",
    "pearson_statistic",
    "quanttree_threshold",
    "SPLL",
    "spll_statistic",
    "DDM",
    "EDDM",
    "ADWIN",
    "PageHinkley",
    "KSWIN",
    "ks_two_sample",
    "VotingDetectorEnsemble",
    "HDDDM",
    "hellinger_distance",
    "NoDetection",
]
