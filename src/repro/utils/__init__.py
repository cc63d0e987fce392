"""Shared substrate: exceptions, RNG plumbing, validation, math helpers."""

from .exceptions import (
    ConfigurationError,
    DataValidationError,
    NotFittedError,
    ReproError,
)
from .math import (
    RunningMoments,
    pairwise_l1_dists,
    pairwise_sq_dists,
    sigmoid,
)
from .hooks import default_telemetry
from .rng import SeedLike, ensure_rng, spawn_rngs
from .validation import (
    as_matrix,
    as_vector,
    check_consistent_length,
    check_in_range,
    check_labels,
    check_positive,
    check_probability,
    validate_checkpoint_config,
)

__all__ = [
    "ReproError",
    "NotFittedError",
    "ConfigurationError",
    "DataValidationError",
    "RunningMoments",
    "pairwise_l1_dists",
    "pairwise_sq_dists",
    "sigmoid",
    "SeedLike",
    "ensure_rng",
    "spawn_rngs",
    "as_matrix",
    "as_vector",
    "check_consistent_length",
    "check_in_range",
    "check_labels",
    "check_positive",
    "check_probability",
    "validate_checkpoint_config",
    "default_telemetry",
]
