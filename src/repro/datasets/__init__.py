"""Streams, drift generators, and the paper's two (synthesised) datasets."""

from .benchmarks import (
    make_hyperplane_stream,
    make_rbf_drift_stream,
    make_sea_stream,
)
from .fleet import DevicePlan, ReplayPace, interleave_schedule, plan_fleet
from .coolingfan import (
    N_BINS,
    FanSpectrumModel,
    fan_condition,
    make_cooling_fan_like,
    make_fan_samples,
)
from .nslkdd import NSLKDDConfig, make_nslkdd_like, nslkdd_default_config
from .preprocessing import MinMaxScaler, StandardScaler
from .stream import DataStream, concatenate_streams
from .synthetic import (
    GaussianConcept,
    make_gradual_drift_stream,
    make_incremental_drift_stream,
    make_reoccurring_drift_stream,
    make_stationary_stream,
    make_sudden_drift_stream,
)

__all__ = [
    "DataStream",
    "concatenate_streams",
    "GaussianConcept",
    "make_stationary_stream",
    "make_sudden_drift_stream",
    "make_gradual_drift_stream",
    "make_incremental_drift_stream",
    "make_reoccurring_drift_stream",
    "NSLKDDConfig",
    "nslkdd_default_config",
    "make_nslkdd_like",
    "N_BINS",
    "FanSpectrumModel",
    "fan_condition",
    "make_fan_samples",
    "make_cooling_fan_like",
    "MinMaxScaler",
    "StandardScaler",
    "make_sea_stream",
    "make_hyperplane_stream",
    "make_rbf_drift_stream",
    "DevicePlan",
    "ReplayPace",
    "plan_fleet",
    "interleave_schedule",
]
