"""Edge-device simulation: cost profiles, op counting, memory & latency models."""

from .memory import (
    FLOAT_BYTES,
    MemoryReport,
    discriminative_model_memory,
    fits_on,
    proposed_memory,
    quanttree_memory,
    spll_memory,
)
from .opcount import EXP_FLOPS, OpCount, StageCostModel
from .energy import PI4_POWER, PICO_POWER, PowerProfile, battery_life_hours, energy_per_sample_mj
from .profiles import RASPBERRY_PI_4, RASPBERRY_PI_PICO, DeviceProfile
from .tracer import AllocationReport, measure_allocations
from .timing import (
    PhaseTally,
    estimate_stream_seconds,
    quanttree_batch_ops,
    spll_batch_ops,
    stage_latency_table,
)

__all__ = [
    "DeviceProfile",
    "RASPBERRY_PI_4",
    "RASPBERRY_PI_PICO",
    "OpCount",
    "StageCostModel",
    "EXP_FLOPS",
    "MemoryReport",
    "FLOAT_BYTES",
    "quanttree_memory",
    "spll_memory",
    "proposed_memory",
    "discriminative_model_memory",
    "fits_on",
    "PhaseTally",
    "estimate_stream_seconds",
    "stage_latency_table",
    "quanttree_batch_ops",
    "spll_batch_ops",
    "PowerProfile",
    "PI4_POWER",
    "PICO_POWER",
    "energy_per_sample_mj",
    "battery_life_hours",
    "AllocationReport",
    "measure_allocations",
]
