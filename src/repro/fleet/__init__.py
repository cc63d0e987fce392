"""repro.fleet — multi-tenant session hosting for device fleets.

Multiplexes thousands of independent device pipelines through one
process (or a shard pool of them) on top of the engine's
:class:`~repro.engine.session.StreamSession`:

* :class:`FleetManager` — per-device sessions behind an LRU: resident
  memory is bounded by ``capacity``; cold sessions spill to
  :mod:`repro.resilience` checkpoints and restore lazily,
  byte-identically.
* :class:`ShardPool` — the package's one process pool: long-lived
  workers with a submit/collect protocol, per-request deadlines and
  terminate -> kill -> respawn of a hung or dead worker.
  :class:`~repro.metrics.parallel.ParallelRunner` runs experiment-grid
  cells on it too.
* :class:`ShardedFleetManager` — the same fleet partitioned over
  long-lived :class:`ShardPool` workers.
* :func:`run_fleet_soak` — the seeded N-device churn harness that
  doubles as the fleet benchmark (``benchmarks/bench_fleet.py``).

See ``docs/fleet.md``.
"""

from .batching import BatchGroup, BatchPlanner, model_signature
from .chaos import ChaosController, ChaosEvent, make_chaos_schedule
from .manager import FleetManager, FleetStats
from .pool import (
    SHARD_RESTARTED,
    TELEMETRY_FLUSH,
    ShardDiedError,
    ShardError,
    ShardPool,
    ShardTimeoutError,
)
from .sharding import ShardedFleetManager, shard_of
from .soak import SoakReport, make_fleet_specs, run_fleet_soak, verify_device
from .supervisor import FleetSupervisor, JournalEntry, SupervisorConfig

__all__ = [
    "BatchGroup",
    "BatchPlanner",
    "model_signature",
    "ChaosController",
    "ChaosEvent",
    "make_chaos_schedule",
    "FleetManager",
    "FleetStats",
    "SHARD_RESTARTED",
    "TELEMETRY_FLUSH",
    "ShardDiedError",
    "ShardError",
    "ShardPool",
    "ShardTimeoutError",
    "FleetSupervisor",
    "JournalEntry",
    "SupervisorConfig",
    "ShardedFleetManager",
    "shard_of",
    "SoakReport",
    "make_fleet_specs",
    "run_fleet_soak",
    "verify_device",
]
