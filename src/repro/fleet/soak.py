"""Seeded fleet soak: N devices, correlated drift, adversarial LRU churn.

The soak is the fleet's end-to-end proof *and* its first benchmark. It
plans a fleet (:func:`repro.datasets.fleet.plan_fleet`), registers every
device with a :class:`~repro.fleet.manager.FleetManager` whose capacity
is far below the device count, and replays the devices' test streams in
a seeded interleave so sessions constantly evict and restore. When
``verify`` is on, every device's record list is compared byte-for-byte
against a standalone :func:`~repro.engine.spec.build_experiment` run of
the same spec — the multiplexed fleet must be indistinguishable from
each device running alone.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from ..datasets.fleet import interleave_schedule, plan_fleet
from ..engine.spec import ExperimentSpec, build_experiment, build_streams
from ..utils.exceptions import (
    ConfigurationError,
    DeviceQuarantinedError,
    FleetOverloadError,
)
from .chaos import ChaosController, ChaosEvent, make_chaos_schedule
from .manager import FleetManager
from .sharding import ShardedFleetManager
from .supervisor import SupervisorConfig

__all__ = ["SoakReport", "make_fleet_specs", "run_fleet_soak", "verify_device"]


def make_fleet_specs(
    n_devices: int,
    *,
    seed: int = 0,
    drift_fraction: float = 0.25,
    n_test: int = 600,
    drift_at: Optional[int] = None,
    shift: float = 0.45,
    pipeline: str = "proposed",
    model_seed: int = 7,
    chunk_size: Optional[int] = None,
    guard_policy: Optional[str] = None,
) -> Dict[str, ExperimentSpec]:
    """One ``blobs`` :class:`ExperimentSpec` per planned device.

    Stationary devices get ``shift=0.0`` (their "drift" moves nothing);
    drifting devices share ``drift_at`` — the correlated fleet-wide
    event. All devices share ``model_seed`` (one firmware image) while
    ``seed`` varies per device (independent sensor noise).
    """
    if drift_at is None:
        drift_at = (2 * int(n_test)) // 3
    plans = plan_fleet(
        n_devices,
        seed=seed,
        drift_fraction=drift_fraction,
        drift_at=drift_at,
        shift=shift,
    )
    specs = {}
    for plan in plans:
        specs[plan.device_id] = ExperimentSpec(
            name=plan.device_id,
            pipeline=pipeline,
            dataset="blobs",
            seed=plan.seed,
            model_seed=model_seed,
            dataset_kwargs={
                "n_test": int(n_test),
                "drift_at": int(plan.drift_at if plan.drift_at is not None else drift_at),
                "shift": float(plan.shift),
            },
            chunk_size=chunk_size,
            guard_policy=guard_policy,
        )
    return specs


def verify_device(spec: ExperimentSpec, records: list) -> bool:
    """Byte-identity check: fleet records vs a standalone run of ``spec``."""
    exp = build_experiment(spec)
    solo = exp.run()
    if len(solo) != len(records):
        return False
    for a, b in zip(solo, records):
        if a != b:
            return False
    scores = np.array([r.anomaly_score for r in records], dtype=np.float64)
    solo_scores = np.array([r.anomaly_score for r in solo], dtype=np.float64)
    return scores.tobytes() == solo_scores.tobytes()


@dataclass
class SoakReport:
    """What one soak run produced (the fleet bench serialises this)."""

    devices: int
    capacity: int
    samples: int
    chunks: int
    elapsed_seconds: float
    sessions_per_sec: float
    samples_per_sec: float
    evictions: int
    restores: int
    max_resident: int
    evict_seconds: float
    restore_seconds: float
    drifts: int = 0
    shards: Optional[int] = None
    batch_scoring: bool = False
    batch_groups: int = 0
    batched_samples: int = 0
    fallback_samples: int = 0
    verified: Optional[int] = None
    mismatches: Optional[List[str]] = None
    supervised: bool = False
    respawns: int = 0
    replayed_samples: int = 0
    failed_recoveries: int = 0
    rejected_submits: int = 0
    recovery_seconds: float = 0.0
    supervisor_level: int = 0
    quarantined: Optional[List[str]] = None
    chaos_events: Optional[List[dict]] = None
    skipped_chunks: int = 0

    @property
    def byte_identical(self) -> Optional[bool]:
        if self.mismatches is None:
            return None
        return not self.mismatches

    def to_json(self) -> dict:
        out = {
            "devices": self.devices,
            "capacity": self.capacity,
            "samples": self.samples,
            "chunks": self.chunks,
            "elapsed_seconds": self.elapsed_seconds,
            "sessions_per_sec": self.sessions_per_sec,
            "samples_per_sec": self.samples_per_sec,
            "evictions": self.evictions,
            "restores": self.restores,
            "max_resident": self.max_resident,
            "evict_seconds": self.evict_seconds,
            "restore_seconds": self.restore_seconds,
            "drifts": self.drifts,
            "shards": self.shards,
            "batch_scoring": self.batch_scoring,
            "batch_groups": self.batch_groups,
            "batched_samples": self.batched_samples,
            "fallback_samples": self.fallback_samples,
            "restore_ms_mean": (
                1000.0 * self.restore_seconds / self.restores if self.restores else 0.0
            ),
        }
        if self.mismatches is not None:
            out["verified_devices"] = self.verified
            out["byte_identical"] = self.byte_identical
            out["mismatches"] = list(self.mismatches)
        if self.supervised:
            out["supervised"] = True
            out["respawns"] = self.respawns
            out["replayed_samples"] = self.replayed_samples
            out["failed_recoveries"] = self.failed_recoveries
            out["rejected_submits"] = self.rejected_submits
            out["recovery_seconds"] = self.recovery_seconds
            out["supervisor_level"] = self.supervisor_level
            out["quarantined"] = list(self.quarantined or [])
            out["skipped_chunks"] = self.skipped_chunks
        if self.chaos_events is not None:
            out["chaos_events"] = list(self.chaos_events)
        return out


def run_fleet_soak(
    n_devices: int = 1000,
    capacity: int = 64,
    *,
    spool_dir,
    seed: int = 0,
    n_test: int = 600,
    feed_chunk: int = 100,
    drift_fraction: float = 0.25,
    pipeline: str = "proposed",
    guard_policy: Optional[str] = None,
    n_shards: Optional[int] = None,
    batch_scoring: bool = False,
    supervise: Optional[SupervisorConfig] = None,
    chaos: Union[int, Sequence[ChaosEvent], None] = None,
    verify: int = 0,
    progress=None,
    manager_hook=None,
) -> SoakReport:
    """Drive the fleet through an interleaved replay; optionally verify.

    ``feed_chunk`` is the *arrival* granularity (how many samples land
    per submit), independent of the pipelines' internal chunking.
    ``n_shards`` partitions the fleet over a
    :class:`~repro.fleet.sharding.ShardedFleetManager` worker pool
    (``None`` = one in-process manager); per-shard capacity stays
    ``capacity``. ``batch_scoring`` buffers arrivals and feeds them via
    :meth:`~repro.fleet.manager.FleetManager.submit_many`, so
    same-signature sessions share stacked scoring GEMMs — records stay
    byte-identical, which is exactly what ``verify`` proves when both
    are on (the verification baseline is a *sequential* standalone run).
    ``verify`` re-runs the first ``verify`` devices
    standalone and byte-compares (0 = skip; it dominates runtime for
    large fleets). ``progress`` is an optional callable invoked with a
    status line. ``manager_hook`` is called once with the live manager
    before the replay starts (the CLI uses it to wire the ``/fleet``
    endpoint to the manager's stats).

    ``supervise`` (a :class:`~repro.fleet.supervisor.SupervisorConfig`,
    sharded fleets only) turns on self-healing: journaled feeds,
    deadline escalation, respawn + byte-identical replay, quarantine,
    and the load-shedding ladder. ``chaos`` (requires ``supervise``)
    injects scheduled faults — an int draws that many seeded
    kill/hang/corrupt events via
    :func:`~repro.fleet.chaos.make_chaos_schedule`, or pass explicit
    :class:`~repro.fleet.chaos.ChaosEvent`\\ s. Chunks rejected by
    quarantine or load shedding are dropped and counted in
    ``skipped_chunks``; quarantined devices are excluded from
    verification (their streams were cut short by design).
    """
    if supervise is not None and not (n_shards is not None and int(n_shards) > 0):
        raise ConfigurationError(
            "supervise= needs a sharded fleet (pass n_shards >= 1)."
        )
    if chaos is not None and supervise is None:
        raise ConfigurationError("chaos= requires supervise= (see repro.fleet.chaos).")
    specs = make_fleet_specs(
        n_devices,
        seed=seed,
        drift_fraction=drift_fraction,
        n_test=n_test,
        pipeline=pipeline,
        guard_policy=guard_policy,
    )
    device_ids = list(specs)
    # Pre-synthesise every device's test stream once: the soak measures
    # the manager's churn, not dataset synthesis. Nothing is trained
    # here; each device trains its own pipeline on first touch.
    streams = {dev: build_streams(spec)[1] for dev, spec in specs.items()}
    lengths = [len(streams[dev].X) for dev in device_ids]

    sharded = n_shards is not None and int(n_shards) > 0
    if sharded:
        fm = ShardedFleetManager(
            int(n_shards), capacity=capacity, spool_dir=spool_dir,
            batch_scoring=batch_scoring, supervisor=supervise,
        )
    else:
        fm = FleetManager(
            capacity=capacity, spool_dir=spool_dir, batch_scoring=batch_scoring
        )
    for dev, spec in specs.items():
        fm.add_device(dev, spec)
    if manager_hook is not None:
        manager_hook(fm)

    controller: Optional[ChaosController] = None
    if chaos is not None:
        if isinstance(chaos, int):
            n_chunks = sum(math.ceil(n / feed_chunk) for n in lengths)
            schedule = make_chaos_schedule(
                n_chunks, int(n_shards), seed=seed, n_events=chaos
            )
        else:
            schedule = tuple(chaos)
        controller = ChaosController(schedule, fm, spool_dir=spool_dir)

    # With batch scoring, arrivals are buffered and flushed through
    # submit_many so one flush spans a whole batching window (sharded
    # fleets split each flush across workers, so scale the buffer).
    flush_every = capacity * (int(n_shards) if sharded else 1)
    buffered: list = []

    def flush() -> None:
        if buffered:
            fm.submit_many(buffered)
            buffered.clear()

    t0 = time.perf_counter()
    done = 0
    skipped = 0
    for i, start, stop in interleave_schedule(lengths, feed_chunk, seed=seed):
        dev = device_ids[i]
        stream = streams[dev]
        if controller is not None:
            controller.maybe_inject(done)
        try:
            if batch_scoring:
                buffered.append((dev, stream.X[start:stop], stream.y[start:stop]))
                if len(buffered) >= flush_every:
                    flush()
            else:
                fm.submit(dev, stream.X[start:stop], stream.y[start:stop])
        except (DeviceQuarantinedError, FleetOverloadError):
            # Supervised fleets shed by design: the chunk is dropped and
            # counted, the soak keeps going.
            skipped += 1
        done += 1
        if sharded and done % 256 == 0:
            # Bound the per-shard reply backlog: an OS pipe buffer filled
            # with uncollected replies would wedge worker and parent.
            flush()
            fm.drain()
        if progress is not None and done % 500 == 0:
            if sharded:
                progress(f"  {done} chunks enqueued across {fm.n_shards} shards")
            else:
                progress(
                    f"  {done} chunks, {fm.stats.evictions} evictions, "
                    f"{fm.stats.restores} restores"
                )
    flush()
    per_device = fm.finish_all()
    elapsed = time.perf_counter() - t0
    stats = fm.aggregate_stats() if sharded else fm.stats
    supervisor = fm.supervisor if (sharded and supervise is not None) else None
    quarantined = sorted(supervisor.quarantined) if supervisor is not None else None
    fm.close()

    mismatches: Optional[List[str]] = None
    verified: Optional[int] = None
    if verify:
        mismatches = []
        benched = set(quarantined or ())
        targets = [d for d in device_ids if d not in benched][: int(verify)]
        for dev in targets:
            if not verify_device(specs[dev], per_device[dev]):
                mismatches.append(dev)
        verified = len(targets)

    if supervisor is not None:
        skipped += supervisor.dropped_feeds

    return SoakReport(
        devices=n_devices,
        capacity=capacity,
        samples=stats.samples,
        chunks=stats.chunks,
        elapsed_seconds=elapsed,
        sessions_per_sec=n_devices / elapsed if elapsed > 0 else 0.0,
        samples_per_sec=stats.samples / elapsed if elapsed > 0 else 0.0,
        evictions=stats.evictions,
        restores=stats.restores,
        max_resident=stats.max_resident,
        evict_seconds=stats.evict_seconds,
        restore_seconds=stats.restore_seconds,
        drifts=stats.drifts,
        shards=int(n_shards) if sharded else None,
        batch_scoring=bool(batch_scoring),
        batch_groups=stats.batch_groups,
        batched_samples=stats.batched_samples,
        fallback_samples=stats.fallback_samples,
        verified=verified,
        mismatches=mismatches,
        supervised=supervisor is not None,
        respawns=supervisor.respawns if supervisor else 0,
        replayed_samples=supervisor.replayed_samples if supervisor else 0,
        failed_recoveries=supervisor.failed_recoveries if supervisor else 0,
        rejected_submits=supervisor.rejected_submits if supervisor else 0,
        recovery_seconds=supervisor.recovery_seconds if supervisor else 0.0,
        supervisor_level=int(supervisor.level) if supervisor else 0,
        quarantined=quarantined,
        chaos_events=list(controller.applied) if controller is not None else None,
        skipped_chunks=skipped,
    )
